package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L*Lᵀ. It owns reusable factor storage and moves by
// pointer.
//
//lint:nocopy
type Cholesky struct {
	l *Dense
	n int
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
// It returns ErrSingular if a is not positive definite to working precision.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor recomputes the factorization in place, reusing c's storage when it
// has capacity. On error c is left in an unusable state and must be
// re-factored before solving. The zero value of Cholesky is ready for Factor.
func (c *Cholesky) Factor(a *Dense) error { return c.FactorFrom(a, nil, 0, nil) }

// FactorFrom computes the factorization of a as Factor does, starting from
// src, the factor of an earlier matrix b. Rows 0…p−1 of a and b are equal
// on and below the diagonal, and each later row i of a either repeats row
// from[i−p] of b in its first p columns or, with from[i−p] = −1, is new.
// The repeated rows ascend and lie in p…src's size−1; a nil from means no
// row repeats. src may be c itself. With p = 0 nothing is kept: Factor is
// FactorFrom(a, nil, 0, nil).
//
// Row i of the factor depends only on rows 0…i of a, and its entry in a
// column j < p only on a's row i up to column j and the factor's first p
// rows. So the factor's first p rows are src's, and so are the first p
// columns of each repeated row; those are copied. An inserted row's first
// p columns come from forward substitution against the kept rows, which is
// the column loop's own chain for those entries, and every column from p on
// is computed by Factor's loop started at column p.
// The result is Factor(a) bit for bit, and a non-positive-definite a fails
// at the same column with the same error.
//
// Only the lower triangle of a is read, and of it only rows p and beyond:
// columns p…i of a repeated row i, and 0…i of an inserted one.
func (c *Cholesky) FactorFrom(a *Dense, src *Cholesky, p int, from []int) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n, on := a.rows, 0
	if src != nil {
		on = src.n
	}
	if p < 0 || p > n || p > on || from != nil && len(from) != n-p {
		return fmt.Errorf("mat: cholesky of %dx%d from a %d-row factor, prefix %d, %d row links: %w", n, n, on, p, len(from), ErrShape)
	}
	last := p - 1
	for _, r := range from {
		if r < 0 {
			continue
		}
		if r <= last || r >= on {
			return fmt.Errorf("mat: cholesky row link %d after %d, want ascending in [%d, %d): %w", r, last, p, on, ErrShape)
		}
		last = r
	}
	var old []float64
	if p > 0 {
		// Read before the reshape below: src may be c.
		old = src.l.data
	}
	l := reuseUnset(c.l, n, n)
	c.l, c.n = l, n
	ld := l.data
	if p > 0 {
		keepRows(ld, n, old, on, p, from)
		for i := p; i < n; i++ {
			if link(from, i-p) >= 0 {
				continue
			}
			// Inserted row: its first p columns by forward substitution.
			for j := 0; j < p; j++ {
				s := a.data[i*n+j]
				for k := 0; k < j; k++ {
					s -= ld[i*n+k] * ld[j*n+k]
				}
				ld[i*n+j] = s / ld[j*n+j]
			}
		}
	}
	// Every entry on and below the diagonal is kept, substituted or
	// factored; the strict upper triangle must be zero.
	for i := 0; i < n; i++ {
		clear(ld[i*n+i+1 : (i+1)*n])
	}
	ad := a.data
	for j := p; j < n; j++ {
		rj := ld[j*n:][:j]
		d := ad[j*n+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 {
			c.n = 0
			return fmt.Errorf("mat: non-positive-definite at column %d (d=%g): %w", j, d, ErrSingular)
		}
		dj := math.Sqrt(d)
		ld[j*n+j] = dj
		// Four rows per pass share row j's entries (DESIGN.md §3.10).
		i := j + 1
		for ; i+4 <= n; i += 4 {
			s0, s1, s2, s3 := sub4(ad[i*n+j], ad[(i+1)*n+j], ad[(i+2)*n+j], ad[(i+3)*n+j],
				ld[i*n:], ld[(i+1)*n:], ld[(i+2)*n:], ld[(i+3)*n:], rj)
			ld[i*n+j], ld[(i+1)*n+j], ld[(i+2)*n+j], ld[(i+3)*n+j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
		for ; i < n; i++ {
			ri := ld[i*n:][:j]
			s := ad[i*n+j]
			for k, v := range rj {
				s -= ri[k] * v
			}
			ld[i*n+j] = s / dj
		}
	}
	return nil
}

// sub4 subtracts from s0…s3 the products of the first len(v) entries of
// rows r0…r3 with v: four independent chains sharing v's loads, each in
// ascending k, so each ends exactly as a one-row loop would (DESIGN.md
// §3.10).
func sub4(s0, s1, s2, s3 float64, r0, r1, r2, r3, v []float64) (float64, float64, float64, float64) {
	r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
	for k, x := range v {
		s0 -= r0[k] * x
		s1 -= r1[k] * x
		s2 -= r2[k] * x
		s3 -= r3[k] * x
	}
	return s0, s1, s2, s3
}

// keepRows copies into l (n×n) the entries FactorFrom keeps from old, an
// on×on factor: all of 0…i of each prefix row i < p, and the first p
// columns of each repeated row. old may be l's own storage. Both the source
// and the destination offset ascend with the row, and a row's entries fit
// within either stride, so a row moving toward the front can only land on
// the sources of earlier rows and one moving toward the back only on those
// of later rows: moving the first kind in ascending order, then the second
// in descending order, reads every source before anything overwrites it.
func keepRows(l []float64, n int, old []float64, on, p int, from []int) {
	kept := func(i int) (r, w int) {
		if i < p {
			return i, i + 1
		}
		if r := link(from, i-p); r >= 0 {
			return r, p
		}
		return 0, 0
	}
	for i := 0; i < n; i++ {
		if r, w := kept(i); w > 0 && i*n <= r*on {
			copy(l[i*n:i*n+w], old[r*on:r*on+w])
		}
	}
	for i := n - 1; i >= 0; i-- {
		if r, w := kept(i); w > 0 && i*n > r*on {
			copy(l[i*n:i*n+w], old[r*on:r*on+w])
		}
	}
}

// link returns from[t], the row of the earlier factor that row p+t
// repeats, or −1 when from is nil.
func link(from []int, t int) int {
	if from == nil {
		return -1
	}
	return from[t]
}

// CondEstimate returns (max diag L / min diag L)², a cheap lower bound on
// the condition number of the factored matrix.
func (c *Cholesky) CondEstimate() float64 {
	if c.n == 0 {
		return 1
	}
	min, max := c.l.data[0], c.l.data[0]
	for i := 1; i < c.n; i++ {
		d := c.l.data[i*c.n+i]
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 {
		return math.Inf(1)
	}
	r := max / min
	return r * r
}

// SolveVec solves A*x = b given A = L*Lᵀ.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("mat: cholesky solve rhs length %d, want %d: %w", len(b), c.n, ErrShape)
	}
	y := make([]float64, c.n)
	if err := c.SolveVecInto(y, b); err != nil {
		return nil, err
	}
	return y, nil
}

// triSolveSaxpyMin is the size from which SolveVecInto's backward sweep
// runs in the row-streaming saxpy order. Paper-scale systems (≤ ~45) stay
// below it; the C8×N6 grid's 144-variable QP is above it.
const triSolveSaxpyMin = 128

// SolveVecInto solves A*x = b, writing x into dst. dst must have length n.
// dst MAY alias b: the forward sweep reads b[i] before writing dst[i].
//
// For n >= triSolveSaxpyMin the backward sweep switches to the row-streaming
// (right-looking) order: the dot-product form walks a column of the
// row-major factor with stride n, which at working-set sizes in the
// thousands misses cache and TLB on every element and dominated the warm
// MPC step. The saxpy form reads the factor row by row at full memory
// bandwidth. This reorders each element's accumulation chain, so results
// above the threshold are NOT bit-identical to the dot-form sweep
// (DESIGN.md §3.10): a back solve in the dot order must either walk the
// factor by column or keep a transposed copy of every cached factor. Every
// checksummed paper-scale artifact stays far below the threshold; the C8×N6
// grid checksums (BenchmarkGridC8N6, TestMPCGridBitsUnchanged) sit above
// it and record the saxpy order's bits.
func (c *Cholesky) SolveVecInto(dst, b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("mat: cholesky solve rhs length %d, want %d: %w", len(b), c.n, ErrShape)
	}
	if len(dst) != c.n {
		return dstLenErr("cholesky solve", len(dst), c.n)
	}
	n, ld := c.n, c.l.data
	// Forward: L*y = b, four rows per pass. Their chains share y[0…i−1],
	// then each finishes on the rows solved before it in the same pass, so
	// every y[i] subtracts its products in ascending k (DESIGN.md §3.10).
	y := dst
	i := 0
	for ; i+4 <= n; i += 4 {
		s0, s1, s2, s3 := sub4(b[i], b[i+1], b[i+2], b[i+3],
			ld[i*n:], ld[(i+1)*n:], ld[(i+2)*n:], ld[(i+3)*n:], y[:i])
		// t1…t3 are rows i+1…i+3 from column i on.
		t1, t2, t3 := ld[(i+1)*n+i:], ld[(i+2)*n+i:], ld[(i+3)*n+i:]
		y0 := s0 / ld[i*n+i]
		s1 -= t1[0] * y0
		y1 := s1 / t1[1]
		s2 -= t2[0] * y0
		s2 -= t2[1] * y1
		y2 := s2 / t2[2]
		s3 -= t3[0] * y0
		s3 -= t3[1] * y1
		s3 -= t3[2] * y2
		y[i], y[i+1], y[i+2], y[i+3] = y0, y1, y2, s3/t3[3]
	}
	for ; i < n; i++ {
		s := b[i]
		row := ld[i*n:][:i]
		for k, v := range y[:i] {
			s -= row[k] * v
		}
		y[i] = s / ld[i*n+i]
	}
	// Back: Lᵀ*x = y.
	if n >= triSolveSaxpyMin {
		// Two rows per pass, so each y[k] is loaded and stored once for
		// both: row i's update of y[i−1] comes first, then both rows
		// stream over y[0…i−2], each keeping its skip-zero test, so every
		// y[k] still takes its updates in descending row order.
		i := n - 1
		for ; i >= 1; i -= 2 {
			ri := ld[i*n:][:i+1]
			xi := y[i] / ri[i]
			y[i] = xi
			//lint:ignore floateq skip-zero fast path is exact: only true zeros skip
			if xi != 0 {
				y[i-1] -= ri[i-1] * xi
			}
			rj := ld[(i-1)*n:][:i]
			xj := y[i-1] / rj[i-1]
			y[i-1] = xj
			yk := y[:i-1]
			ri, rj = ri[:i-1], rj[:i-1]
			switch {
			//lint:ignore floateq skip-zero fast path is exact: only true zeros skip
			case xi != 0 && xj != 0:
				for k := range yk {
					yk[k] = yk[k] - ri[k]*xi - rj[k]*xj
				}
			//lint:ignore floateq skip-zero fast path is exact: only true zeros skip
			case xi != 0:
				for k, lik := range ri {
					yk[k] -= lik * xi
				}
			//lint:ignore floateq skip-zero fast path is exact: only true zeros skip
			case xj != 0:
				for k, ljk := range rj {
					yk[k] -= ljk * xj
				}
			}
		}
		if i == 0 {
			y[0] /= ld[0]
		}
		return nil
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * y[k]
		}
		y[i] = s / c.l.data[i*n+i]
	}
	return nil
}
