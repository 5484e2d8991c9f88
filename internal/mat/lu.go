package mat

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U is upper triangular, stored packed in lu. It
// owns reusable factor storage and moves by pointer.
//
//lint:nocopy
type LU struct {
	lu  *Dense
	piv []int // piv[i] = row of A in position i after pivoting
	n   int
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero.
func FactorLU(a *Dense) (*LU, error) {
	f := &LU{}
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor recomputes the factorization in place, reusing f's storage when it
// has capacity. On error f is left in an unusable state and must be
// re-factored before solving. The zero value of LU is ready for Factor.
func (f *LU) Factor(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: LU of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	lu := reuseUnset(f.lu, n, n)
	copy(lu.data, a.data)
	piv := f.piv
	if cap(piv) < n {
		piv = make([]int, n)
	} else {
		piv = piv[:n]
	}
	for i := range piv {
		piv[i] = i
	}
	f.lu, f.piv, f.n = lu, piv, n
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |entry| in column k at/below row k.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > max {
				max, p = v, i
			}
		}
		//lint:ignore floateq singularity gate is intentionally exact: any nonzero pivot factors
		if max == 0 {
			f.n = 0
			return fmt.Errorf("mat: zero pivot at column %d: %w", k, ErrSingular)
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivot
			lu.data[i*n+k] = m
			//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= m * lu.data[k*n+j]
			}
		}
	}
	return nil
}

func swapRows(m *Dense, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SolveVec solves A*x = b for x.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("mat: LU solve rhs length %d, want %d: %w", len(b), f.n, ErrShape)
	}
	x := make([]float64, f.n)
	if err := f.SolveVecInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecInto solves A*x = b, writing x into dst. dst must have length n and
// must NOT alias b: the permutation gather reads b out of order after dst
// entries have been written.
//
//lint:noalias dst,b
func (f *LU) SolveVecInto(dst, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("mat: LU solve rhs length %d, want %d: %w", len(b), f.n, ErrShape)
	}
	if len(dst) != f.n {
		return dstLenErr("lu solve", len(dst), f.n)
	}
	n := f.n
	x := dst
	// Apply permutation: x = P*b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit L.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.data[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu.data[i*n+i]
	}
	return nil
}

// Solve solves A*X = B for the matrix X, column by column, each into one
// scratch vector.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	if b.rows != f.n {
		return nil, fmt.Errorf("mat: LU solve rhs %dx%d, want %d rows: %w", b.rows, b.cols, f.n, ErrShape)
	}
	out := Zeros(f.n, b.cols)
	col := make([]float64, f.n)
	x := make([]float64, f.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		if err := f.SolveVecInto(x, col); err != nil {
			return nil, err
		}
		for i := 0; i < f.n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}

// SolveVec solves the square system a*x = b using LU with partial pivoting.
func SolveVec(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Solve solves the square system a*X = B using LU with partial pivoting.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
