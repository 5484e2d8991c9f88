package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// naiveCholesky is the reference factorization: the Cholesky.Factor column
// loop with one row, so one chain, per pass.
func naiveCholesky(a *Dense) (*Dense, int, error) {
	n := a.rows
	l := Zeros(n, n)
	for j := 0; j < n; j++ {
		d := a.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= l.data[j*n+k] * l.data[j*n+k]
		}
		if d <= 0 {
			return nil, j, ErrSingular
		}
		dj := math.Sqrt(d)
		l.data[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / dj
		}
	}
	return l, -1, nil
}

// naiveMulVec is the reference matrix-vector product, byte-for-byte the
// pre-interleaving MulVecInto loop: one row, so one chain, per pass.
func naiveMulVec(a *Dense, x []float64) []float64 {
	dst := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// naiveCholSolve is the reference solve against the factor l, byte-for-byte
// the pre-interleaving SolveVecInto loops: one row per pass, with the
// dot-form back sweep below triSolveSaxpyMin and the one-row saxpy sweep
// at or above it.
func naiveCholSolve(l *Dense, b []float64) []float64 {
	n := l.rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.data[i*n+k] * y[k]
		}
		y[i] = s / l.data[i*n+i]
	}
	if n >= triSolveSaxpyMin {
		for i := n - 1; i >= 0; i-- {
			xi := y[i] / l.data[i*n+i]
			y[i] = xi
			//lint:ignore floateq the reference keeps the kernel's exact skip-zero test
			if xi == 0 {
				continue
			}
			for k, lik := range l.data[i*n : i*n+i] {
				y[k] -= lik * xi
			}
		}
		return y
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * y[k]
		}
		y[i] = s / l.data[i*n+i]
	}
	return y
}

// diffBits returns the first index at which got and want differ in their
// bits (so +0 and −0 differ, and equal NaNs do not), or −1.
func diffBits(got, want []float64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// FuzzDenseKernelsBitIdentical checks the kernels that keep several
// accumulation chains in flight — MulVecInto, Cholesky.Factor's
// column loop and SolveVecInto's forward and row-streaming back sweeps —
// against the one-chain-per-pass reference loops, bit for bit. Sizes run
// 0…150: every remainder of the four- and two-row passes, and both sides of
// triSolveSaxpyMin. Entries are Gaussian, so a split or
// reassociated chain rounds differently; block-diagonal matrices and
// right-hand sides with exact +0 and −0 entries and whole zero blocks make
// solution entries exactly zero, so every skip-zero branch fires. A
// right-hand side of signed zeros only keeps −0 entries alive through both
// sweeps, where a skipped update and an applied one differ in the sign of
// a zero. One input in eight leaves the diagonal undominated, and the
// factorization must then fail at the reference's column.
//
// Layout: n, rows of the product's matrix, block size, flags (bits 0–2
// clear: undominated; bit 3: signed-zero right-hand side), then eight
// bytes of RNG seed.
func FuzzDenseKernelsBitIdentical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 5, 3, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{144, 131, 9, 1, 42})
	f.Add([]byte{150, 150, 150, 1, 7})
	f.Add([]byte{130, 3, 4, 0, 9})
	f.Add([]byte{99, 77, 13, 1, 3})
	f.Add([]byte{129, 1, 2, 1, 5})
	f.Add([]byte{20, 3, 4, 0, 9})
	f.Add([]byte{140, 0, 5, 9, 1})
	f.Add([]byte{31, 0, 13, 9, 2})
	f.Add([]byte{130, 66, 55, 57, 49}) // a −0 only the skip-zero test on y[i−1] keeps
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		next := func() byte {
			if off < len(data) {
				b := data[off]
				off++
				return b
			}
			return 0
		}
		n := int(next()) % 151
		m := int(next()) % 151
		blk := int(next())%16 + 1
		if blk > 12 {
			blk = n // one dense block
		}
		flags := next()
		dominant, zeroRHS := flags%8 != 0, flags&8 != 0
		var seed int64
		for i := 0; i < 8; i++ {
			seed = seed<<8 | int64(next())
		}
		rng := rand.New(rand.NewSource(seed))
		entry := func() float64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return rng.NormFloat64()
		}

		// MulVecInto over an m×n matrix.
		g := Zeros(m, n)
		for i := range g.data {
			g.data[i] = entry()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = entry()
		}
		got := make([]float64, m)
		if err := MulVecInto(got, g, x); err != nil {
			t.Fatal(err)
		}
		if i := diffBits(got, naiveMulVec(g, x)); i >= 0 {
			t.Fatalf("MulVecInto %dx%d: entry %d differs from the one-chain loop", m, n, i)
		}

		// Cholesky.Factor of a symmetric block-diagonal matrix.
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := i / blk * blk; j <= i; j++ {
				v := entry()
				a.data[i*n+j], a.data[j*n+i] = v, v
			}
			if dominant {
				a.data[i*n+i] = float64(blk) * (4 + rng.Float64())
			}
		}
		want, wantCol, wantErr := naiveCholesky(a)
		var c Cholesky
		err := c.Factor(a)
		if wantErr != nil {
			if !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), fmt.Sprintf("column %d", wantCol)) {
				t.Fatalf("n=%d: the reference failed at column %d, Factor returned %v", n, wantCol, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("n=%d: the reference succeeded, Factor returned %v", n, err)
		}
		if i := diffBits(c.l.data, want.data); i >= 0 {
			t.Fatalf("n=%d: factor entry (%d,%d) differs from the one-chain loop", n, i/n, i%n)
		}

		// SolveVecInto, unaliased and aliased, against a right-hand side
		// with exact ±0 entries and whole zero blocks.
		b := make([]float64, n)
		for i := range b {
			switch r := rng.Intn(8); {
			case r == 0 || zeroRHS && r < 4:
				b[i] = math.Copysign(0, -1)
			case r == 1 || zeroRHS || i/blk%3 == 1:
				b[i] = 0
			default:
				b[i] = rng.NormFloat64()
			}
		}
		wantX := naiveCholSolve(want, b)
		gotX := make([]float64, n)
		if err := c.SolveVecInto(gotX, b); err != nil {
			t.Fatal(err)
		}
		if i := diffBits(gotX, wantX); i >= 0 {
			t.Fatalf("n=%d: solve entry %d = %v, the one-chain loops give %v", n, i, gotX[i], wantX[i])
		}
		if err := c.SolveVecInto(b, b); err != nil {
			t.Fatal(err)
		}
		if i := diffBits(b, wantX); i >= 0 {
			t.Fatalf("n=%d: aliased solve entry %d = %v, the one-chain loops give %v", n, i, b[i], wantX[i])
		}
	})
}

// factorFromInput decodes one FuzzCholeskyFactorFrom input: a symmetric
// positive definite Gram matrix g over m ids, the ascending id lists of an
// earlier matrix b and a new matrix a (both principal submatrices of g, as
// the working sets of an active-set solver are), the prefix p they share,
// and the row links of a's later rows into b. Bytes past the end read as 0,
// which puts every id in both lists and keeps p at the full common prefix.
//
// Layout: m, value seed, flags (bit 0 clear: dominant diagonal; the rest:
// Gram rank), prefix shrink, poisoned row, poison value, then one byte per
// id (bit 0: not in a, bit 1: not in b). A poisoned row i ≥ p of a gets the
// diagonal entry fuzzValue(poison value), which usually makes a fail there.
func factorFromInput(data []byte) (a, b *Dense, p int, from []int) {
	off := 0
	next := func() byte {
		if off < len(data) {
			v := data[off]
			off++
			return v
		}
		return 0
	}
	m := int(next())%176 + 1
	rng := rand.New(rand.NewSource(int64(next())))
	flags := next()
	shrink, poison, poisonVal := int(next()), int(next()), next()
	var ida, idb []int
	for t := 0; t < m; t++ {
		mem := next()
		if mem&1 == 0 {
			ida = append(ida, t)
		}
		if mem&2 == 0 {
			idb = append(idb, t)
		}
	}
	rank := int(flags>>1)%16 + 1
	v := make([]float64, m*rank)
	for i := range v {
		v[i] = fuzzValue(byte(rng.Intn(256)))
	}
	g := Zeros(m, m)
	for s := 0; s < m; s++ {
		for t := 0; t <= s; t++ {
			var x float64
			for q := 0; q < rank; q++ {
				x += v[s*rank+q] * v[t*rank+q]
			}
			g.data[s*m+t], g.data[t*m+s] = x, x
		}
		if flags&1 == 0 {
			g.data[s*m+s] += float64(m) * 40
		} else {
			g.data[s*m+s] += 0.25
		}
	}
	sub := func(ids []int) *Dense {
		k := len(ids)
		d := Zeros(k, k)
		for i, s := range ids {
			for j, t := range ids {
				d.data[i*k+j] = g.data[s*m+t]
			}
		}
		return d
	}
	a, b = sub(ida), sub(idb)
	for p < len(ida) && p < len(idb) && ida[p] == idb[p] {
		p++
	}
	p -= shrink % (p + 1)
	for i, r := p, p; i < len(ida); i++ {
		for r < len(idb) && idb[r] < ida[i] {
			r++
		}
		link := -1
		if r < len(idb) && idb[r] == ida[i] {
			link = r
		}
		from = append(from, link)
	}
	if k := len(ida); poison > 0 && k > p {
		i := p + (poison-1)%(k-p)
		a.data[i*k+i] = fuzzValue(poisonVal)
	}
	return a, b, p, from
}

// FuzzCholeskyFactorFrom checks FactorFrom against the naive loop: from a
// distinct source, from a source that is the receiver itself, and from one
// whose storage has room to spare (so the kept rows move within one
// array), the factor of a must equal naiveCholesky(a) bit for bit, and a
// non-positive-definite a must fail with Factor's error at the same column.
// FactorFrom sees a with NaN in every entry it must not read. Sizes run up
// to 176, past the 144 rows of the grid-c8n6 QP; the checked-in seeds
// factor 150–170 rows.
func FuzzCholeskyFactorFrom(f *testing.F) {
	f.Add([]byte{})
	// Small seeds: p = 0 (the first id is new), p = k (no change), a pure
	// insert and a pure drop after the prefix.
	f.Add([]byte{23, 5, 6, 0, 0, 0, 2})
	f.Add([]byte{23, 6, 1})
	f.Add([]byte{23, 7, 8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 2, 0, 0, 0, 2})
	f.Add([]byte{23, 8, 3, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, p, from := factorFromInput(data)
		n := a.rows
		var src Cholesky
		if err := src.Factor(b); err != nil {
			return // b is positive definite by construction; rounding aside
		}
		srcL := src.l.Clone()
		want, wantCol, wantErr := naiveCholesky(a)
		var ref Cholesky
		refErr := ref.Factor(a)
		// What FactorFrom reads of a: rows p and beyond, on and below the
		// diagonal, from column p in a repeated row.
		given := a.Clone()
		for i := 0; i < n; i++ {
			j0 := n
			if i >= p {
				j0 = 0
				if from[i-p] >= 0 {
					j0 = p
				}
			}
			for j := 0; j < n; j++ {
				if j < j0 || j > i {
					given.data[i*n+j] = math.NaN()
				}
			}
		}
		check := func(name string, c *Cholesky, err error) {
			t.Helper()
			if wantErr != nil {
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s: n=%d p=%d: naive failed at column %d (Factor: %v), FactorFrom returned %v", name, n, p, wantCol, refErr, err)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("column %d ", wantCol)) {
					t.Fatalf("%s: n=%d p=%d: error %q, want failure at column %d", name, n, p, err, wantCol)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: n=%d p=%d: naive succeeded but FactorFrom returned %v", name, n, p, err)
			}
			if !Equal(c.l, want) {
				t.Fatalf("%s: n=%d p=%d: factor differs from the naive loop", name, n, p)
			}
		}

		// Distinct source into a receiver holding a stale, larger factor.
		var c Cholesky
		if err := c.Factor(Identity(n + 3)); err != nil {
			t.Fatal(err)
		}
		check("distinct source", &c, c.FactorFrom(given, &src, p, from))
		if !Equal(src.l, srcL) {
			t.Fatalf("n=%d p=%d: FactorFrom wrote to its source", n, p)
		}

		// The receiver as its own source, with exactly b's storage.
		var self Cholesky
		if err := self.Factor(b); err != nil {
			t.Fatal(err)
		}
		check("self source", &self, self.FactorFrom(given, &self, p, from))

		// The receiver as its own source, with room for a and b both, so
		// every kept row moves inside one array.
		var roomy Cholesky
		big := n
		if b.rows > big {
			big = b.rows
		}
		if err := roomy.Factor(Identity(big + 1)); err != nil {
			t.Fatal(err)
		}
		if err := roomy.Factor(b); err != nil {
			t.Fatal(err)
		}
		check("self source in place", &roomy, roomy.FactorFrom(given, &roomy, p, from))

		// With no repeated row, nil links mean the same.
		if !slices.ContainsFunc(from, func(r int) bool { return r >= 0 }) {
			var none Cholesky
			check("nil links", &none, none.FactorFrom(given, &src, p, nil))
		}
	})
}

// TestBlockedCholeskyNonPDSameColumn: a non-positive-definite matrix of more
// than 128 rows, where a cache-tiled factorization used to take over, fails
// in Factor and in FactorFrom (from a kept 64-row prefix) at the column the
// reference loop fails at.
func TestBlockedCholeskyNonPDSameColumn(t *testing.T) {
	const n = 148
	a := Identity(n)
	a.Set(100, 100, -1)
	if _, col, err := naiveCholesky(a); err == nil || col != 100 {
		t.Fatalf("reference: column %d, %v; want a failure at column 100", col, err)
	}
	var src Cholesky
	if err := src.Factor(Identity(64)); err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "column 100 ") {
			t.Errorf("%s error = %v, want ErrSingular at column 100", name, err)
		}
	}
	var c Cholesky
	check("Factor", c.Factor(a))
	check("FactorFrom", c.FactorFrom(a, &src, 64, nil))
}

// TestBlockedLUSingular: a matrix of more than 128 rows with column 77
// zeroed is exactly singular there, and LU.Factor names that column.
func TestBlockedLUSingular(t *testing.T) {
	const n = 138
	a := Identity(n)
	for i := 0; i < n; i++ {
		a.Set(i, 77, 0)
	}
	var f LU
	err := f.Factor(a)
	if !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "zero pivot at column 77:") {
		t.Fatalf("n=%d: Factor error = %v, want ErrSingular at column 77", n, err)
	}
}

// TestCholeskyFactorFromRejectsBadLinks pins FactorFrom's argument checks:
// a prefix longer than either matrix, a link list of the wrong length, and
// links that do not ascend or fall outside the earlier factor's later rows
// are ErrShape, and they leave the receiver untouched.
func TestCholeskyFactorFromRejectsBadLinks(t *testing.T) {
	b := Identity(4)
	var src Cholesky
	if err := src.Factor(b); err != nil {
		t.Fatal(err)
	}
	a := Identity(3)
	for _, tc := range []struct {
		name string
		src  *Cholesky
		p    int
		from []int
	}{
		{"prefix past a", &src, 4, nil},
		{"prefix past src", &Cholesky{}, 1, []int{-1, -1}},
		{"negative prefix", &src, -1, []int{-1, -1, -1, -1}},
		{"short links", &src, 1, []int{2}},
		{"link into prefix", &src, 1, []int{0, 2}},
		{"link past src", &src, 1, []int{2, 4}},
		{"descending links", &src, 1, []int{3, 2}},
		{"repeated link", &src, 1, []int{2, 2}},
		{"links without src", nil, 0, []int{0, -1, -1}},
	} {
		c := Cholesky{}
		if err := c.FactorFrom(a, tc.src, tc.p, tc.from); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", tc.name, err)
		}
		if c.l != nil {
			t.Errorf("%s: receiver was written", tc.name)
		}
	}
	var c Cholesky
	if err := c.FactorFrom(a, &src, 1, []int{2, -1}); err != nil {
		t.Fatalf("valid links rejected: %v", err)
	}
}
