package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// det returns the determinant of the factored matrix: the product of U's
// diagonal, signed by the parity of the pivot permutation.
func det(f *LU) float64 {
	d := 1.0
	for i := 0; i < f.n; i++ {
		d *= f.lu.data[i*f.n+i]
	}
	// A cycle of length L in the permutation is L−1 row swaps.
	seen := make([]bool, f.n)
	for i := range seen {
		for j := i; !seen[j]; j = f.piv[j] {
			seen[j] = true
			if j != i {
				d = -d
			}
		}
	}
	return d
}

// minPivot returns the smallest absolute diagonal entry of U, a cheap
// conditioning signal.
func minPivot(f *LU) float64 {
	min := math.Inf(1)
	for i := 0; i < f.n; i++ {
		if v := math.Abs(f.lu.data[i*f.n+i]); v < min {
			min = v
		}
	}
	return min
}

func TestLUDetPermutationSign(t *testing.T) {
	// Permutation matrices have determinant ±1 matching their parity.
	perm := MustNew(3, 3, []float64{
		0, 1, 0,
		0, 0, 1,
		1, 0, 0,
	}) // a 3-cycle: even permutation → det +1
	f, err := FactorLU(perm)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if d := det(f); math.Abs(d-1) > 1e-12 {
		t.Fatalf("det(3-cycle) = %g, want 1", d)
	}
	swap := MustNew(2, 2, []float64{0, 1, 1, 0})
	f, err = FactorLU(swap)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if d := det(f); math.Abs(d+1) > 1e-12 {
		t.Fatalf("det(swap) = %g, want -1", d)
	}
}

func TestPropertyDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		a := randomWellConditioned(r, n)
		b := randomWellConditioned(r, n)
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		fa, err := FactorLU(a)
		if err != nil {
			return false
		}
		fb, err := FactorLU(b)
		if err != nil {
			return false
		}
		fab, err := FactorLU(ab)
		if err != nil {
			return false
		}
		want := det(fa) * det(fb)
		got := det(fab)
		scale := math.Abs(want)
		if scale < 1 {
			scale = 1
		}
		return math.Abs(got-want)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCholeskyAgreesWithLU(t *testing.T) {
	// For SPD systems both factorizations solve to the same answer.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		mt, err := Mul(m.T(), m)
		if err != nil {
			return false
		}
		spd := mustAdd(mt, Identity(n))
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		ch, err := FactorCholesky(spd)
		if err != nil {
			return false
		}
		xc, err := ch.SolveVec(rhs)
		if err != nil {
			return false
		}
		xl, err := SolveVec(spd, rhs)
		if err != nil {
			return false
		}
		return NormInfVec(SubVec(xc, xl)) < 1e-7*(1+NormInfVec(xl))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	spd := MustNew(2, 2, []float64{4, 1, 1, 3})
	c, err := FactorCholesky(spd)
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	// The inverse, one column at a time.
	inv := Zeros(2, 2)
	for j := 0; j < 2; j++ {
		e := make([]float64, 2)
		e[j] = 1
		x, err := c.SolveVec(e)
		if err != nil {
			t.Fatalf("SolveVec: %v", err)
		}
		for i, v := range x {
			inv.Set(i, j, v)
		}
	}
	prod, err := Mul(spd, inv)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !Equalish(prod, Identity(2), 1e-10) {
		t.Fatal("cholesky inverse wrong")
	}
	if _, err := c.SolveVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("vec shape error: %v", err)
	}
}

func TestQRShapeErrors(t *testing.T) {
	if _, err := FactorQR(Zeros(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("wide QR: %v", err)
	}
	f, err := FactorQR(Zeros(3, 2))
	if err != nil {
		t.Fatalf("FactorQR: %v", err)
	}
	if _, err := f.SolveVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: %v", err)
	}
	// All-zero matrix is rank deficient.
	if _, err := f.SolveVec([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("rank-deficient solve: %v", err)
	}
}

func TestQRRFactor(t *testing.T) {
	a := MustNew(3, 2, []float64{1, 2, 3, 4, 5, 6})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatalf("FactorQR: %v", err)
	}
	r := f.R()
	// R upper triangular with RᵀR = AᵀA.
	if r.At(1, 0) != 0 {
		t.Fatalf("R not upper triangular:\n%v", r)
	}
	rtr, _ := Mul(r.T(), r)
	ata, _ := Mul(a.T(), a)
	if !Equalish(rtr, ata, 1e-9) {
		t.Fatalf("RᵀR != AᵀA:\n%v\nvs\n%v", rtr, ata)
	}
}

func TestLUSolveShapeErrors(t *testing.T) {
	f, err := FactorLU(Identity(2))
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if _, err := f.SolveVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: %v", err)
	}
	if _, err := f.Solve(Zeros(3, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("matrix rhs: %v", err)
	}
	if _, err := FactorLU(Zeros(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("nonsquare LU: %v", err)
	}
}

func TestMinPivotSignalsConditioning(t *testing.T) {
	good, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if minPivot(good) != 1 {
		t.Fatalf("MinPivot(I) = %g", minPivot(good))
	}
	nearSingular := MustNew(2, 2, []float64{1, 1, 1, 1 + 1e-13})
	f, err := FactorLU(nearSingular)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if minPivot(f) > 1e-10 {
		t.Fatalf("MinPivot = %g, want tiny", minPivot(f))
	}
}

func TestExpmEmptyAndErrors(t *testing.T) {
	e, err := Expm(Zeros(0, 0))
	if err != nil {
		t.Fatalf("Expm(0x0): %v", err)
	}
	if e.Rows() != 0 {
		t.Fatal("Expm(0x0) not empty")
	}
	if _, err := Expm(Zeros(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("nonsquare expm: %v", err)
	}
	if _, _, err := Discretize(Zeros(2, 3), Zeros(2, 1), 1); !errors.Is(err, ErrShape) {
		t.Fatalf("nonsquare discretize: %v", err)
	}
	if _, _, err := Discretize(Zeros(2, 2), Zeros(3, 1), 1); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched discretize: %v", err)
	}
}

func TestPropertyExpmInverse(t *testing.T) {
	// e^{A}·e^{−A} = I.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		ep, err := Expm(a)
		if err != nil {
			return false
		}
		en, err := Expm(Scale(-1, a))
		if err != nil {
			return false
		}
		prod, err := Mul(ep, en)
		if err != nil {
			return false
		}
		return Equalish(prod, Identity(n), 1e-8*(1+maxAbs(prod)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
