package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Equal reports whether a and b have the same shape and exactly equal
// entries (IEEE ==, so NaN entries compare unequal). Nil matrices are equal
// only to nil.
func Equal(a, b *Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// maxAbs returns the largest absolute entry of m.
func maxAbs(m *Dense) float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

func TestNewShapeErrors(t *testing.T) {
	if _, err := New(2, 3, make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("New with short data: got %v, want ErrShape", err)
	}
	if _, err := New(-1, 3, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("New with negative rows: got %v, want ErrShape", err)
	}
	m, err := New(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := m.At(1, 0); got != 3 {
		t.Fatalf("At(1,0) = %v, want 3", got)
	}
}

func TestMulIdentity(t *testing.T) {
	a := MustNew(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got, err := Mul(Identity(2), a)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !Equalish(got, a, 0) {
		t.Fatalf("I*A != A:\n%v", got)
	}
	got, err = Mul(a, Identity(3))
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !Equalish(got, a, 0) {
		t.Fatalf("A*I != A:\n%v", got)
	}
}

func TestMulKnown(t *testing.T) {
	a := MustNew(2, 2, []float64{1, 2, 3, 4})
	b := MustNew(2, 2, []float64{5, 6, 7, 8})
	want := MustNew(2, 2, []float64{19, 22, 43, 50})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !Equalish(got, want, 1e-12) {
		t.Fatalf("A*B =\n%v\nwant\n%v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(2, 3)
	if _, err := Mul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("Mul shape mismatch: got %v, want ErrShape", err)
	}
}

func TestTranspose(t *testing.T) {
	a := MustNew(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSliceAndSetBlock(t *testing.T) {
	a := MustNew(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := a.Slice(1, 3, 0, 2)
	want := MustNew(2, 2, []float64{4, 5, 7, 8})
	if !Equalish(s, want, 0) {
		t.Fatalf("Slice =\n%v\nwant\n%v", s, want)
	}
	b := Zeros(3, 3)
	b.SetBlock(1, 1, s)
	if b.At(1, 1) != 4 || b.At(2, 2) != 8 || b.At(0, 0) != 0 {
		t.Fatalf("SetBlock result wrong:\n%v", b)
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := MustNew(3, 3, []float64{2, 1, 1, 1, 3, 2, 1, 0, 0})
	b := []float64{4, 5, 6}
	x, err := SolveVec(a, b)
	if err != nil {
		t.Fatalf("SolveVec: %v", err)
	}
	ax, err := MulVec(a, x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Fatalf("A*x = %v, want %v", ax, b)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := MustNew(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular LU: got %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	a := MustNew(2, 2, []float64{3, 8, 4, 6})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if d := det(f); math.Abs(d-(-14)) > 1e-12 {
		t.Fatalf("Det = %v, want -14", d)
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomWellConditioned(rng, 6)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	inv, err := f.Solve(Identity(6))
	if err != nil {
		t.Fatalf("Solve(I): %v", err)
	}
	prod, err := Mul(a, inv)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !Equalish(prod, Identity(6), 1e-8) {
		t.Fatalf("A*A⁻¹ != I:\n%v", prod)
	}
}

// randomWellConditioned returns D + n*I with D random in [-1,1], which is
// diagonally dominated enough to be safely invertible.
func randomWellConditioned(rng *rand.Rand, n int) *Dense {
	a := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 2*rng.Float64() - 1
			if i == j {
				v += float64(n)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

func TestPropertyLUSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomWellConditioned(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		x, err := SolveVec(a, b)
		if err != nil {
			return false
		}
		ax, err := MulVec(a, x)
		if err != nil {
			return false
		}
		return NormInfVec(SubVec(ax, b)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = Mᵀ*M + I is SPD.
	rng := rand.New(rand.NewSource(7))
	m := Zeros(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	mt, _ := Mul(m.T(), m)
	a := mustAdd(mt, Identity(5))
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	// Verify L*Lᵀ = A.
	llt, _ := Mul(c.l, c.l.T())
	if !Equalish(llt, a, 1e-9) {
		t.Fatalf("L*Lᵀ != A")
	}
	b := []float64{1, 2, 3, 4, 5}
	x, err := c.SolveVec(b)
	if err != nil {
		t.Fatalf("SolveVec: %v", err)
	}
	ax, _ := MulVec(a, x)
	if NormInfVec(SubVec(ax, b)) > 1e-9 {
		t.Fatalf("cholesky residual too large: %v", SubVec(ax, b))
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := MustNew(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("non-PD cholesky: got %v, want ErrSingular", err)
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: LS solution is the exact solution.
	a := MustNew(3, 3, []float64{4, 1, 0, 1, 3, 1, 0, 1, 2})
	want := []float64{1, -2, 3}
	b, _ := MulVec(a, want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if NormInfVec(SubVec(x, want)) > 1e-10 {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t to noiseless samples; residual should vanish and the
	// normal equations must hold: Aᵀ(Ax-b)=0.
	ts := []float64{0, 1, 2, 3, 4}
	a := Zeros(len(ts), 2)
	b := make([]float64, len(ts))
	for i, tv := range ts {
		a.Set(i, 0, 1)
		a.Set(i, 1, tv)
		b[i] = 2 + 3*tv
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("fit = %v, want [2 3]", x)
	}
}

func TestQRNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(6)
		n := 2 + r.Intn(3)
		if n > m {
			n = m
		}
		a := Zeros(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		// Guard against accidental rank deficiency.
		for j := 0; j < n && j < m; j++ {
			a.Set(j, j, a.At(j, j)+3)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		ax, _ := MulVec(a, x)
		resid := SubVec(ax, b)
		normal, _ := MulTVec(a, resid)
		return NormInfVec(normal) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	full := MustNew(3, 3, []float64{1, 0, 0, 0, 2, 0, 0, 0, 3})
	if r, err := Rank(full, 1e-12); err != nil || r != 3 {
		t.Fatalf("Rank(full) = %d, %v; want 3", r, err)
	}
	deficient := MustNew(3, 3, []float64{1, 2, 3, 2, 4, 6, 1, 1, 1})
	if r, err := Rank(deficient, 1e-10); err != nil || r != 2 {
		t.Fatalf("Rank(deficient) = %d, %v; want 2", r, err)
	}
}

func TestExpmZero(t *testing.T) {
	e, err := Expm(Zeros(4, 4))
	if err != nil {
		t.Fatalf("Expm: %v", err)
	}
	if !Equalish(e, Identity(4), 1e-14) {
		t.Fatalf("expm(0) != I:\n%v", e)
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := MustNew(2, 2, []float64{1, 0, 0, 2})
	e, err := Expm(a)
	if err != nil {
		t.Fatalf("Expm: %v", err)
	}
	want := MustNew(2, 2, []float64{math.E, 0, 0, math.E * math.E})
	if !Equalish(e, want, 1e-12) {
		t.Fatalf("expm(diag) =\n%v\nwant\n%v", e, want)
	}
}

func TestExpmNilpotentClosedForm(t *testing.T) {
	// The controller's A has A² = 0, so e^{A·ts} = I + A·ts exactly.
	prices := []float64{43.26, 30.26, 19.06}
	n := len(prices) + 1
	a := Zeros(n, n)
	for j, p := range prices {
		a.Set(0, j+1, p)
	}
	ts := 10.0
	e, err := Expm(Scale(ts, a))
	if err != nil {
		t.Fatalf("Expm: %v", err)
	}
	want := mustAdd(Identity(n), Scale(ts, a))
	if !Equalish(e, want, 1e-9) {
		t.Fatalf("expm(nilpotent) =\n%v\nwant\n%v", e, want)
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Force the scaling path with a matrix of large norm; check against the
	// identity e^{A} = (e^{A/2})² computed independently.
	a := MustNew(2, 2, []float64{0, 40, -40, 0}) // rotation generator
	e, err := Expm(a)
	if err != nil {
		t.Fatalf("Expm: %v", err)
	}
	// e^{[0 θ; -θ 0]} = [cos θ, sin θ; -sin θ, cos θ]
	want := MustNew(2, 2, []float64{math.Cos(40), math.Sin(40), -math.Sin(40), math.Cos(40)})
	if !Equalish(e, want, 1e-8) {
		t.Fatalf("expm(rotation) =\n%v\nwant\n%v", e, want)
	}
}

func TestExpmAdditivityProperty(t *testing.T) {
	// For commuting s·A and t·A: e^{(s+t)A} = e^{sA} e^{tA}.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		s, tt := r.Float64(), r.Float64()
		est, err := Expm(Scale(s+tt, a))
		if err != nil {
			return false
		}
		es, err := Expm(Scale(s, a))
		if err != nil {
			return false
		}
		et, err := Expm(Scale(tt, a))
		if err != nil {
			return false
		}
		prod, err := Mul(es, et)
		if err != nil {
			return false
		}
		scale := maxAbs(est)
		if scale < 1 {
			scale = 1
		}
		diff, _ := SubInto(nil, est, prod)
		return maxAbs(diff)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizeAgainstClosedForm(t *testing.T) {
	// With the controller's nilpotent A (A²=0):
	//   Φ = I + A·ts,  G = B·ts + A·B·ts²/2.
	prices := []float64{43.26, 30.26, 19.06}
	n := len(prices) + 1
	a := Zeros(n, n)
	for j, p := range prices {
		a.Set(0, j+1, p)
	}
	b := Zeros(n, 2)
	b.Set(1, 0, 0.5)
	b.Set(2, 1, 0.7)
	b.Set(3, 0, 0.1)
	ts := 30.0
	phi, g, err := Discretize(a, b, ts)
	if err != nil {
		t.Fatalf("Discretize: %v", err)
	}
	wantPhi := mustAdd(Identity(n), Scale(ts, a))
	ab, _ := Mul(a, b)
	wantG := mustAdd(Scale(ts, b), Scale(ts*ts/2, ab))
	if !Equalish(phi, wantPhi, 1e-8) {
		t.Fatalf("Φ =\n%v\nwant\n%v", phi, wantPhi)
	}
	if !Equalish(g, wantG, 1e-6) {
		t.Fatalf("G =\n%v\nwant\n%v", g, wantG)
	}
}

func TestDiscretizeScalar(t *testing.T) {
	// ẋ = -x + u, ts = 1: Φ = e⁻¹, G = 1 - e⁻¹.
	a := MustNew(1, 1, []float64{-1})
	b := MustNew(1, 1, []float64{1})
	phi, g, err := Discretize(a, b, 1)
	if err != nil {
		t.Fatalf("Discretize: %v", err)
	}
	if math.Abs(phi.At(0, 0)-math.Exp(-1)) > 1e-12 {
		t.Fatalf("Φ = %v, want e⁻¹", phi.At(0, 0))
	}
	if math.Abs(g.At(0, 0)-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("G = %v, want 1-e⁻¹", g.At(0, 0))
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if d := Dot(x, y); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	if s := AddVec(x, y); s[2] != 9 {
		t.Fatalf("AddVec = %v", s)
	}
	if s := SubVec(y, x); s[0] != 3 {
		t.Fatalf("SubVec = %v", s)
	}
	if s := ScaleVec(2, x); s[1] != 4 {
		t.Fatalf("ScaleVec = %v", s)
	}
	if n := NormVec([]float64{3, 4}); n != 5 {
		t.Fatalf("NormVec = %v, want 5", n)
	}
	if n := NormInfVec([]float64{-7, 2}); n != 7 {
		t.Fatalf("NormInfVec = %v, want 7", n)
	}
}

func TestNorms(t *testing.T) {
	a := MustNew(2, 2, []float64{1, -2, 3, -4})
	if n := a.Norm1(); n != 6 {
		t.Fatalf("Norm1 = %v, want 6", n)
	}
}

func TestRowColAccessors(t *testing.T) {
	a := MustNew(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r := a.RowView(1)
	if len(r) != 3 || cap(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("RowView(1) = %v (cap %d)", r, cap(r))
	}
	r[0] = 99 // a view: the write reaches a
	if a.At(1, 0) != 99 {
		t.Fatal("RowView returned a copy, want a view")
	}
	if a.At(0, 2) != 3 || a.At(1, 2) != 6 {
		t.Fatalf("column 2 = [%v %v], want [3 6]", a.At(0, 2), a.At(1, 2))
	}
}
