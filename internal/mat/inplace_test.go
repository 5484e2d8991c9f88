package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	d := Zeros(r, c)
	for i := range d.data {
		d.data[i] = rng.NormFloat64()
	}
	return d
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestIntoKernelsMatchAllocating pins the core contract: every Into kernel
// with a preallocated destination produces bit-identical results to its
// allocating wrapper, for several shapes and with dirty destination storage.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 2}, {5, 5, 5}, {8, 2, 7}} {
		r, k, c := dims[0], dims[1], dims[2]
		a := randDense(rng, r, k)
		b := randDense(rng, k, c)
		sq := randDense(rng, r, k)
		x := randVec(rng, k)
		xt := randVec(rng, r)

		// Dirty destinations: wrong shape, NaN-filled backing storage.
		dirty := func() *Dense {
			d := Zeros(1, r*k*c+3)
			for i := range d.data {
				d.data[i] = math.NaN()
			}
			return d
		}

		want, err := Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MulInto(dirty(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got) {
			t.Errorf("MulInto %dx%dx%d differs from Mul", r, k, c)
		}

		wv, err := MulVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		gv := make([]float64, r)
		if err := MulVecInto(gv, a, x); err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Errorf("MulVecInto[%d] = %g, want %g", i, gv[i], wv[i])
			}
		}

		wt, err := MulTVec(a, xt)
		if err != nil {
			t.Fatal(err)
		}
		gt := make([]float64, k)
		for i := range gt {
			gt[i] = math.NaN() // MulTVecInto must fully overwrite
		}
		if err := MulTVecInto(gt, a, xt); err != nil {
			t.Fatal(err)
		}
		for i := range wt {
			if wt[i] != gt[i] {
				t.Errorf("MulTVecInto[%d] = %g, want %g", i, gt[i], wt[i])
			}
		}

		wadd, _ := Add(a, sq)
		gadd, err := AddInto(dirty(), a, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(wadd, gadd) {
			t.Error("AddInto differs from Add")
		}
		wsub, _ := SubInto(nil, a, sq)
		gsub, err := SubInto(dirty(), a, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(wsub, gsub) {
			t.Error("SubInto into a dirty dst differs from a fresh one")
		}
		if !Equal(Scale(2.5, a), ScaleInto(dirty(), 2.5, a)) {
			t.Error("ScaleInto differs from Scale")
		}
		if !Equal(a.T(), TransposeInto(dirty(), a)) {
			t.Error("TransposeInto differs from T")
		}
	}
}

// TestIntoKernelsAliasing checks the documented aliasing guarantees of the
// elementwise kernels: dst may be either operand.
func TestIntoKernelsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 4, 3)
	b := randDense(rng, 4, 3)

	want, _ := Add(a, b)
	ac := a.Clone()
	if got, err := AddInto(ac, ac, b); err != nil || !Equal(want, got) {
		t.Errorf("AddInto(dst=a): err=%v equal=%v", err, Equal(want, got))
	}
	bc := b.Clone()
	if got, err := AddInto(bc, a, bc); err != nil || !Equal(want, got) {
		t.Errorf("AddInto(dst=b): err=%v equal=%v", err, Equal(want, got))
	}

	wantSub, _ := SubInto(nil, a, b)
	ac = a.Clone()
	if got, err := SubInto(ac, ac, b); err != nil || !Equal(wantSub, got) {
		t.Errorf("SubInto(dst=a): err=%v equal=%v", err, Equal(wantSub, got))
	}

	wantScale := Scale(-3, a)
	ac = a.Clone()
	if got := ScaleInto(ac, -3, ac); !Equal(wantScale, got) {
		t.Error("ScaleInto(dst=a) differs")
	}

	x := randVec(rng, 5)
	y := randVec(rng, 5)
	wantV := AddVec(x, y)
	xc := append([]float64{}, x...)
	AddVecInto(xc, xc, y)
	for i := range wantV {
		if xc[i] != wantV[i] {
			t.Errorf("AddVecInto alias [%d] = %g, want %g", i, xc[i], wantV[i])
		}
	}
}

// TestReuseDenseIdentity checks that destinations keep their *Dense identity
// and reuse backing storage when capacity allows.
func TestReuseDenseIdentity(t *testing.T) {
	d := Zeros(6, 6)
	data := &d.data[0]
	got := ReuseDense(d, 3, 4)
	if got != d {
		t.Fatal("ReuseDense returned a different *Dense")
	}
	if got.Rows() != 3 || got.Cols() != 4 {
		t.Fatalf("ReuseDense shape %dx%d, want 3x4", got.Rows(), got.Cols())
	}
	if &got.data[0] != data {
		t.Error("ReuseDense reallocated despite sufficient capacity")
	}
	for _, v := range got.data {
		if v != 0 {
			t.Fatal("ReuseDense left non-zero entries")
		}
	}
	// Growth beyond capacity must still keep identity.
	got2 := ReuseDense(d, 10, 10)
	if got2 != d {
		t.Error("ReuseDense growth changed identity")
	}
	if got2.Rows() != 10 || got2.Cols() != 10 {
		t.Errorf("ReuseDense growth shape %dx%d", got2.Rows(), got2.Cols())
	}
}

func TestGrowVec(t *testing.T) {
	buf := make([]float64, 2, 8)
	got := GrowVec(buf, 5)
	if len(got) != 5 {
		t.Fatalf("GrowVec len %d, want 5", len(got))
	}
	if &got[0] != &buf[0] {
		t.Error("GrowVec reallocated despite capacity")
	}
	got = GrowVec(buf, 20)
	if len(got) != 20 {
		t.Fatalf("GrowVec len %d, want 20", len(got))
	}
}

// TestFactorInPlaceMatches pins that the reusable Factor methods produce
// solves bit-identical to the allocating factorizations, including across
// repeated refactorizations of differently-sized systems.
func TestFactorInPlaceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var lu LU
	var ch Cholesky
	for _, n := range []int{5, 3, 7, 7, 2} {
		a := randDense(rng, n, n)
		for i := 0; i < n; i++ { // diagonally dominate for stable LU
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := randVec(rng, n)

		fRef, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := lu.Factor(a); err != nil {
			t.Fatal(err)
		}
		want, err := fRef.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		if err := lu.SolveVecInto(dst, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Errorf("n=%d LU SolveVecInto[%d] = %g, want %g", n, i, dst[i], want[i])
			}
		}
		if !Equal(fRef.lu, lu.lu) {
			t.Errorf("n=%d reused LU factor differs from a fresh one", n)
		}

		// SPD matrix: AᵀA + n·I.
		at := a.T()
		spd, err := Mul(at, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+float64(n))
		}
		cRef, err := FactorCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Factor(spd); err != nil {
			t.Fatal(err)
		}
		wantC, err := cRef.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		// Alias dst with b: documented as safe for Cholesky.
		aliased := append([]float64{}, b...)
		if err := ch.SolveVecInto(aliased, aliased); err != nil {
			t.Fatal(err)
		}
		for i := range wantC {
			if wantC[i] != aliased[i] {
				t.Errorf("n=%d chol SolveVecInto alias [%d] = %g, want %g", n, i, aliased[i], wantC[i])
			}
		}
	}
}

// TestIntoKernelShapeErrors checks the kernels reject mismatched shapes with
// the same sentinel as the allocating path.
func TestIntoKernelShapeErrors(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(2, 3)
	if _, err := MulInto(nil, a, b); err == nil {
		t.Error("MulInto accepted 2x3 * 2x3")
	}
	if _, err := AddInto(nil, a, Zeros(3, 2)); err == nil {
		t.Error("AddInto accepted 2x3 + 3x2")
	}
	if err := MulVecInto(make([]float64, 2), a, make([]float64, 2)); err == nil {
		t.Error("MulVecInto accepted bad x length")
	}
	if err := MulVecInto(make([]float64, 1), a, make([]float64, 3)); err == nil {
		t.Error("MulVecInto accepted bad dst length")
	}
	if err := MulTVecInto(make([]float64, 3), a, make([]float64, 3)); err == nil {
		t.Error("MulTVecInto accepted bad x length")
	}
	var lu LU
	if err := lu.Factor(Zeros(2, 3)); err == nil {
		t.Error("LU.Factor accepted non-square")
	}
	var ch Cholesky
	if err := ch.Factor(Zeros(2, 3)); err == nil {
		t.Error("Cholesky.Factor accepted non-square")
	}
}

// TestMatOpsAllocFree spot-checks that the Into kernels with warm
// destinations stay off the heap.
func TestMatOpsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randDense(rng, 6, 6)
	b := randDense(rng, 6, 6)
	x := randVec(rng, 6)
	dst := Zeros(6, 6)
	vdst := make([]float64, 6)
	var lu LU
	if err := lu.Factor(a); err == nil {
		// fine; singularity is astronomically unlikely with this seed
	}
	// A 144-variable SPD system, the grid-c8n6 QP's size: the row-streaming
	// back sweep.
	const ns = 144
	spd := randDense(rng, ns, ns)
	for i := 0; i < ns; i++ {
		for j := 0; j < i; j++ {
			spd.data[j*ns+i] = spd.data[i*ns+j]
		}
		spd.data[i*ns+i] = 4 * ns
	}
	xs := randVec(rng, ns)
	sdst := make([]float64, ns)
	var ch Cholesky
	if err := ch.Factor(spd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if err := MulVecInto(vdst, a, x); err != nil {
			t.Fatal(err)
		}
		if _, err := AddInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		ScaleInto(dst, 2, a)
		if err := lu.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := lu.SolveVecInto(vdst, x); err != nil {
			t.Fatal(err)
		}
		if err := ch.Factor(spd); err != nil {
			t.Fatal(err)
		}
		if err := ch.SolveVecInto(sdst, xs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Into kernels allocated %v allocs/run, want 0", allocs)
	}
}
