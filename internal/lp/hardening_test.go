package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// TestPropertyScalingInvariance: scaling the objective by a positive
// constant must not change the argmin; scaling a constraint row and its rhs
// must not change the feasible set.
func TestPropertyScalingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = r.NormFloat64()
		}
		aeq := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			aeq.Set(0, j, 1)
		}
		base := &Problem{C: c, Aeq: sparse(aeq), Beq: []float64{7}}
		r1, err := Solve(base)
		if err != nil || r1.Status != Optimal {
			return false
		}
		// Scale objective by 3.5.
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = 3.5 * c[i]
		}
		r2, err := Solve(&Problem{C: cs, Aeq: sparse(aeq), Beq: []float64{7}})
		if err != nil || r2.Status != Optimal {
			return false
		}
		if math.Abs(r2.Obj-3.5*r1.Obj) > 1e-6*(1+math.Abs(r1.Obj)) {
			return false
		}
		// Scale the constraint row by 2.
		aeq2 := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			aeq2.Set(0, j, 2)
		}
		r3, err := Solve(&Problem{C: c, Aeq: sparse(aeq2), Beq: []float64{14}})
		if err != nil || r3.Status != Optimal {
			return false
		}
		return math.Abs(r3.Obj-r1.Obj) < 1e-6*(1+math.Abs(r1.Obj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTransportationOptimal verifies the simplex against a brute
// force over basic assignments on small transportation instances.
func TestPropertyTransportationOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// 2 supplies × 2 demands keeps brute force trivial.
		cost := [4]float64{}
		for i := range cost {
			cost[i] = 1 + 9*r.Float64()
		}
		s1 := 1 + 9*r.Float64()
		s2 := 1 + 9*r.Float64()
		d1 := r.Float64() * (s1 + s2)
		d2 := s1 + s2 - d1
		p := &Problem{
			C: cost[:],
			Aeq: sparse(mat.MustNew(4, 4, []float64{
				1, 1, 0, 0,
				0, 0, 1, 1,
				1, 0, 1, 0,
				0, 1, 0, 1,
			})),
			Beq: []float64{s1, s2, d1, d2},
		}
		res, err := Solve(p)
		if err != nil || res.Status != Optimal {
			return false
		}
		// Brute force: x11 parameterizes the whole solution.
		lo := math.Max(0, d1-s2)
		hi := math.Min(s1, d1)
		if lo > hi {
			return true // numerically infeasible corner; skip
		}
		best := math.Inf(1)
		for k := 0; k <= 1000; k++ {
			x11 := lo + (hi-lo)*float64(k)/1000
			x12 := s1 - x11
			x21 := d1 - x11
			x22 := s2 - x21
			if x12 < -1e-9 || x21 < -1e-9 || x22 < -1e-9 {
				continue
			}
			v := cost[0]*x11 + cost[1]*x12 + cost[2]*x21 + cost[3]*x22
			if v < best {
				best = v
			}
		}
		return res.Obj <= best+1e-6*(1+math.Abs(best))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyVariablesBoundedBox(t *testing.T) {
	// A larger instance: 40 variables, box + budget constraints.
	n := 40
	c := make([]float64, n)
	for i := range c {
		c[i] = float64((i*13)%17) - 8
	}
	aub := mat.Zeros(n+1, n)
	bub := make([]float64, n+1)
	for i := 0; i < n; i++ {
		aub.Set(i, i, 1)
		bub[i] = 1
	}
	for j := 0; j < n; j++ {
		aub.Set(n, j, 1)
	}
	bub[n] = 10 // Σx ≤ 10
	res, err := Solve(&Problem{C: c, Aub: sparse(aub), Bub: bub})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Optimum: put mass 1 on the 10 most negative costs.
	var want float64
	sorted := append([]float64{}, c...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i := 0; i < 10; i++ {
		if sorted[i] < 0 {
			want += sorted[i]
		}
	}
	if math.Abs(res.Obj-want) > 1e-6 {
		t.Fatalf("Obj = %g, want %g", res.Obj, want)
	}
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// Row normalization path: Aeq row with negative rhs.
	p := &Problem{
		C:   []float64{1, 1},
		Aeq: sparse(mat.MustNew(1, 2, []float64{-1, -1})),
		Beq: []float64{-5},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]+res.X[1]-5) > 1e-8 {
		t.Fatalf("X = %v", res.X)
	}
}

func TestIterationsReported(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, -1},
		Aub: sparse(mat.MustNew(2, 2, []float64{1, 2, 3, 1})),
		Bub: []float64{4, 6},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Iterations <= 0 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
}

func TestDualsKnownProblem(t *testing.T) {
	// min -(x+y) s.t. x+2y ≤ 4, 3x+y ≤ 6. Optimum (1.6, 1.2), obj -2.8.
	// Duals from  yᵀA = cᵀ on the active set: y = (-0.4, -0.2) in the
	// minimization sign convention (obj decreases as capacity grows).
	p := &Problem{
		C:   []float64{-1, -1},
		Aub: sparse(mat.MustNew(2, 2, []float64{1, 2, 3, 1})),
		Bub: []float64{4, 6},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(res.DualsUb) != 2 {
		t.Fatalf("DualsUb = %v", res.DualsUb)
	}
	want := []float64{-0.4, -0.2}
	for i := range want {
		if math.Abs(res.DualsUb[i]-want[i]) > 1e-9 {
			t.Fatalf("DualsUb = %v, want %v", res.DualsUb, want)
		}
	}
	// Strong duality: obj = Σ y·b.
	total := res.DualsUb[0]*4 + res.DualsUb[1]*6
	if math.Abs(total-res.Obj) > 1e-9 {
		t.Fatalf("bᵀy = %g, obj = %g", total, res.Obj)
	}
}

func TestDualsEqualityShadowPrice(t *testing.T) {
	// min 2x+3y s.t. x+y = 10: optimum all-x, shadow price = 2 (the cheaper
	// coefficient): one more unit of demand costs $2.
	p := &Problem{
		C:   []float64{2, 3},
		Aeq: sparse(mat.MustNew(1, 2, []float64{1, 1})),
		Beq: []float64{10},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(res.DualsEq) != 1 || math.Abs(res.DualsEq[0]-2) > 1e-9 {
		t.Fatalf("DualsEq = %v, want [2]", res.DualsEq)
	}
}

// TestPropertyStrongDuality perturbs Beq and verifies the dual predicts the
// objective change to first order.
func TestPropertyStrongDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = 1 + 9*r.Float64() // positive costs keep it bounded
		}
		aeq := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			aeq.Set(0, j, 1)
		}
		b0 := 5 + 5*r.Float64()
		r1, err := Solve(&Problem{C: c, Aeq: sparse(aeq), Beq: []float64{b0}})
		if err != nil || r1.Status != Optimal {
			return false
		}
		eps := 0.01
		r2, err := Solve(&Problem{C: c, Aeq: sparse(aeq), Beq: []float64{b0 + eps}})
		if err != nil || r2.Status != Optimal {
			return false
		}
		predicted := r1.Obj + r1.DualsEq[0]*eps
		return math.Abs(r2.Obj-predicted) < 1e-6*(1+math.Abs(r2.Obj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
