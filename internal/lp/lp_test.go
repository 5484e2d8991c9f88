package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// sparse compresses a dense fixture into the rows Problem takes; nil stays
// nil.
func sparse(d *mat.Dense) *mat.SparseRows {
	if d == nil {
		return nil
	}
	return mat.SparseRowsFrom(d)
}

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("Solve status = %v, want optimal", res.Status)
	}
	return res
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Problem
	}{
		{"empty cost", Problem{}},
		{"aeq cols", Problem{C: []float64{1}, Aeq: sparse(mat.Zeros(1, 2)), Beq: []float64{1}}},
		{"aeq rows", Problem{C: []float64{1}, Aeq: sparse(mat.Zeros(2, 1)), Beq: []float64{1}}},
		{"aub cols", Problem{C: []float64{1}, Aub: sparse(mat.Zeros(1, 2)), Bub: []float64{1}}},
		{"beq without aeq", Problem{C: []float64{1}, Beq: []float64{1}}},
		{"nan cost", Problem{C: []float64{math.NaN()}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); !errors.Is(err, ErrBadProblem) {
				t.Fatalf("Validate = %v, want ErrBadProblem", err)
			}
		})
	}
}

func TestSimpleInequality(t *testing.T) {
	// max x+y s.t. x+2y ≤ 4, 3x+y ≤ 6 → min -(x+y); optimum at (1.6, 1.2).
	p := &Problem{
		C:   []float64{-1, -1},
		Aub: sparse(mat.MustNew(2, 2, []float64{1, 2, 3, 1})),
		Bub: []float64{4, 6},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1.6) > 1e-9 || math.Abs(res.X[1]-1.2) > 1e-9 {
		t.Fatalf("X = %v, want [1.6 1.2]", res.X)
	}
	if math.Abs(res.Obj-(-2.8)) > 1e-9 {
		t.Fatalf("Obj = %v, want -2.8", res.Obj)
	}
}

func TestEqualityOnly(t *testing.T) {
	// min 2x+3y s.t. x+y = 10 → (10, 0), obj 20.
	p := &Problem{
		C:   []float64{2, 3},
		Aeq: sparse(mat.MustNew(1, 2, []float64{1, 1})),
		Beq: []float64{10},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-10) > 1e-9 || math.Abs(res.X[1]) > 1e-9 {
		t.Fatalf("X = %v, want [10 0]", res.X)
	}
}

func TestMixedConstraints(t *testing.T) {
	// min x1+2x2+3x3 s.t. x1+x2+x3 = 6, x1 ≤ 2, x2 ≤ 3.
	// Optimum: x1=2, x2=3, x3=1 → 2+6+3 = 11.
	p := &Problem{
		C:   []float64{1, 2, 3},
		Aeq: sparse(mat.MustNew(1, 3, []float64{1, 1, 1})),
		Beq: []float64{6},
		Aub: sparse(mat.MustNew(2, 3, []float64{1, 0, 0, 0, 1, 0})),
		Bub: []float64{2, 3},
	}
	res := solveOK(t, p)
	want := []float64{2, 3, 1}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-8 {
			t.Fatalf("X = %v, want %v", res.X, want)
		}
	}
	if math.Abs(res.Obj-11) > 1e-8 {
		t.Fatalf("Obj = %v, want 11", res.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x = 5 and x ≤ 2 conflict.
	p := &Problem{
		C:   []float64{1},
		Aeq: sparse(mat.MustNew(1, 1, []float64{1})),
		Beq: []float64{5},
		Aub: sparse(mat.MustNew(1, 1, []float64{1})),
		Bub: []float64{2},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleNegativeRHSOnly(t *testing.T) {
	// x ≤ -1 with x ≥ 0 is infeasible.
	p := &Problem{
		C:   []float64{1},
		Aub: sparse(mat.MustNew(1, 1, []float64{1})),
		Bub: []float64{-1},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x ≥ 0: unbounded below.
	p := &Problem{
		C:   []float64{-1},
		Aub: sparse(mat.MustNew(1, 1, []float64{-1})),
		Bub: []float64{0},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestDegenerateCycling(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate.
	p := &Problem{
		C: []float64{-0.75, 150, -0.02, 6},
		Aub: sparse(mat.MustNew(3, 4, []float64{
			0.25, -60, -1.0 / 25, 9,
			0.5, -90, -1.0 / 50, 3,
			0, 0, 1, 0,
		})),
		Bub: []float64{0, 0, 1},
	}
	res := solveOK(t, p)
	if math.Abs(res.Obj-(-0.05)) > 1e-6 {
		t.Fatalf("Obj = %v, want -0.05", res.Obj)
	}
}

// transportLP builds BenchmarkSimplexScaling's transportation LP: c supply
// rows (Σ_j x_ij = 10 + i) over n demand columns, each column capped (never
// bindingly) at the total supply, with costs cycling through 1…13.
func transportLP(c, n int) *Problem {
	nv := c * n
	cost := make([]float64, nv)
	for k := range cost {
		cost[k] = float64((k*7)%13 + 1)
	}
	aeq := mat.Zeros(c, nv)
	beq := make([]float64, c)
	var total float64
	for i := 0; i < c; i++ {
		for j := 0; j < n; j++ {
			aeq.Set(i, i*n+j, 1)
		}
		beq[i] = float64(10 + i)
		total += beq[i]
	}
	aub := mat.Zeros(n, nv)
	bub := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < c; i++ {
			aub.Set(j, i*n+j, 1)
		}
		bub[j] = total
	}
	return &Problem{C: cost, Aeq: sparse(aeq), Beq: beq, Aub: sparse(aub), Bub: bub}
}

// checkCertificate requires res to be Optimal, primal feasible to 1e-7 and
// to satisfy strong duality, Σ DualsEq·Beq + Σ DualsUb·Bub = Obj, to 1e-6
// relative.
func checkCertificate(t *testing.T, what string, p *Problem, res *Result) {
	t.Helper()
	if res.Status != Optimal {
		t.Fatalf("%s: status %v, want optimal", what, res.Status)
	}
	for j, v := range res.X {
		if v < -1e-7 {
			t.Fatalf("%s: X[%d] = %g < 0", what, j, v)
		}
	}
	for r, b := range p.Beq {
		if got := p.Aeq.RowDot(r, res.X); math.Abs(got-b) > 1e-7*(1+math.Abs(b)) {
			t.Fatalf("%s: equality row %d reads %g, want %g", what, r, got, b)
		}
	}
	for r, b := range p.Bub {
		if got := p.Aub.RowDot(r, res.X); got > b+1e-7*(1+math.Abs(b)) {
			t.Fatalf("%s: inequality row %d reads %g > %g", what, r, got, b)
		}
	}
	var dual float64
	for r, y := range res.DualsEq {
		dual += y * p.Beq[r]
	}
	for r, y := range res.DualsUb {
		dual += y * p.Bub[r]
	}
	if math.Abs(dual-res.Obj) > 1e-6*math.Max(1, math.Abs(res.Obj)) {
		t.Fatalf("%s: duals give %g, objective %g", what, dual, res.Obj)
	}
}

// TestTransportationProblem solves transportation LPs cold through Solve
// and then warm through a Solver after a cost change that moves the
// optimum, checking each result's objective, feasibility and strong
// duality. The C50×N20 case has 1000 variables: the size of the pinned
// SimplexScaling benchmark line.
func TestTransportationProblem(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
		want float64
	}{
		// 2 sources (supply 20, 30) × 2 sinks (demand 25, 25), costs
		// [[1 3],[2 1]]. Optimal: x11=20, x21=5, x22=25 → 20+10+25 = 55.
		{"2x2", &Problem{
			C: []float64{1, 3, 2, 1},
			Aeq: sparse(mat.MustNew(4, 4, []float64{
				1, 1, 0, 0, // supply 1
				0, 0, 1, 1, // supply 2
				1, 0, 1, 0, // demand 1
				0, 1, 0, 1, // demand 2
			})),
			Beq: []float64{20, 30, 25, 25},
		}, 55},
		// Every supply row has a cost-1 column, so the optimum ships all
		// 1725 units at cost 1.
		{"C50xN20", transportLP(50, 20), 1725},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			res := solveOK(t, p)
			if math.Abs(res.Obj-tc.want) > 1e-8*tc.want {
				t.Fatalf("Obj = %v, want %v", res.Obj, tc.want)
			}
			checkCertificate(t, "cold", p, res)

			var s Solver
			if _, err := s.Solve(p); err != nil {
				t.Fatal(err)
			}
			// Reversing the cost order makes each source's cheapest
			// route its dearest, so the optimum must move.
			q := *p
			q.C = make([]float64, len(p.C))
			for k, v := range p.C {
				q.C[k] = 14 - v
			}
			warm, err := s.Solve(&q)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := s.Stats(); w != 1 {
				t.Fatalf("the cost change did not resolve warm: %d warm solves", w)
			}
			checkCertificate(t, "warm", &q, warm)
			cold := solveOK(t, &q)
			if math.Abs(warm.Obj-cold.Obj) > 1e-9*math.Abs(cold.Obj) {
				t.Fatalf("warm Obj %v, cold Obj %v", warm.Obj, cold.Obj)
			}
			moved := false
			for k := range res.X {
				if math.Abs(warm.X[k]-res.X[k]) > 1e-7 {
					moved = true
				}
			}
			if !moved {
				t.Fatal("the cost change left the optimum where it was")
			}
		})
	}
}

// referenceLPShape mirrors the paper's eq. (46): minimize Σj Prj(b1·λj+b0·mj)
// over λij ≥ 0 and mj with conservation and latency constraints. This guards
// the exact encoding used by internal/alloc.
func TestReferenceLPShape(t *testing.T) {
	// 2 portals (L = 10, 6), 2 IDCs (µ = 2, 1; M = 8, 20; price 5, 1).
	// Variables: λ11 λ12 λ21 λ22 m1 m2.
	// Latency term 1/(µD) folded to zero here for readability.
	b1, b0 := 1.0, 10.0
	pr := []float64{5, 1}
	c := []float64{
		pr[0] * b1, pr[1] * b1, pr[0] * b1, pr[1] * b1,
		pr[0] * b0, pr[1] * b0,
	}
	aeq := mat.MustNew(2, 6, []float64{
		1, 1, 0, 0, 0, 0,
		0, 0, 1, 1, 0, 0,
	})
	beq := []float64{10, 6}
	// Capacity: λ1j + λ2j − µj·mj ≤ 0; mj ≤ Mj.
	aub := mat.MustNew(4, 6, []float64{
		1, 0, 1, 0, -2, 0,
		0, 1, 0, 1, 0, -1,
		0, 0, 0, 0, 1, 0,
		0, 0, 0, 0, 0, 1,
	})
	bub := []float64{0, 0, 8, 20}
	res := solveOK(t, &Problem{C: c, Aeq: sparse(aeq), Beq: beq, Aub: sparse(aub), Bub: bub})
	// Everything should go to the cheap IDC 2 (price 1, µ=1, capacity 20).
	lam2 := res.X[1] + res.X[3]
	if math.Abs(lam2-16) > 1e-7 {
		t.Fatalf("cheap-IDC load = %v, want 16 (X=%v)", lam2, res.X)
	}
	if math.Abs(res.X[5]-16) > 1e-7 {
		t.Fatalf("m2 = %v, want 16", res.X[5])
	}
}

// TestPropertyFeasibilityAndLocalOptimality solves random feasible LPs and
// checks (a) returned points satisfy all constraints, and (b) the objective
// is no worse than a batch of random feasible alternatives.
func TestPropertyFeasibilityAndLocalOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		mUb := 1 + r.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = r.NormFloat64()
		}
		aub := mat.Zeros(mUb, n)
		bub := make([]float64, mUb)
		for i := 0; i < mUb; i++ {
			for j := 0; j < n; j++ {
				aub.Set(i, j, r.Float64()) // nonnegative rows keep it bounded
			}
			bub[i] = 1 + 5*r.Float64()
		}
		// Add sum(x) ≤ K to guarantee boundedness.
		full := mat.Zeros(mUb+1, n)
		full.SetBlock(0, 0, aub)
		for j := 0; j < n; j++ {
			full.Set(mUb, j, 1)
		}
		bubFull := append(append([]float64{}, bub...), 10)
		p := &Problem{C: c, Aub: sparse(full), Bub: bubFull}
		res, err := Solve(p)
		if err != nil || res.Status != Optimal {
			return false
		}
		// Feasibility.
		ax, _ := mat.MulVec(full, res.X)
		for i := range bubFull {
			if ax[i] > bubFull[i]+1e-6 {
				return false
			}
		}
		for _, v := range res.X {
			if v < -1e-9 {
				return false
			}
		}
		// Compare with random feasible points (rejection sampling).
		for k := 0; k < 30; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = r.Float64() * 2
			}
			ax, _ := mat.MulVec(full, x)
			ok := true
			for i := range bubFull {
				if ax[i] > bubFull[i] {
					ok = false
					break
				}
			}
			if ok && mat.Dot(c, x) < res.Obj-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWeakDuality checks cᵀx* ≥ bᵀy for dual-feasible y sampled via
// the equality-form dual of problems with only ≤ constraints:
// max bᵀy s.t. Aᵀy ≤ c, y ≤ 0. We verify with y = 0 (always dual feasible
// when c ≥ 0) giving cᵀx* ≥ 0, plus structural spot checks.
func TestPropertyWeakDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = r.Float64() // nonnegative costs
		}
		a := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			a.Set(0, j, 1)
		}
		p := &Problem{C: c, Aeq: sparse(a), Beq: []float64{5}}
		res, err := Solve(p)
		if err != nil || res.Status != Optimal {
			return false
		}
		// Optimum must equal 5·min(c): all mass on the cheapest variable.
		minC := c[0]
		for _, v := range c {
			if v < minC {
				minC = v
			}
		}
		return math.Abs(res.Obj-5*minC) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Optimal:        "optimal",
		Infeasible:     "infeasible",
		Unbounded:      "unbounded",
		IterationLimit: "iteration limit",
		Status(99):     "Status(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows force redundant-row handling in phase 1.
	p := &Problem{
		C: []float64{1, 1},
		Aeq: sparse(mat.MustNew(3, 2, []float64{
			1, 1,
			1, 1,
			2, 2,
		})),
		Beq: []float64{4, 4, 8},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]+res.X[1]-4) > 1e-8 {
		t.Fatalf("X = %v, want sum 4", res.X)
	}
}

func TestZeroObjectiveFeasibilityProblem(t *testing.T) {
	// Pure feasibility: min 0 s.t. x1+x2 = 3, x1 ≤ 1.
	p := &Problem{
		C:   []float64{0, 0},
		Aeq: sparse(mat.MustNew(1, 2, []float64{1, 1})),
		Beq: []float64{3},
		Aub: sparse(mat.MustNew(1, 2, []float64{1, 0})),
		Bub: []float64{1},
	}
	res := solveOK(t, p)
	if res.X[0] > 1+1e-9 || math.Abs(res.X[0]+res.X[1]-3) > 1e-8 {
		t.Fatalf("X = %v violates constraints", res.X)
	}
}
