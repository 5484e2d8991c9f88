package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randomFeasibleLP builds a random LP with a known feasible point: demands
// are A·x₀ for a random nonnegative x₀, inequalities get slack on top, so
// phase 1 always succeeds and boundedness comes from nonnegativity plus a
// box row. Mirrors the dense property-test construction.
func randomFeasibleLP(rng *rand.Rand, n, mEq, mUb int) *Problem {
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = rng.Float64() * 3
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = rng.NormFloat64()
	}
	p := &Problem{C: c}
	if mEq > 0 {
		aeq := mat.Zeros(mEq, n)
		beq := make([]float64, mEq)
		for r := 0; r < mEq; r++ {
			var sum float64
			for j := 0; j < n; j++ {
				v := float64(rng.Intn(5))
				aeq.Set(r, j, v)
				sum += v * x0[j]
			}
			beq[r] = sum
		}
		p.Aeq, p.Beq = sparse(aeq), beq
	}
	// Box row Σx ≤ big keeps every problem bounded; extra ≤ rows get slack 1.
	aub := mat.Zeros(mUb+1, n)
	bub := make([]float64, mUb+1)
	for r := 0; r < mUb; r++ {
		var sum float64
		for j := 0; j < n; j++ {
			v := rng.Float64() * 2
			aub.Set(r, j, v)
			sum += v * x0[j]
		}
		bub[r] = sum + 1
	}
	for j := 0; j < n; j++ {
		aub.Set(mUb, j, 1)
	}
	bub[mUb] = 10 * float64(n)
	p.Aub, p.Bub = sparse(aub), bub
	return p
}

// TestRevisedMatchesDense runs both implementations on random feasible
// problems and requires matching objectives (the vertex can differ on
// degenerate optima; the optimal value cannot).
func TestRevisedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		mEq := rng.Intn(3)
		if mEq >= n {
			mEq = n - 1
		}
		p := randomFeasibleLP(rng, n, mEq, rng.Intn(4))
		dres, err := SolveMethod(p, DenseTableau)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		rres, err := SolveMethod(p, Revised)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if dres.Status != rres.Status {
			t.Fatalf("trial %d: status dense %v revised %v", trial, dres.Status, rres.Status)
		}
		if dres.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(dres.Obj)
		if math.Abs(dres.Obj-rres.Obj) > 1e-7*scale {
			t.Fatalf("trial %d: obj dense %g revised %g", trial, dres.Obj, rres.Obj)
		}
		// The revised X must itself be feasible for the original problem.
		checkFeasible(t, p, rres.X, trial)
		// Strong duality: obj = y_eqᵀ·beq + y_ubᵀ·bub at default bounds
		// (every nonbasic original variable rests at 0).
		var dual float64
		for r, y := range rres.DualsEq {
			dual += y * p.Beq[r]
		}
		for r, y := range rres.DualsUb {
			dual += y * p.Bub[r]
		}
		if math.Abs(dual-rres.Obj) > 1e-6*scale {
			t.Fatalf("trial %d: revised duals give %g, obj %g", trial, dual, rres.Obj)
		}
	}
}

func checkFeasible(t *testing.T, p *Problem, x []float64, trial int) {
	t.Helper()
	for j, v := range x {
		if v < p.lower(j)-1e-7 || v > p.upper(j)+1e-7 {
			t.Fatalf("trial %d: x[%d] = %g outside [%g, %g]", trial, j, v, p.lower(j), p.upper(j))
		}
	}
	if p.Aeq != nil {
		for r := 0; r < p.Aeq.Rows(); r++ {
			s := p.Aeq.RowDot(r, x)
			if math.Abs(s-p.Beq[r]) > 1e-6*(1+math.Abs(p.Beq[r])) {
				t.Fatalf("trial %d: eq row %d: %g want %g", trial, r, s, p.Beq[r])
			}
		}
	}
	if p.Aub != nil {
		for r := 0; r < p.Aub.Rows(); r++ {
			s := p.Aub.RowDot(r, x)
			if s > p.Bub[r]+1e-6*(1+math.Abs(p.Bub[r])) {
				t.Fatalf("trial %d: ub row %d: %g > %g", trial, r, s, p.Bub[r])
			}
		}
	}
}

// TestRevisedBoundsMatchRowEncoding solves bounded problems natively and
// against the same bounds written as Aub rows on the dense path: objectives
// must agree.
func TestRevisedBoundsMatchRowEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		p := randomFeasibleLP(rng, n, 0, rng.Intn(3))
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := range lo {
			lo[j] = rng.Float64() * 0.5
			hi[j] = lo[j] + 0.5 + rng.Float64()*4
		}
		bounded := &Problem{C: p.C, Aub: p.Aub, Bub: p.Bub, Lo: lo, Hi: hi}
		rres, err := Solve(bounded) // bounds force the revised path through Auto
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}

		// Dense encoding: x ≥ lo via −x ≤ −lo rows, x ≤ hi rows.
		rows := p.Aub.Rows()
		aub := mat.Zeros(rows+2*n, n)
		bub := make([]float64, rows+2*n)
		for r := 0; r < rows; r++ {
			p.Aub.ScatterRowInto(aub.RowView(r), r)
			bub[r] = p.Bub[r]
		}
		for j := 0; j < n; j++ {
			aub.Set(rows+j, j, -1)
			bub[rows+j] = -lo[j]
			aub.Set(rows+n+j, j, 1)
			bub[rows+n+j] = hi[j]
		}
		dres, err := SolveMethod(&Problem{C: p.C, Aub: sparse(aub), Bub: bub}, DenseTableau)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if dres.Status != rres.Status {
			t.Fatalf("trial %d: status dense %v revised %v", trial, dres.Status, rres.Status)
		}
		if dres.Status != Optimal {
			continue
		}
		if math.Abs(dres.Obj-rres.Obj) > 1e-7*(1+math.Abs(dres.Obj)) {
			t.Fatalf("trial %d: obj dense %g revised %g", trial, dres.Obj, rres.Obj)
		}
		checkFeasible(t, bounded, rres.X, trial)
	}
}

// TestRevisedBoundFlip pins the no-basis-change pivot: minimizing −x with
// 0 ≤ x ≤ 2 and no constraint rows sends x to its upper bound by a pure
// bound flip (there is no basis to change).
func TestRevisedBoundFlip(t *testing.T) {
	p := &Problem{C: []float64{-1, 1}, Lo: []float64{0, 0}, Hi: []float64{2, 3}}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]-2) > 1e-12 || math.Abs(res.X[1]) > 1e-12 {
		t.Fatalf("X = %v, want [2 0]", res.X)
	}
	if math.Abs(res.Obj+2) > 1e-12 {
		t.Fatalf("Obj = %g, want -2", res.Obj)
	}
}

// TestRevisedNonzeroLowerBounds exercises starts away from the origin: with
// lo = 2 on both variables and a joint cap, the optimum sits at the lower
// bounds for costly variables.
func TestRevisedNonzeroLowerBounds(t *testing.T) {
	// min x + 2y s.t. x + y ≥ 5 (as −x−y ≤ −5), 2 ≤ x,y ≤ 10.
	p := &Problem{
		C:   []float64{1, 2},
		Aub: sparse(mat.MustNew(1, 2, []float64{-1, -1})),
		Bub: []float64{-5},
		Lo:  []float64{2, 2},
		Hi:  []float64{10, 10},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]-3) > 1e-9 || math.Abs(res.X[1]-2) > 1e-9 {
		t.Fatalf("X = %v, want [3 2]", res.X)
	}
}

func TestRevisedInfeasible(t *testing.T) {
	// x + y = 10 with x, y ≤ 3.
	p := &Problem{
		C:   []float64{1, 1},
		Aeq: sparse(mat.MustNew(1, 2, []float64{1, 1})),
		Beq: []float64{10},
		Lo:  []float64{0, 0},
		Hi:  []float64{3, 3},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestRevisedUnbounded(t *testing.T) {
	p := &Problem{C: []float64{-1}, Lo: []float64{0}, Hi: []float64{math.Inf(1)}}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

// TestRevisedEtaRefactorization drives a solve through more pivots than the
// eta cap so at least one mid-solve refactorization happens, then checks
// optimality against the dense path. A transportation-style problem with
// many variables generates enough pivots.
func TestRevisedEtaRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 12 supplies × 12 demands transportation problem: 144 variables,
	// typically > refactorEvery pivots from a cold start.
	const k = 12
	n := k * k
	aeq := mat.Zeros(2*k, n)
	beq := make([]float64, 2*k)
	c := make([]float64, n)
	supply := make([]float64, k)
	total := 0.0
	for i := 0; i < k; i++ {
		supply[i] = 1 + rng.Float64()*4
		total += supply[i]
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			aeq.Set(i, i*k+j, 1)
			aeq.Set(k+j, i*k+j, 1)
			c[i*k+j] = 1 + rng.Float64()*9
		}
		beq[i] = supply[i]
	}
	for j := 0; j < k; j++ {
		beq[k+j] = total / float64(k)
	}
	p := &Problem{C: c, Aeq: sparse(aeq), Beq: beq}
	dres, err := SolveMethod(p, DenseTableau)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := SolveMethod(p, Revised)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Status != Optimal || dres.Status != Optimal {
		t.Fatalf("status revised %v dense %v", rres.Status, dres.Status)
	}
	if rres.Iterations <= refactorEvery {
		t.Skipf("only %d iterations; eta cap not exercised", rres.Iterations)
	}
	if math.Abs(dres.Obj-rres.Obj) > 1e-7*(1+math.Abs(dres.Obj)) {
		t.Fatalf("obj dense %g revised %g", dres.Obj, rres.Obj)
	}
	checkFeasible(t, p, rres.X, 0)
}

// TestSolverWarmRevised pins the stateful Solver's revised warm-start path:
// bounded problems retain revised state, cost-only changes re-solve warm
// with objectives matching a cold solve, and a bounds change falls back to
// cold.
func TestSolverWarmRevised(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randomFeasibleLP(rng, 6, 0, 2)
	p.Lo = make([]float64, 6)
	p.Hi = make([]float64, 6)
	for j := range p.Lo {
		p.Lo[j] = 0
		p.Hi[j] = 4 + rng.Float64()*4
	}
	var s Solver
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if warm, cold := s.Stats(); warm != 0 || cold != 1 {
		t.Fatalf("after first solve: warm %d cold %d", warm, cold)
	}
	if s.rv == nil {
		t.Fatal("bounded problem did not retain revised state")
	}
	for trial := 0; trial < 5; trial++ {
		for j := range p.C {
			p.C[j] = rng.NormFloat64()
		}
		wres, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if wres.Status != cres.Status {
			t.Fatalf("trial %d: warm %v cold %v", trial, wres.Status, cres.Status)
		}
		if cres.Status == Optimal && math.Abs(wres.Obj-cres.Obj) > 1e-7*(1+math.Abs(cres.Obj)) {
			t.Fatalf("trial %d: warm obj %g cold obj %g", trial, wres.Obj, cres.Obj)
		}
	}
	if warm, _ := s.Stats(); warm == 0 {
		t.Fatal("no warm resolves over the cost sweep")
	}
	// Changing a bound invalidates the snapshot → cold fallback.
	_, coldBefore := s.Stats()
	p.Hi[0] += 1
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if _, cold := s.Stats(); cold != coldBefore+1 {
		t.Fatalf("bounds change did not run cold: cold %d, want %d", cold, coldBefore+1)
	}
}

// TestValidateBounds is the regression test for dimension-mismatched and
// malformed bounds slices.
func TestValidateBounds(t *testing.T) {
	base := func() Problem { return Problem{C: []float64{1, 2, 3}} }
	tests := []struct {
		name string
		mut  func(*Problem)
	}{
		{"lo too short", func(p *Problem) { p.Lo = []float64{0} }},
		{"lo too long", func(p *Problem) { p.Lo = []float64{0, 0, 0, 0} }},
		{"hi too short", func(p *Problem) { p.Hi = []float64{1, 1} }},
		{"hi too long", func(p *Problem) { p.Hi = []float64{1, 1, 1, 1} }},
		{"nan lo", func(p *Problem) { p.Lo = []float64{0, math.NaN(), 0} }},
		{"nan hi", func(p *Problem) { p.Hi = []float64{1, 1, math.NaN()} }},
		{"infinite lo", func(p *Problem) { p.Lo = []float64{math.Inf(-1), 0, 0} }},
		{"neg infinite hi", func(p *Problem) { p.Hi = []float64{1, math.Inf(-1), 1} }},
		{"empty interval", func(p *Problem) {
			p.Lo = []float64{0, 2, 0}
			p.Hi = []float64{1, 1, 1}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mut(&p)
			if err := p.Validate(); !errors.Is(err, ErrBadProblem) {
				t.Fatalf("Validate = %v, want ErrBadProblem", err)
			}
		})
	}
	// Well-formed bounds pass.
	p := base()
	p.Lo = []float64{0, 0, 0}
	p.Hi = []float64{1, math.Inf(1), 3}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
}

// TestAutoDispatch pins the Auto method resolution.
func TestAutoDispatch(t *testing.T) {
	small := &Problem{C: make([]float64, 4)}
	small.C[0] = 1
	if m := methodFor(small, Auto); m != DenseTableau {
		t.Fatalf("small default-bound problem → %v, want DenseTableau", m)
	}
	big := &Problem{C: make([]float64, revisedMinVars)}
	if m := methodFor(big, Auto); m != Revised {
		t.Fatalf("%d-var problem → %v, want Revised", revisedMinVars, m)
	}
	bounded := &Problem{C: []float64{1}, Lo: []float64{0}, Hi: []float64{1}}
	if m := methodFor(bounded, Auto); m != Revised {
		t.Fatalf("bounded problem → %v, want Revised", m)
	}
	if _, err := SolveMethod(bounded, DenseTableau); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("dense tableau accepted bounds: %v", err)
	}
}
