package lp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/testenv"
)

// refLPProblem builds a reference-allocation-shaped LP: n sources sharing one
// conservation equality plus per-source capacity bounds, with hour-dependent
// prices. Structurally this is eq. (46): only C moves between hours.
func refLPProblem(t *testing.T, hour int) *Problem {
	t.Helper()
	const n = 6
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		// Diurnal price shapes, phase-shifted per "region".
		c[i] = 40 + 15*math.Sin(2*math.Pi*(float64(hour)+3*float64(i))/24) + 2*float64(i%3)
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	aeq, err := mat.New(1, n, ones)
	if err != nil {
		t.Fatal(err)
	}
	aub := mat.Identity(n)
	bub := make([]float64, n)
	for i := range bub {
		bub[i] = 3 + 0.5*float64(i)
	}
	return &Problem{C: c, Aeq: sparse(aeq), Beq: []float64{12}, Aub: sparse(aub), Bub: bub}
}

// TestSolverWarmMatchesColdOverPriceSweep runs a 24 h price sweep through one
// persistent Solver and pins warm results against fresh cold solves to 1e-9.
func TestSolverWarmMatchesColdOverPriceSweep(t *testing.T) {
	var s Solver
	for hour := 0; hour < 24; hour++ {
		p := refLPProblem(t, hour)
		cold, err := Solve(p)
		if err != nil {
			t.Fatalf("hour %d: cold: %v", hour, err)
		}
		warm, err := s.Solve(p)
		if err != nil {
			t.Fatalf("hour %d: warm: %v", hour, err)
		}
		if cold.Status != Optimal || warm.Status != Optimal {
			t.Fatalf("hour %d: status cold=%v warm=%v", hour, cold.Status, warm.Status)
		}
		if d := math.Abs(cold.Obj - warm.Obj); d > 1e-9 {
			t.Errorf("hour %d: objective differs by %g", hour, d)
		}
		for i := range cold.X {
			if d := math.Abs(cold.X[i] - warm.X[i]); d > 1e-9 {
				t.Errorf("hour %d: X[%d] differs by %g", hour, i, d)
			}
		}
	}
	warm, cold := s.Stats()
	if cold != 1 || warm != 23 {
		t.Errorf("Stats() = (warm %d, cold %d), want (23, 1)", warm, cold)
	}
}

// TestSolverColdFallback checks every documented fallback trigger takes the
// cold path: constraint value change, constraint shape change, and a Reset.
func TestSolverColdFallback(t *testing.T) {
	var s Solver
	p := refLPProblem(t, 0)
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}

	// Cost-only change: warm.
	p2 := refLPProblem(t, 1)
	if _, err := s.Solve(p2); err != nil {
		t.Fatal(err)
	}
	if w, c := s.Stats(); w != 1 || c != 1 {
		t.Fatalf("after cost change: stats (%d,%d), want (1,1)", w, c)
	}

	// RHS value change: cold.
	p3 := refLPProblem(t, 2)
	p3.Beq = []float64{11}
	res, err := s.Solve(p3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("rhs change: status %v", res.Status)
	}
	if w, c := s.Stats(); w != 1 || c != 2 {
		t.Fatalf("after rhs change: stats (%d,%d), want (1,2)", w, c)
	}
	ref, _ := Solve(p3)
	if math.Abs(ref.Obj-res.Obj) > 1e-9 {
		t.Errorf("rhs change: obj %g vs cold %g", res.Obj, ref.Obj)
	}

	// Constraint matrix value change: cold.
	p4 := refLPProblem(t, 3)
	p4.Beq = []float64{11}
	aub := mat.Identity(len(p4.C))
	aub.Set(0, 0, 2)
	p4.Aub = sparse(aub)
	if _, err := s.Solve(p4); err != nil {
		t.Fatal(err)
	}
	if w, c := s.Stats(); w != 1 || c != 3 {
		t.Fatalf("after Aub change: stats (%d,%d), want (1,3)", w, c)
	}

	// Shape change (extra inequality row): cold.
	p5 := refLPProblem(t, 4)
	p5.Beq = []float64{11}
	rows := aub.Rows()
	grown := mat.Zeros(rows+1, aub.Cols())
	grown.SetBlock(0, 0, aub)
	for j := 0; j < aub.Cols(); j++ {
		grown.Set(rows, j, 1)
	}
	p5.Aub = sparse(grown)
	p5.Bub = append(append([]float64{}, p5.Bub...), 100)
	if _, err := s.Solve(p5); err != nil {
		t.Fatal(err)
	}
	if w, c := s.Stats(); w != 1 || c != 4 {
		t.Fatalf("after shape change: stats (%d,%d), want (1,4)", w, c)
	}

	// Reset: cold even with an identical problem.
	s.Reset()
	if _, err := s.Solve(p5); err != nil {
		t.Fatal(err)
	}
	if w, c := s.Stats(); w != 1 || c != 5 {
		t.Fatalf("after Reset: stats (%d,%d), want (1,5)", w, c)
	}
}

// TestSolverSnapshotIsDeepCopy ensures the solver does not warm-start against
// a caller-mutated matrix it aliases: mutating the caller's Aub after a solve
// must be detected as a constraint change.
func TestSolverSnapshotIsDeepCopy(t *testing.T) {
	var s Solver
	p := refLPProblem(t, 0)
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	// Mutate in place — same *SparseRows, same storage — as a caller that
	// keeps the slices it gave mat.MakeSparseRows may.
	_, val := p.Aub.RowNNZ(0)
	val[0] = 5
	res, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if w, c := s.Stats(); w != 0 || c != 2 {
		t.Fatalf("in-place mutation not detected: stats (%d,%d), want (0,2)", w, c)
	}
	ref, _ := Solve(p)
	if math.Abs(ref.Obj-res.Obj) > 1e-9 {
		t.Errorf("obj %g vs cold %g", res.Obj, ref.Obj)
	}
}

// TestSolverDegenerateWarmStartEngagesBland warm-starts from a degenerate
// optimum (redundant binding constraints) with blandAfter forced below 0, so
// every warm pivot must go through Bland's rule, and checks the warm result
// still matches a cold solve. This pins the anti-cycling fallback on the warm
// path, where stalling on degenerate vertices is most likely.
func TestSolverDegenerateWarmStartEngagesBland(t *testing.T) {
	// Optimum of the first solve is x=(1,1), where x1≤1, x2≤1 and the
	// redundant x1+x2≤2 are all binding: a degenerate vertex.
	aub, err := mat.New(3, 2, []float64{1, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{C: []float64{-1, -1}, Aub: sparse(aub), Bub: []float64{1, 1, 2}}
	var s Solver
	first, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal {
		t.Fatalf("first solve: %v", first.Status)
	}

	// iterate() switches to Bland when its local pivot count exceeds
	// blandAfter; −1 forces the rule from the very first pivot.
	old := blandAfter
	blandAfter = -1
	defer func() { blandAfter = old }()

	// New cost moves the optimum to (0,1); the warm resolve must pivot away
	// from the degenerate vertex, under Bland's rule from the first pivot.
	p2 := &Problem{C: []float64{1, -1}, Aub: sparse(aub), Bub: []float64{1, 1, 2}}
	warm, err := s.Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm solve: %v", warm.Status)
	}
	if w, c := s.Stats(); w != 1 || c != 1 {
		t.Fatalf("stats (%d,%d), want (1,1)", w, c)
	}
	if s.t.blandPivots == 0 {
		t.Error("warm resolve took no Bland pivots despite blandAfter=0")
	}
	cold, err := Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cold.Obj-warm.Obj) > 1e-9 {
		t.Errorf("warm obj %g vs cold %g", warm.Obj, cold.Obj)
	}
	for i := range cold.X {
		if math.Abs(cold.X[i]-warm.X[i]) > 1e-9 {
			t.Errorf("X[%d]: warm %g vs cold %g", i, warm.X[i], cold.X[i])
		}
	}
}

// TestSolverWarmResolveAllocationBounded pins the warm path's allocation
// budget: only the Result and its four slices may allocate; tableau and cost
// scratch must be reused.
func TestSolverWarmResolveAllocationBounded(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var s Solver
	probs := make([]*Problem, 24)
	for h := range probs {
		probs[h] = refLPProblem(t, h)
	}
	if _, err := s.Solve(probs[0]); err != nil {
		t.Fatal(err)
	}
	// Warm up the cost scratch.
	if _, err := s.Solve(probs[1]); err != nil {
		t.Fatal(err)
	}
	h := 0
	allocs := testing.AllocsPerRun(50, func() {
		h++
		if _, err := s.Solve(probs[h%24]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm resolve allocated %v allocs/run, want ≤ 8", allocs)
	}
	warm, cold := s.Stats()
	if cold != 1 {
		t.Errorf("alloc loop fell back to cold %d times", cold-1)
	}
	if warm < 50 {
		t.Errorf("warm count %d, want ≥ 50", warm)
	}
}

// TestValidateRejectsNonFiniteRHS pins the Validate hardening: NaN/±Inf in
// Beq or Bub must be rejected, not silently pivoted on.
func TestValidateRejectsNonFiniteRHS(t *testing.T) {
	base := func() *Problem {
		aeq, _ := mat.New(1, 2, []float64{1, 1})
		aub := mat.Identity(2)
		return &Problem{C: []float64{1, 2}, Aeq: sparse(aeq), Beq: []float64{1}, Aub: sparse(aub), Bub: []float64{1, 1}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base problem invalid: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := base()
		p.Beq[0] = bad
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted Beq[0]=%v", bad)
		}
		p = base()
		p.Bub[1] = bad
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted Bub[1]=%v", bad)
		}
		p = base()
		p.C[0] = bad
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted C[0]=%v", bad)
		}
	}
}

// TestNonFiniteMatrixEntryRejected pins the matrix-entry half of the
// finiteness check: min −x with a NaN or ±Inf coefficient used to come
// back as Unbounded (Aub = [[NaN]]), Infeasible (Aeq = [[NaN]]) or Optimal
// at x = [0] (Aeq = [[+Inf]]), all with a nil error. Both Solve and
// Solver.Solve must now return ErrBadProblem naming the entry.
func TestNonFiniteMatrixEntryRejected(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		p          func(v float64) *Problem
	}{
		{"Aub", "Aub[0][0]", func(v float64) *Problem {
			return &Problem{C: []float64{-1}, Aub: sparse(mat.MustNew(1, 1, []float64{v})), Bub: []float64{1}}
		}},
		{"Aeq", "Aeq[0][0]", func(v float64) *Problem {
			return &Problem{C: []float64{-1}, Aeq: sparse(mat.MustNew(1, 1, []float64{v})), Beq: []float64{1}}
		}},
		{"Aeq/second row", "Aeq[1][2]", func(v float64) *Problem {
			return &Problem{
				C:   []float64{1, 1, 1},
				Aeq: sparse(mat.MustNew(2, 3, []float64{1, 0, 1, 0, 2, v})),
				Beq: []float64{1, 1},
			}
		}},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			name := fmt.Sprintf("%s=%v", tc.name, v)
			if _, err := Solve(tc.p(v)); !errors.Is(err, ErrBadProblem) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Solve error %v, want ErrBadProblem naming %s", name, err, tc.want)
			}
			var s Solver
			if _, err := s.Solve(tc.p(v)); !errors.Is(err, ErrBadProblem) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Solver.Solve error %v, want ErrBadProblem naming %s", name, err, tc.want)
			}
		}
		// The same problem with a finite entry still solves.
		if _, err := Solve(tc.p(1)); err != nil {
			t.Errorf("%s=1: %v", tc.name, err)
		}
	}
}
