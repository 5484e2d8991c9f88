package qp

import (
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/testenv"
)

// TestSolveWithSteadyStateAllocFree pins the tentpole property at the qp
// layer: once the workspace scratch has grown to the problem's steady size
// and the Schur caches are populated, re-solving the same problem structure
// allocates nothing.
func TestSolveWithSteadyStateAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(3))
	n := 6
	h, aeq, ain := workspaceFixture(r, n)
	q := make([]float64, n)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	bin := make([]float64, 2*n)
	for i := range bin {
		bin[i] = 2
	}
	x0 := make([]float64, n)
	p := &Problem{H: h, Q: q, Aeq: aeq, Beq: []float64{0}, Ain: ain, Bin: bin, X0: x0}
	ws := NewWorkspace()
	for i := 0; i < 3; i++ { // grow scratch, populate caches
		if _, err := SolveWith(p, ws); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SolveWith(p, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state SolveWith allocated %v allocs/run, want 0", allocs)
	}
}

// TestSolveWithFactorReuseAllocFree pins the miss path of the Schur factor
// cache: a warm workspace alternates two right-hand sides whose working
// sets differ after the equality rows, so every kktStep misses its slot
// and refactors from the prefix the slot's old factor shares with it. Once
// the scratch has grown, that path allocates nothing either.
func TestSolveWithFactorReuseAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// min ½‖x‖² − 2x₁ s.t. x₁ + x₂ + x₃ = 3, x ≤ bin, from [1 1 1], the
	// minimizer under both bins. Under binA rows 0 and 1 are active there
	// (row 1 with multiplier 0), under binB only row 0, so each solve is one
	// kktStep on a working set one row longer or shorter than the last.
	binA, binB := []float64{1, 1, 5}, []float64{1, 2, 5}
	p := &Problem{
		H: mat.Identity(3), Q: []float64{-2, 0, 0},
		Aeq: sparse(1, 3, 1, 1, 1), Beq: []float64{3},
		Ain: sparse(3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1), Bin: binA,
		X0: []float64{1, 1, 1},
	}
	ws := NewWorkspace()
	solve := func(bin []float64, wantIDs int) {
		p.Bin = bin
		res, err := SolveWith(p, ws)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 || res.X[0] != 1 || res.X[1] != 1 || res.X[2] != 1 {
			t.Fatalf("bin %v: X = %v after %d iterations, want [1 1 1] after 1", bin, res.X, res.Iterations)
		}
		if ids := ws.sfc.entries[0].ids; len(ws.sfc.entries) != 1 || len(ids) != wantIDs {
			t.Fatalf("bin %v: Schur slots %d, slot 0 ids %v; want 1 slot with %d ids", bin, len(ws.sfc.entries), ids, wantIDs)
		}
	}
	for i := 0; i < 3; i++ { // grow scratch, populate caches
		solve(binA, 3)
		solve(binB, 2)
	}
	allocs := testing.AllocsPerRun(20, func() {
		solve(binA, 3)
		solve(binB, 2)
	})
	if allocs != 0 {
		t.Errorf("alternating SolveWith allocated %v allocs/run, want 0", allocs)
	}
}

// TestPhase1RowsBuiltOncePerWorkspace pins the phase-1 row cache: once a
// workspace has run the phase-1 LP, a later infeasible-start solve through
// it allocates exactly what that LP's own solve allocates. findFeasible
// builds no rows, cost or start vector again, and the rows keep their
// storage.
func TestPhase1RowsBuiltOncePerWorkspace(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const c, nIDC, b2 = 5, 3, 3
	r := rand.New(rand.NewSource(14))
	h, aeq, ain := mpcShapedFixture(r, c, nIDC, b2)
	p := mpcShapedProblem(r, h, aeq, ain, b2)
	for s := 0; s < b2; s++ {
		for i := 0; i < c; i++ {
			p.Beq[s*c+i] = 1.5 * p.Bin[i*nIDC]
		}
	}
	if p.feasible(p.X0, featol) {
		t.Fatal("the zero start is feasible; the solve would skip phase 1")
	}
	ws := NewWorkspace()
	solve := func() {
		if _, err := SolveWith(p, ws); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	solve()
	rows, _ := ws.ph1.eq.RowNNZ(0)
	got := testing.AllocsPerRun(20, solve)
	ph1 := lp.Problem{C: ws.ph1.cost, Aeq: &ws.ph1.eq, Beq: p.Beq, Aub: &ws.ph1.in, Bub: p.Bin}
	want := testing.AllocsPerRun(20, func() {
		if res, err := lp.Solve(&ph1); err != nil || res.Status != lp.Optimal {
			t.Fatalf("phase-1 LP: %v / %v", res, err)
		}
	})
	if got != want {
		t.Errorf("infeasible-start SolveWith allocated %v allocs/run, its phase-1 LP %v", got, want)
	}
	if again, _ := ws.ph1.eq.RowNNZ(0); &again[0] != &rows[0] {
		t.Error("a later solve rebuilt the phase-1 rows")
	}
}
