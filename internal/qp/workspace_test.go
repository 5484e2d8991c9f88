package qp

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// workspaceFixture builds an SPD Hessian with one equality (Σx = b) and box
// inequalities — the same constraint structure across solves, as the
// Workspace contract requires.
func workspaceFixture(r *rand.Rand, n int) (h *mat.Dense, aeq, ain *mat.SparseRows) {
	m := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	mt, _ := mat.Mul(m.T(), m)
	h, _ = mat.Add(mt, mat.Identity(n))
	eq := mat.Zeros(1, n)
	for j := 0; j < n; j++ {
		eq.Set(0, j, 1)
	}
	in := mat.Zeros(2*n, n)
	for i := 0; i < n; i++ {
		in.Set(i, i, 1)
		in.Set(n+i, i, -1)
	}
	return h, mat.SparseRowsFrom(eq), mat.SparseRowsFrom(in)
}

// TestSolveWithWorkspaceBitIdentical re-solves one problem structure with
// fresh right-hand sides, linear terms and starts, sharing a Workspace —
// exactly the MPC's fast-loop pattern — and requires every solution to
// match the cold Solve bit for bit. The box fixture changes the active set
// from solve to solve; the MPC-shaped one makes many kktStep calls per solve
// with rows inserted mid-sequence, the case in which a Schur factor miss
// starts from the previous call's factor and the Schur slots are trimmed
// between solves of different lengths.
func TestSolveWithWorkspaceBitIdentical(t *testing.T) {
	t.Run("box", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		n := 6
		h, aeq, ain := workspaceFixture(r, n)
		ws := NewWorkspace()
		for trial := 0; trial < 25; trial++ {
			q := make([]float64, n)
			for i := range q {
				q[i] = 3 * r.NormFloat64()
			}
			// Vary the box radius and the equality level so the active set
			// changes from solve to solve (exercising the prune/Schur caches
			// on differing working sets), keeping x0 = b/n · 1 feasible.
			radius := 1.0 + r.Float64()
			b := (2*r.Float64() - 1) * radius * float64(n) / 2
			bin := make([]float64, 2*n)
			for i := 0; i < n; i++ {
				bin[i] = radius
				bin[n+i] = radius
			}
			x0 := make([]float64, n)
			for i := range x0 {
				x0[i] = b / float64(n)
			}
			p := &Problem{H: h, Q: q, Aeq: aeq, Beq: []float64{b}, Ain: ain, Bin: bin, X0: x0}
			requireWarmMatchesCold(t, trial, p, ws)
		}
	})
	t.Run("mpc-shaped", func(t *testing.T) {
		const b2 = 3
		r := rand.New(rand.NewSource(5))
		h, aeq, ain := mpcShapedFixture(r, 2, 3, b2)
		mEq := aeq.Rows()
		ws := NewWorkspace()
		maxCalls, inserted := 0, false
		for trial := 0; trial < 30; trial++ {
			requireWarmMatchesCold(t, trial, mpcShapedProblem(r, h, aeq, ain, b2), ws)
			maxCalls = max(maxCalls, ws.sfc.call)
			ents := ws.sfc.entries
			for c := 1; c < len(ents); c++ {
				prev, cur := ents[c-1].ids, ents[c].ids
				k := commonPrefix(prev, cur)
				// A smaller id at the first divergence, after the equality
				// rows, is a row entering ahead of rows already in the set.
				if k >= mEq && k < len(prev) && k < len(cur) && cur[k] < prev[k] {
					inserted = true
				}
			}
		}
		if maxCalls < 5 {
			t.Errorf("longest solve made %d kktStep calls, want ≥ 5", maxCalls)
		}
		if !inserted {
			t.Error("no solve inserted a working-set row mid-sequence")
		}
	})
	t.Run("mpc-shaped-dropped-factors", func(t *testing.T) {
		// Drop the Schur factors between solves, as ctrl does when it hands
		// a workspace to a form sharing its H: they are refactored bit for
		// bit.
		const b2 = 3
		r := rand.New(rand.NewSource(5))
		h, aeq, ain := mpcShapedFixture(r, 2, 3, b2)
		ws := NewWorkspace()
		for trial := 0; trial < 30; trial++ {
			requireWarmMatchesCold(t, trial, mpcShapedProblem(r, h, aeq, ain, b2), ws)
			if trial%3 == 2 {
				ws.DropSchurFactors()
				if len(ws.sfc.entries) != 0 {
					t.Fatalf("trial %d: %d Schur factors kept", trial, len(ws.sfc.entries))
				}
			}
		}
	})
}

// requireWarmMatchesCold solves p cold and through ws and fails unless the
// two results agree bit for bit.
func requireWarmMatchesCold(t *testing.T, trial int, p *Problem, ws *Workspace) {
	t.Helper()
	cold, err := SolveWith(p, nil)
	if err != nil {
		t.Fatalf("trial %d: Solve: %v", trial, err)
	}
	warm, err := SolveWith(p, ws)
	if err != nil {
		t.Fatalf("trial %d: SolveWith: %v", trial, err)
	}
	for i := range cold.X {
		if cold.X[i] != warm.X[i] {
			t.Fatalf("trial %d: X[%d] cold %v != warm %v", trial, i, cold.X[i], warm.X[i])
		}
	}
	if cold.Obj != warm.Obj || cold.Iterations != warm.Iterations {
		t.Fatalf("trial %d: obj/iters diverged: cold (%v, %d) warm (%v, %d)",
			trial, cold.Obj, cold.Iterations, warm.Obj, warm.Iterations)
	}
}

// TestSolveLSWithFormBitIdentical checks the cached-Hessian LS path against
// the plain lowering across varying residuals.
func TestSolveLSWithFormBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows, n := 10, 5
	m := mat.Zeros(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	wq := make([]float64, rows)
	for i := range wq {
		wq[i] = 0.5 + r.Float64()
	}
	wr := make([]float64, n)
	for i := range wr {
		wr[i] = 0.1 + r.Float64()
	}
	ain := mat.Zeros(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 1.5
		ain.Set(n+i, i, -1)
		bin[n+i] = 1.5
	}
	form, err := NewLSForm(m, wq, wr)
	if err != nil {
		t.Fatalf("NewLSForm: %v", err)
	}
	ws := NewWorkspace()
	for trial := 0; trial < 15; trial++ {
		d := make([]float64, rows)
		for i := range d {
			d[i] = 2 * r.NormFloat64()
		}
		l := &LSProblem{M: m, D: d, Wq: wq, Wr: wr, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: make([]float64, n)}
		cold, err := SolveLSWith(l, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: SolveLS: %v", trial, err)
		}
		warm, err := SolveLSWith(l, form, ws)
		if err != nil {
			t.Fatalf("trial %d: SolveLSWith: %v", trial, err)
		}
		for i := range cold.X {
			if cold.X[i] != warm.X[i] {
				t.Fatalf("trial %d: X[%d] cold %v != warm %v", trial, i, cold.X[i], warm.X[i])
			}
		}
	}
}

// TestSolveLSWithRejectsForeignForm pins the design-matrix identity check.
func TestSolveLSWithRejectsForeignForm(t *testing.T) {
	m1 := mat.Identity(3)
	m2 := mat.Identity(3)
	form, err := NewLSForm(m1, nil, []float64{1, 1, 1})
	if err != nil {
		t.Fatalf("NewLSForm: %v", err)
	}
	l := &LSProblem{M: m2, D: []float64{1, 2, 3}, Wr: []float64{1, 1, 1}}
	if _, err := SolveLSWith(l, form, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("foreign form accepted: err = %v", err)
	}
}

// mpcShapedFixture builds the constraint structure of the condensed MPC
// over z = (ΔU₁ … ΔU_b2), ΔU_s ∈ ℝ^{c·n}: per-step conservation rows
// (each portal's cumulated allocation Σ_{r≤s} ΔU_r summed over IDCs is
// fixed) and cumulated-nonnegativity rows (−Σ_{r≤s} ΔU_r ≤ U(k−1)). Unlike
// the box fixture, a cumulated row shares its variables with every later
// step's row, so blocking rows enter the working set mid-sequence and the
// prune sequences of one solve share long prefixes.
func mpcShapedFixture(r *rand.Rand, c, nIDC, b2 int) (h, aeq, ain *mat.Dense) {
	nu := c * nIDC
	n := nu * b2
	m := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	mt, _ := mat.Mul(m.T(), m)
	h, _ = mat.Add(mt, mat.Identity(n))
	aeq = mat.Zeros(c*b2, n)
	ain = mat.Zeros(nu*b2, n)
	for s := 0; s < b2; s++ {
		for rr := 0; rr <= s; rr++ {
			for i := 0; i < c; i++ {
				for j := 0; j < nIDC; j++ {
					aeq.Set(s*c+i, rr*nu+i*nIDC+j, 1)
				}
			}
			for k := 0; k < nu; k++ {
				ain.Set(s*nu+k, rr*nu+k, -1)
			}
		}
	}
	return h, aeq, ain
}

// mpcShapedProblem draws one solve's data for the fixture: a previous
// allocation U(k−1) with a few exact zeros (rows active at the start), the
// zero move as the feasible start, and a strong linear term that drives
// several cumulated allocations to zero one after another.
func mpcShapedProblem(r *rand.Rand, h, aeq, ain *mat.Dense, b2 int) *Problem {
	n := h.Rows()
	nu := n / b2
	uPrev := make([]float64, nu)
	for k := range uPrev {
		if r.Intn(5) > 0 {
			uPrev[k] = 0.2 + r.Float64()
		}
	}
	bin := make([]float64, ain.Rows())
	for s := 0; s < b2; s++ {
		copy(bin[s*nu:], uPrev)
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = 20 * r.NormFloat64()
	}
	return &Problem{
		H: h, Q: q,
		Aeq: mat.SparseRowsFrom(aeq), Beq: make([]float64, aeq.Rows()),
		Ain: mat.SparseRowsFrom(ain), Bin: bin,
		X0: make([]float64, n),
	}
}

// TestReplayCachesKeepOnlyLastSolve pins the trim: after a long solve and
// then a short one through the same workspace, the Schur-factor entries
// retained are exactly the short solve's, and the dropped slots no longer
// reference their storage.
func TestReplayCachesKeepOnlyLastSolve(t *testing.T) {
	const b2 = 3
	r := rand.New(rand.NewSource(5))
	h, aeq, ain := mpcShapedFixture(r, 2, 3, b2)
	ws := NewWorkspace()
	var long *Problem
	longCalls := 0
	for trial := 0; trial < 30 && longCalls < 5; trial++ {
		long = mpcShapedProblem(r, h, aeq, ain, b2)
		if _, err := SolveWith(long, ws); err != nil {
			t.Fatalf("trial %d: SolveWith: %v", trial, err)
		}
		longCalls = ws.sfc.call
	}
	if longCalls < 5 {
		t.Fatalf("no solve made ≥ 5 kktStep calls (longest %d)", longCalls)
	}
	if len(ws.sfc.entries) != longCalls {
		t.Fatalf("after the long solve: %d Schur entries for %d calls", len(ws.sfc.entries), longCalls)
	}

	// Restarting from the optimum seeds the working set with the final
	// active rows: a single stationarity check.
	short := *long
	short.X0 = append([]float64(nil), ws.res.X...)
	if _, err := SolveWith(&short, ws); err != nil {
		t.Fatalf("short SolveWith: %v", err)
	}
	if ws.sfc.call >= longCalls {
		t.Fatalf("short solve made %d Schur calls, want fewer than the long solve's %d", ws.sfc.call, longCalls)
	}
	if len(ws.sfc.entries) != ws.sfc.call {
		t.Errorf("retained %d Schur entries, want the short solve's %d", len(ws.sfc.entries), ws.sfc.call)
	}
	for i, e := range ws.sfc.entries[len(ws.sfc.entries):cap(ws.sfc.entries)] {
		if e != nil {
			t.Errorf("dropped Schur entry %d still referenced", len(ws.sfc.entries)+i)
		}
	}
}
