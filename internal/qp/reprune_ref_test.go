package qp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
)

// solveRePrune is the reference FuzzSolveMatchesRePruneReference checks
// SolveWith against: the active-set solve as it ran while the working set
// was re-pruned after every blocking step. It starts like SolveWith (the
// fuzzer's inputs are finite, so the matrix checks are left out) and runs
// rePruneLoop in place of activeSetLoop, through ws's caches and hint.
func solveRePrune(p *Problem, ws *Workspace) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mEq, mIn := rowCount(p.Aeq), rowCount(p.Ain)
	if need := mEq + mIn; ws.nIDs < need {
		ws.zByID = make([][]float64, need)
		ws.schurV = make([]float64, pairIndex(0, need))
		ws.schurSet = make([]bool, pairIndex(0, need))
		ws.nIDs = need
	}
	n := p.dim()
	x := make([]float64, n)
	copy(x, p.X0)
	if (p.X0 != nil && !p.feasible(x, featol)) || (p.X0 == nil && (p.Aeq != nil || p.Ain != nil)) {
		if err := ws.findFeasible(p, x); err != nil {
			return nil, err
		}
	}
	structured := p.form != nil && p.form.structured()
	var hs hSolver
	if structured {
		hs = p.form
	} else {
		if !ws.hReady {
			hChol, _ := mat.FactorCholesky(p.H)
			if hChol != nil && hChol.CondEstimate() > 1e12 {
				hChol = nil
			}
			ws.hChol, ws.hReady = hChol, true
		}
		if ws.hChol != nil {
			hs = ws.hChol
		}
	}
	res, err := rePruneLoop(p, hs, x, n, mEq, mIn, ws)
	if errors.Is(err, ErrIterationLimit) && ws.hChol != nil && !structured {
		res, err = rePruneLoop(p, nil, x, n, mEq, mIn, ws)
	}
	ws.sfc.endSolve()
	return res, err
}

// rePruneLoop is activeSetLoop with the pruneDependent call that followed
// every blocking step, made on a pruneState of its own so the cached
// starting-set sequence stays as activeSetLoop leaves it. The Result's X
// is its own; Active lives in ws, as SolveWith's does.
func rePruneLoop(p *Problem, hs hSolver, x0 []float64, n, mEq, mIn int, ws *Workspace) (*Result, error) {
	x := append([]float64(nil), x0...)
	active := make([]bool, mIn)
	useHint := p.form != nil && p.form.structured() &&
		ws.lastActiveOK && len(ws.lastActive) == mIn
	for i := 0; i < mIn; i++ {
		if math.Abs(p.Ain.RowDot(i, x)-p.Bin[i]) <= featol {
			active[i] = !useHint || ws.lastActive[i]
		}
	}
	ws.sfc.beginSolve()
	pruneDependent(p.Aeq, p.Ain, active, mEq, &ws.prune)
	var rePrune pruneState

	maxIters := 100 + 20*(n+mEq+mIn)
	fullSteps := 0
	for iter := 0; iter < maxIters; iter++ {
		dir, lam, err := kktStep(p, hs, ws, x, active, mEq)
		if err != nil {
			if dropAny(active) {
				continue
			}
			return nil, err
		}
		if mat.NormInfVec(dir) <= steptol*(1+mat.NormInfVec(x)) || fullSteps >= 2 {
			dropped := false
			li := mEq
			for i := 0; i < mIn; i++ {
				if !active[i] {
					continue
				}
				if lam[li] < -lamtol {
					active[i] = false
					dropped = true
				}
				li++
			}
			if !dropped {
				if p.form != nil && p.form.structured() {
					ws.lastActive = append(ws.lastActive[:0], active...)
					ws.lastActiveOK = true
				}
				return &Result{X: x, Obj: ws.objective(p, x), Iterations: iter + 1, Active: ws.activeList(active)}, nil
			}
			fullSteps = 0
			continue
		}
		alpha := 1.0
		block := -1
		for i := 0; i < mIn; i++ {
			if active[i] {
				continue
			}
			ad := p.Ain.RowDot(i, dir)
			if ad <= featol {
				continue
			}
			slack := p.Bin[i] - p.Ain.RowDot(i, x)
			if slack < 0 {
				slack = 0
			}
			if a := slack / ad; a < alpha {
				alpha = a
				block = i
			}
		}
		for i := range x {
			x[i] += alpha * dir[i]
		}
		if block >= 0 {
			active[block] = true
			pruneDependent(p.Aeq, p.Ain, active, mEq, &rePrune)
			fullSteps = 0
		} else {
			fullSteps++
		}
	}
	return nil, ErrIterationLimit
}

// errClass names the sentinel an error wraps, so two solves' failures can
// be compared by kind.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrBadProblem):
		return "ErrBadProblem"
	case errors.Is(err, ErrInfeasible):
		return "ErrInfeasible"
	case errors.Is(err, ErrIterationLimit):
		return "ErrIterationLimit"
	}
	return "other: " + err.Error()
}

// sameSolve fails unless got and want agree on the error class and, for a
// success, on Iterations, Active and the bits of X and Obj.
func sameSolve(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if g, w := errClass(gotErr), errClass(wantErr); g != w {
		t.Fatalf("%s: error %s (%v), reference %s (%v)", what, g, gotErr, w, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Iterations != want.Iterations || !slices.Equal(got.Active, want.Active) {
		t.Fatalf("%s: %d iterations, active %v; reference %d, %v", what, got.Iterations, got.Active, want.Iterations, want.Active)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("%s: Obj %v, reference %v", what, got.Obj, want.Obj)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %v, reference %v", what, i, got.X[i], want.X[i])
		}
	}
}

// byteReader hands out a fuzz input one byte at a time, then zeros.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) byte() byte {
	if r.off >= len(r.data) {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// FuzzSolveMatchesRePruneReference checks that pruning only the starting
// working set changes nothing: Solve against solveRePrune on a fresh
// workspace, and SolveWith through one warm workspace against solveRePrune
// through another, over 1–8 re-solves, on the error class, Iterations,
// Active and the bits of X and Obj. The rows are those of the condensed
// MPC (mpcShapedFixture plus latency rows, c and N ≤ 4, β2 ≤ 3), and
// H = 2(MᵀWqM + Wr) for a random wide M, solved dense or, when the mode
// bit is set, through NewStructuredLSForm, where the lastActive hint and
// dropAny run. Each re-solve starts from the zero move with its own
// U(k−1) zero pattern, latency slacks and scale of q; a whole portal at
// zero or every latency slack at zero makes the starting working set
// dependent, so the initial prune must prune it.
func FuzzSolveMatchesRePruneReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		structured := r.byte()%2 == 1
		c, nIDC, b2 := 1+int(r.byte()%4), 1+int(r.byte()%4), 1+int(r.byte()%3)
		resolves := 1 + int(r.byte()%8)
		rng := rand.New(rand.NewSource(int64(r.byte())))
		nu := c * nIDC
		_, aeqD, nonneg := mpcShapedFixture(rng, c, nIDC, b2)
		aeq, ain := mat.SparseRowsFrom(aeqD), mat.SparseRowsFrom(stackLatencyRows(c, nIDC, b2, nonneg))
		n := nu * b2
		m := mat.Zeros(max(1, n/2), n)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		wq, wr := make([]float64, m.Rows()), make([]float64, n)
		for i := range wq {
			wq[i] = 0.5 + rng.Float64()
		}
		for j := range wr {
			wr[j] = 0.05 + rng.Float64()
		}
		var form *LSForm
		var err error
		if structured {
			form, err = NewStructuredLSForm(m, wq, wr)
		} else {
			form, err = NewLSForm(m, wq, wr)
		}
		if err != nil {
			t.Fatalf("LS form: %v", err)
		}

		ws, refWS := NewWorkspace(), NewWorkspace()
		for k := 0; k < resolves; k++ {
			uPrev := make([]float64, nu)
			for i := range uPrev {
				if r.byte()%4 != 0 {
					uPrev[i] = 0.2 + rng.Float64()
				}
			}
			slack := make([]float64, nIDC)
			for j := range slack {
				if r.byte()%4 != 0 {
					slack[j] = 0.5 + float64(c)*rng.Float64()
				}
			}
			switch force := r.byte(); force % 4 {
			case 1: // a portal holds no load: its nonnegativity rows sum to minus its conservation row
				i := int(force/4) % c
				clear(uPrev[i*nIDC : (i+1)*nIDC])
			case 2: // every IDC at its latency cap: the latency rows sum to the conservation rows
				clear(slack)
			}
			bin := make([]float64, ain.Rows())
			for s := 0; s < b2; s++ {
				copy(bin[s*nIDC:], slack)
				copy(bin[nIDC*b2+s*nu:], uPrev)
			}
			scale := math.Ldexp(1, int(r.byte()%10)-3)
			q := make([]float64, n)
			for i := range q {
				q[i] = scale * rng.NormFloat64()
			}
			p := &Problem{
				Q:   q,
				Aeq: aeq, Beq: make([]float64, aeq.Rows()),
				Ain: ain, Bin: bin,
				X0: make([]float64, n),
			}
			if structured {
				p.form = form
			} else {
				p.H = form.Hessian()
			}
			want, wantErr := solveRePrune(p, NewWorkspace())
			got, gotErr := SolveWith(p, nil)
			sameSolve(t, "Solve", got, gotErr, want, wantErr)
			want, wantErr = solveRePrune(p, refWS)
			got, gotErr = SolveWith(p, ws)
			sameSolve(t, "SolveWith", got, gotErr, want, wantErr)
		}
	})
}
