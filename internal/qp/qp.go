// Package qp implements a primal active-set solver for strictly convex
// quadratic programs
//
//	minimize    ½ xᵀH x + qᵀx
//	subject to  Aeq·x  = beq
//	            Ain·x ≤ bin
//
// with H symmetric positive definite. This is the solver behind the MPC
// problem (42)–(45) of the paper: the condensed MPC cost
// ‖W′Θ·ΔU − Π‖²_Q + ‖ΔU‖²_R is strictly convex whenever R ≻ 0, and the
// constraints are the stacked workload-conservation equalities and
// latency/nonnegativity inequalities.
//
// The solver needs a feasible starting point. Callers that cannot provide
// one may leave X0 nil; SolveWith then runs an LP phase-1 (via internal/lp) with
// variable splitting to construct one.
//
// Receding-horizon callers re-solve the same problem structure every
// sampling period with fresh right-hand sides. Workspace captures the parts
// of a solve that depend only on H, Aeq and Ain — the Cholesky factor of H,
// the H⁻¹aᵢ columns, the Schur-complement products and the Gram–Schmidt
// independence decisions — so SolveWith can reuse them across calls. All
// reuse is of bit-identical intermediate values; a solve with a warm
// Workspace returns exactly the floats a cold solve would. The one
// exception is structured mode (see Workspace.lastActive), which also
// warm-starts the working set itself and so takes a shorter iteration
// path than a cold solve — same unique minimizer, different rounding.
package qp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Solver failure modes.
var (
	// ErrBadProblem is returned for structurally invalid inputs.
	ErrBadProblem = errors.New("qp: malformed problem")
	// ErrInfeasible is returned when no point satisfies the constraints.
	ErrInfeasible = errors.New("qp: infeasible constraints")
	// ErrIterationLimit is returned when the active-set loop fails to
	// converge; with a PD Hessian this indicates severe degeneracy.
	ErrIterationLimit = errors.New("qp: iteration limit exceeded")
)

// Problem is a convex QP. Aeq/Ain groups may be nil.
//
// The constraint matrices are compressed rows (mat.SparseRowsFrom builds
// them from dense ones). Every row dot product and row update of the solver
// walks a row's nonzeros, O(nnz) instead of O(n); the few steps that need a
// full row (Gram–Schmidt pruning, the H⁻¹aᵢ solves, the dense KKT fallback
// and the phase-1 LP) scatter it. Both are bit-identical to the dense
// arithmetic for finite vectors (see rowDot).
type Problem struct {
	// H is the n-by-n symmetric positive definite Hessian.
	H *mat.Dense
	// Q is the linear term q (length n).
	Q []float64
	// Aeq, Beq define equality constraints.
	Aeq *mat.SparseRows
	Beq []float64
	// Ain, Bin define inequality constraints Ain·x ≤ bin.
	Ain *mat.SparseRows
	Bin []float64
	// X0 is an optional feasible starting point. When nil a phase-1 LP is
	// solved to find one.
	X0 []float64

	// form carries the structure-exploiting Hessian when the problem was
	// lowered through a structured LSForm (see NewStructuredLSForm); H is
	// nil in that mode. Set only by SolveLSWith.
	form *LSForm
}

// Result is a solve outcome.
type Result struct {
	X          []float64
	Obj        float64
	Iterations int
	// Active lists the indices of inequality constraints active at the
	// solution, ascending.
	Active []int
}

const (
	featol  = 1e-7
	steptol = 1e-11
	lamtol  = 1e-9
)

// Workspace carries solver state that stays valid across SolveWith calls
// sharing the same Hessian H and the same constraint matrices Aeq and Ain.
// The right-hand sides beq/bin, the linear term q and the start X0 may all
// change freely between calls — exactly the situation of a receding-horizon
// controller re-solving one problem structure with fresh data every step.
//
// Everything cached here is a value some cold solve computed (or would
// compute) with identical arithmetic: the Cholesky factor of H, the
// H⁻¹aᵢ constraint columns, the Schur products aᵢᵀH⁻¹aⱼ and the factorized
// Schur complements per working set, and the Gram–Schmidt prune prefix of
// the starting working set. Reuse therefore cannot change a solution bit;
// it only skips recomputation. Exception: in structured mode the lastActive
// working-set hint shortens the iteration path, so a warm structured solve
// agrees with a cold one only to rounding.
//
// The replay caches stay bounded over a long-lived workspace:
//   - the prune state holds one sequence, at most one entry per
//     constraint id;
//   - the per-call-index Schur factors keep only what the last solve
//     reached — SolveWith drops the call indices it did not;
//   - a Schur factor miss starts from its slot's old factor or the
//     previous call's, whichever shares the longer id prefix, and
//     keeps what the working-set change left intact (refactorSchur);
//   - the Schur pair cache is stored packed, upper triangle only.
//
// Reusing a Workspace after H, Aeq or Ain changed produces wrong results —
// build a fresh one instead. What counts is the values, not the form: a
// workspace stays valid across LSForms that share one H (NewSharedLSForm)
// over the same constraint rows, since every cache above is a function of
// H and the rows alone. A nil *Workspace is accepted everywhere and means
// "no cross-solve reuse". Not safe for concurrent use.
//
// Sharing rule: a Workspace belongs to exactly one controller, and nothing
// here is synchronized. Do not share one Workspace across controllers to
// "save memory": concurrent SolveWith calls race on every cache above, and
// even serialized sharing is wrong the moment the two controllers'
// H/Aeq/Ain differ.
//
// Result ownership: SolveWith with a non-nil ws returns a Result whose X and
// Active slices live in the workspace and are overwritten by the next solve
// through the same ws. Callers that retain them across solves must copy.
// A nil ws returns independently-owned results.
//
//lint:nocopy
type Workspace struct {
	hChol  *mat.Cholesky
	hReady bool
	// nIDs is the constraint-id space (mEq + mIn) of the problem this
	// workspace serves, fixed on the first solve once the rows are checked
	// finite; it sizes the id-indexed caches below. Ids are dense small
	// integers (equalities 0…mEq−1, then inequalities mEq+i), so flat
	// arrays replace the previous maps — map hashing was the single
	// largest cost of the steady-state solve.
	nIDs int
	// zByID caches H⁻¹aᵢ per working-set row id (nil = not yet computed).
	zByID [][]float64
	// schurV/schurSet cache aᵢᵀ·H⁻¹·aⱼ for the ascending id pair a ≤ b,
	// packed as the upper triangle at index b(b+1)/2 + a (pairIndex). Only
	// a ≤ b is ever read, so the (i≤j) orientation of each dot product is
	// stable and a cached value is the bit a fresh computation produces.
	schurV   []float64
	schurSet []bool
	// sfc caches the factorized Schur complement per kktStep call index.
	sfc schurFactorCache
	// lastActive records the final active inequality set of the previous
	// successful solve (structured mode only). The next solve seeds its
	// working set with the intersection of this hint and the rows
	// geometrically active at the start point — a subset of the plain
	// geometric seeding, so the primal invariant (working set ⊆ active at x)
	// still holds and a wrongly omitted row simply re-enters through the
	// line search. Without the hint, a steady-state re-solve re-activates
	// every boundary row at the warm start (~n of them at planet scale) and
	// then spends several bulk-drop iterations rediscovering the optimal
	// set; with it, the re-solve terminates after one stationarity check.
	// Structured-only so paper-scale solves keep their exact legacy
	// iteration path (and bit-identical checksums).
	lastActive   []bool
	lastActiveOK bool
	// prune is the incremental Gram–Schmidt state of pruneDependent.
	prune pruneState
	// ph1 holds the phase-1 LP's rows and cost, built on the first
	// infeasible start (findFeasible).
	ph1 phase1

	// Grow-only scratch. Once every buffer has reached the problem's steady
	// size, a SolveWith call that stays on the cached Schur path performs no
	// heap allocations.
	x0buf, xbuf []float64 // start point / iterate
	grad        []float64 // Hx + q
	negGrad     []float64 // −grad
	y           []float64 // H⁻¹·(−grad)
	dirBuf      []float64 // KKT step
	rhs, lamBuf []float64 // Schur system rhs / multipliers
	hxBuf       []float64 // objective evaluation
	wd, q       []float64 // LS lowering: weighted residual, linear term
	aRow        []float64 // one constraint row scattered for an H⁻¹aᵢ solve
	zrows       [][]float64
	workIDs     []int
	activeBuf   []bool
	activeIdx   []int
	schurBuf    *mat.Dense
	prob        Problem // backing store for SolveLSWith's lowered problem
	res         Result

	instr Instruments
}

// Instruments are the QP solver's optional observability hooks, attached
// to the Workspace that carries the cross-solve caches (internal/obs).
// All fields are nil-safe no-ops when unset.
type Instruments struct {
	// Iterations accumulates active-set iterations across solves.
	Iterations *obs.Counter
	// Factorizations counts Cholesky factorizations of H — one per
	// workspace lifetime on the steady state.
	Factorizations *obs.Counter
	// FactorReuse counts solves that reused the workspace's cached factor.
	FactorReuse *obs.Counter
}

// SetInstruments installs observability hooks on the workspace; call
// before solving. The zero Instruments value detaches them again.
func (ws *Workspace) SetInstruments(in Instruments) { ws.instr = in }

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// DropSchurFactors releases the per-call-index Schur factors and keeps
// every other cache. The next solve refactors each call's Schur complement
// from the pair cache, bit-identical to the dropped factor (FactorFrom), so
// the drop trades time for memory and changes no result. A caller handing
// the workspace to a new form over the same H (NewSharedLSForm) calls it:
// the factors replay the old form's working sets, and keeping them would
// hold a fresh workspace's factors on top.
func (ws *Workspace) DropSchurFactors() {
	clear(ws.sfc.entries)
	ws.sfc.entries = ws.sfc.entries[:0]
}

// row returns the matrix holding constraint row id (equalities 0…mEq−1,
// then inequalities) and the row's index in it.
func (p *Problem) row(mEq, id int) (*mat.SparseRows, int) {
	if id < mEq {
		return p.Aeq, id
	}
	return p.Ain, id - mEq
}

// rowDot computes the dot product of constraint row id with x over the
// row's nonzeros. It is bit-identical to the dense row dot for finite x:
// each skipped term is an exact ±0, and adding ±0 never changes a running
// sum that starts at +0. (A dense dot would turn 0·NaN or 0·Inf into NaN;
// Validate's finiteness checks keep such values out of the solver's
// vectors.) A row scattered into zeroed scratch is likewise the dense row
// bit for bit whenever the dense row's zeros are +0, as every row built
// with mat.Zeros and Set is.
func (p *Problem) rowDot(mEq, id int, x []float64) float64 {
	a, i := p.row(mEq, id)
	return a.RowDot(i, x)
}

// Validate checks dimensional consistency and that every data vector
// (Q, Beq, Bin, X0) is finite. SolveWith checks the matrices H, Aeq and
// Ain once per workspace, since they are fixed for its lifetime.
func (p *Problem) Validate() error {
	var n int
	if p.form != nil && p.form.structured() {
		if p.H != nil {
			return fmt.Errorf("both dense and structured Hessian set: %w", ErrBadProblem)
		}
		n = p.form.vars()
	} else {
		if p.H == nil || p.H.Rows() == 0 {
			return fmt.Errorf("nil or empty Hessian: %w", ErrBadProblem)
		}
		n = p.H.Rows()
		if p.H.Cols() != n {
			return fmt.Errorf("Hessian %dx%d not square: %w", p.H.Rows(), p.H.Cols(), ErrBadProblem)
		}
	}
	if len(p.Q) != n {
		return fmt.Errorf("q has length %d, want %d: %w", len(p.Q), n, ErrBadProblem)
	}
	// A right-hand side without its matrix would be silently ignored.
	if p.Aeq != nil {
		if p.Aeq.Cols() != n || p.Aeq.Rows() != len(p.Beq) {
			return fmt.Errorf("Aeq %dx%d with Beq %d: %w", p.Aeq.Rows(), p.Aeq.Cols(), len(p.Beq), ErrBadProblem)
		}
	} else if len(p.Beq) != 0 {
		return fmt.Errorf("Beq without Aeq: %w", ErrBadProblem)
	}
	if p.Ain != nil {
		if p.Ain.Cols() != n || p.Ain.Rows() != len(p.Bin) {
			return fmt.Errorf("Ain %dx%d with Bin %d: %w", p.Ain.Rows(), p.Ain.Cols(), len(p.Bin), ErrBadProblem)
		}
	} else if len(p.Bin) != 0 {
		return fmt.Errorf("Bin without Ain: %w", ErrBadProblem)
	}
	if p.X0 != nil && len(p.X0) != n {
		return fmt.Errorf("X0 has length %d, want %d: %w", len(p.X0), n, ErrBadProblem)
	}
	// A NaN or ±Inf here would not fail the solve: it would flow into the
	// iterate and come back as a silently wrong answer.
	if err := checkFinite("Q", p.Q); err != nil {
		return err
	}
	if err := checkFinite("Beq", p.Beq); err != nil {
		return err
	}
	if err := checkFinite("Bin", p.Bin); err != nil {
		return err
	}
	return checkFinite("X0", p.X0)
}

// checkFinite returns ErrBadProblem naming the first NaN or ±Inf entry of
// the vector called name.
func checkFinite(name string, xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s[%d] = %v: %w", name, i, x, ErrBadProblem)
		}
	}
	return nil
}

// checkFiniteDense is checkFinite for the matrix called name, naming the
// entry's row and column.
func checkFiniteDense(name string, m *mat.Dense) error {
	for i := 0; i < m.Rows(); i++ {
		for j, x := range m.RowView(i) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%s[%d][%d] = %v: %w", name, i, j, x, ErrBadProblem)
			}
		}
	}
	return nil
}

// checkFiniteRows is checkFiniteDense for compressed rows, which store
// every entry that is not an exact zero, so every NaN and ±Inf.
func checkFiniteRows(name string, a *mat.SparseRows) error {
	if a == nil {
		return nil
	}
	for i := 0; i < a.Rows(); i++ {
		idx, val := a.RowNNZ(i)
		for k, x := range val {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%s[%d][%d] = %v: %w", name, i, idx[k], x, ErrBadProblem)
			}
		}
	}
	return nil
}

// SolveWith runs the active-set method, reusing the Workspace caches when
// ws is non-nil (see Workspace for the validity contract). A nil ws solves
// with fresh scratch and no cross-solve reuse; results are bit-identical
// either way.
//
// With a warm workspace and grown scratch, a solve that stays on the
// cached Schur path performs zero heap allocations
// (TestSolveWithSteadyStateAllocFree); idclint's hotalloc analyzer checks
// that statically from this root.
//
//lint:hotpath
func SolveWith(p *Problem, ws *Workspace) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		//lint:ignore hotalloc cold path: steady-state callers pass a warm workspace
		ws = NewWorkspace() // per-call scratch: no reuse, same arithmetic
	}
	mEq := 0
	if p.Aeq != nil {
		mEq = p.Aeq.Rows()
	}
	mIn := 0
	if p.Ain != nil {
		mIn = p.Ain.Rows()
	}
	if need := mEq + mIn; ws.nIDs < need {
		// The constraint set is fixed for the workspace's lifetime (see the
		// reuse contract above), so its rows are checked and the id-indexed
		// caches sized once. The check comes first: the start point's
		// feasibility test and the phase-1 LP read the rows, and a NaN or
		// ±Inf entry came back from either as a wrong x with a nil error.
		if err := checkFiniteRows("Aeq", p.Aeq); err != nil {
			return nil, err
		}
		if err := checkFiniteRows("Ain", p.Ain); err != nil {
			return nil, err
		}
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.zByID = make([][]float64, need)
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.schurV = make([]float64, pairIndex(0, need))
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.schurSet = make([]bool, pairIndex(0, need))
		ws.nIDs = need
	}

	n := p.dim()
	ws.x0buf = mat.GrowVec(ws.x0buf, n)
	x := ws.x0buf
	for i := range x {
		x[i] = 0
	}
	if p.X0 != nil {
		copy(x, p.X0)
		if !p.feasible(x, featol) {
			//lint:ignore hotalloc cold start: phase-1 LP runs only when the warm start is infeasible
			if err := ws.findFeasible(p, x); err != nil {
				return nil, err
			}
		}
	} else if p.Aeq != nil || p.Ain != nil {
		//lint:ignore hotalloc cold start: no warm-start point was supplied at all
		if err := ws.findFeasible(p, x); err != nil {
			return nil, err
		}
	}

	// H is constant across active-set iterations (and across every solve
	// sharing the workspace): factor it once. The Cholesky enables the
	// Schur-complement KKT solve with per-constraint caching of H⁻¹aᵢ. The
	// dense indefinite KKT factorization is the fallback — immediately when
	// H is semidefinite or visibly ill-conditioned, and as a retry if the
	// Schur-driven loop stalls (severe conditioning can pass the cheap
	// estimate yet still produce meaningless directions).
	//
	// A structured problem carries its factorization inside the form (the
	// prefactored capacitance matrix); it has no dense fallback — the dense
	// KKT matrix it would factor is exactly the n×n object the structured
	// path exists to avoid. Degenerate working sets are handled by dropAny.
	var hs hSolver
	if p.form != nil && p.form.structured() {
		hs = p.form
		ws.instr.FactorReuse.Inc()
	} else if !ws.hReady {
		// Checked here, once per workspace: a NaN or ±Inf in H passes the
		// factorization's d ≤ 0 test and came back as a wrong x with a nil
		// error.
		if err := checkFiniteDense("H", p.H); err != nil {
			return nil, err
		}
		ws.instr.Factorizations.Inc()
		//lint:ignore hotalloc factored once per workspace, reused by every later solve
		hChol, _ := mat.FactorCholesky(p.H)
		if hChol != nil && hChol.CondEstimate() > 1e12 {
			hChol = nil
		}
		ws.hChol, ws.hReady = hChol, true
	} else {
		ws.instr.FactorReuse.Inc()
	}
	if hs == nil && ws.hChol != nil {
		hs = ws.hChol
	}
	res, err := activeSetLoop(p, hs, x, n, mEq, mIn, ws)
	if errors.Is(err, ErrIterationLimit) && ws.hChol != nil && (p.form == nil || !p.form.structured()) {
		res, err = activeSetLoop(p, nil, x, n, mEq, mIn, ws)
	}
	// Keep only the Schur slots this solve reached: a workspace lives as
	// long as its Hessian, and one cold solve's extra call indices would
	// otherwise stay allocated through every shorter warm solve after it.
	ws.sfc.endSolve()
	if res != nil {
		ws.instr.Iterations.Add(uint64(res.Iterations))
	}
	return res, err
}

// activeSetLoop runs the primal active-set iteration from the feasible
// point x0 (copied), using the Schur path when hs is non-nil.
func activeSetLoop(p *Problem, hs hSolver, x0 []float64, n, mEq, mIn int, ws *Workspace) (*Result, error) {
	ws.xbuf = mat.GrowVec(ws.xbuf, len(x0))
	x := ws.xbuf
	copy(x, x0)

	// Working set over inequality indices.
	if cap(ws.activeBuf) < mIn {
		//lint:ignore hotalloc grow-only scratch: allocates only until the steady size is reached
		ws.activeBuf = make([]bool, mIn)
	}
	active := ws.activeBuf[:mIn]
	for i := range active {
		active[i] = false
	}
	useHint := p.form != nil && p.form.structured() &&
		ws.lastActiveOK && len(ws.lastActive) == mIn
	for i := 0; i < mIn; i++ {
		if math.Abs(p.Ain.RowDot(i, x)-p.Bin[i]) <= featol {
			active[i] = !useHint || ws.lastActive[i]
		}
	}
	// The one prune of the loop. The working set only changes below by
	// dropping rows, which keeps an independent set independent, or by
	// adding a blocking row i with aᵢ·d > featol for a direction d that
	// kktStep solved with A_W·d = 0 (Schur, dense-KKT and structured paths
	// alike), so aᵢ lies outside span(A_W) and the larger set stays
	// independent in any processing order. A factorization that rounding
	// makes fail anyway falls back to the dense KKT step, or to dropAny in
	// structured mode.
	ws.sfc.beginSolve()
	pruneDependent(p.Aeq, p.Ain, active, mEq, &ws.prune)

	maxIters := 100 + 20*(n+mEq+mIn)
	fullSteps := 0
	for iter := 0; iter < maxIters; iter++ {
		dir, lam, err := kktStep(p, hs, ws, x, active, mEq)
		if err != nil {
			// Degenerate working set: drop one active constraint and retry.
			if dropAny(active) {
				continue
			}
			return nil, err
		}
		// In exact arithmetic one full unblocked step lands exactly on the
		// working-set minimum, so the next direction is zero. When rounding
		// noise keeps the direction slightly nonzero, repeated full steps
		// signal stationarity just as reliably as a tiny step norm.
		stationary := mat.NormInfVec(dir) <= steptol*(1+mat.NormInfVec(x)) || fullSteps >= 2
		if stationary {
			// Stationary on the working set; drop every active inequality
			// with a negative multiplier (the multipliers follow the
			// equality ones in lam). Dropping in bulk converges much faster
			// than one-at-a-time on the large all-zero working sets the MPC
			// starts from; a blocking constraint re-enters via the line
			// search if the combined move overshoots.
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
					if cap(ws.lastActive) < mIn {
						//lint:ignore hotalloc grow-only hint buffer: allocates once per problem size
						ws.lastActive = make([]bool, mIn)
					}
					ws.lastActive = ws.lastActive[:mIn]
					copy(ws.lastActive, active)
					ws.lastActiveOK = true
				}
				ws.res = Result{
					X:          x,
					Obj:        ws.objective(p, x),
					Iterations: iter + 1,
					Active:     ws.activeList(active),
				}
				return &ws.res, nil
			}
			fullSteps = 0
			continue
		}
		// Line search to the nearest blocking inactive constraint.
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
			fullSteps = 0
		} else {
			fullSteps++
		}
	}
	return nil, ErrIterationLimit
}

// kktStep solves the equality-constrained subproblem on the working set:
//
//	[H  Awᵀ] [p]   [-(Hx+q)]
//	[Aw  0 ] [λ] = [   0   ]
//
// returning the step p and multipliers λ (equalities first, then active
// inequalities in index order). With an H⁻¹ apply available (dense Cholesky
// factor or structured Woodbury form) the system is solved via the Schur
// complement S = Aw·H⁻¹·Awᵀ (H is factored once per workspace, not per
// iteration); otherwise a dense KKT factorization is used.
func kktStep(p *Problem, hs hSolver, ws *Workspace, x []float64, active []bool, mEq int) (dir, lam []float64, err error) {
	n := p.dim()
	workIDs := ws.workIDs[:0]
	for i := 0; i < mEq; i++ {
		//lint:ignore hotalloc grow-only scratch: backing array reaches steady size, then reused
		workIDs = append(workIDs, i)
	}
	for i, a := range active {
		if a {
			//lint:ignore hotalloc grow-only scratch: backing array reaches steady size, then reused
			workIDs = append(workIDs, mEq+i)
		}
	}
	ws.workIDs = workIDs
	ws.grad = mat.GrowVec(ws.grad, n)
	grad := ws.grad
	if err := p.hMulVecInto(grad, x); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		grad[i] += p.Q[i]
	}

	if hs != nil {
		dir, lam, err = schurStep(p, hs, ws, workIDs, grad, n, mEq)
		if err == nil {
			return dir, lam, nil
		}
		if p.form != nil && p.form.structured() {
			// No dense fallback in structured mode: materializing the n×n
			// KKT matrix is the cost the structured path exists to avoid.
			// The caller's dropAny handles degenerate working sets.
			return nil, nil, err
		}
		// Ill-conditioned Schur complement: fall through to the dense path.
	}
	//lint:ignore hotalloc dense fallback for semidefinite H; the Schur path is the steady state
	return denseKKTStep(p, workIDs, mEq, grad, n)
}

// schurStep solves the KKT system via the Schur complement of the cached
// H⁻¹ apply (dense Cholesky factor or structured Woodbury form).
func schurStep(p *Problem, hs hSolver, ws *Workspace, workIDs []int, grad []float64, n, mEq int) (dir, lam []float64, err error) {
	// y = −H⁻¹·grad is the unconstrained Newton step.
	ws.negGrad = mat.GrowVec(ws.negGrad, n)
	mat.ScaleVecInto(ws.negGrad, -1, grad)
	ws.y = mat.GrowVec(ws.y, n)
	y := ws.y
	if err := hs.SolveVecInto(y, ws.negGrad); err != nil {
		return nil, nil, fmt.Errorf("qp: H solve: %w", err)
	}
	k := len(workIDs)
	if k == 0 {
		return y, nil, nil
	}
	// Z = H⁻¹·Awᵀ column by column, cached per constraint id for the
	// lifetime of the workspace (H does not change while it is valid).
	// Cache misses allocate their vector — it must outlive the call inside
	// the cache — and solve from the row scattered into scratch, since the
	// Woodbury solve must not alias its input.
	if cap(ws.zrows) < k {
		//lint:ignore hotalloc grow-only scratch: allocates only until the steady size is reached
		ws.zrows = make([][]float64, k)
	}
	z := ws.zrows[:k] // z[i] = H⁻¹·a_i
	for i, id := range workIDs {
		if cached := ws.zByID[id]; cached != nil {
			z[i] = cached
			continue
		}
		ws.aRow = mat.GrowVec(ws.aRow, n)
		a, r := p.row(mEq, id)
		a.ScatterRowInto(ws.aRow, r)
		//lint:ignore hotalloc cache miss: the vector must outlive the call inside the cache
		zi := make([]float64, n)
		if err := hs.SolveVecInto(zi, ws.aRow); err != nil {
			return nil, nil, fmt.Errorf("qp: H solve: %w", err)
		}
		ws.zByID[id] = zi
		z[i] = zi
	}
	// Factorized Schur complement, cached per kktStep call index: a
	// steady-state re-solve replays the same working-set evolution, so when
	// this call's id sequence matches the last solve's, the cached factor
	// IS the factor a rebuild would produce (the S it factored was
	// assembled from the same cached entries) — skip both the assembly and
	// the Cholesky, which dominated the per-iteration cost.
	ent := ws.sfc.next()
	if pre := commonPrefix(ent.ids, workIDs); pre != k || len(ent.ids) != k {
		if err := ws.refactorSchur(p, ent, pre, workIDs, z, mEq); err != nil {
			return nil, nil, err
		}
	}
	// S·λ = Aw·y.
	ws.rhs = mat.GrowVec(ws.rhs, k)
	rhs := ws.rhs
	for i, id := range workIDs {
		rhs[i] = p.rowDot(mEq, id, y)
	}
	ws.lamBuf = mat.GrowVec(ws.lamBuf, k)
	lam = ws.lamBuf
	if err := ent.chol.SolveVecInto(lam, rhs); err != nil {
		return nil, nil, fmt.Errorf("qp: singular KKT system: %w", err)
	}
	// dir = y − Z·λ.
	ws.dirBuf = mat.GrowVec(ws.dirBuf, n)
	dir = ws.dirBuf
	if p.form != nil && p.form.structured() {
		// Equivalent form dir = H⁻¹(−grad − Awᵀ·λ): one sparse accumulation
		// plus one extra Woodbury apply, O(nnz(Aw) + mn). The generic sweep
		// below walks k cached Z columns of n doubles each — at C50×N20
		// that is ~70 MB of traffic per iteration, which dominated the warm
		// step. ws.negGrad still holds −grad from the unconstrained solve.
		acc := ws.negGrad
		for i, id := range workIDs {
			li := lam[i]
			//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
			if li == 0 {
				continue
			}
			a, r := p.row(mEq, id)
			a.AddScaledRowInto(acc, r, -li)
		}
		if err := hs.SolveVecInto(dir, acc); err != nil {
			return nil, nil, fmt.Errorf("qp: H solve: %w", err)
		}
		return dir, lam, nil
	}
	// Two nonzero multipliers per pass, so each dir[t] is loaded and
	// stored once for both; it still subtracts its λᵢ·zᵢ[t] terms in
	// ascending i (mat's chain rule, DESIGN.md §3.10).
	copy(dir, y)
	pend := -1 // a nonzero multiplier waiting for its pass partner
	for i, li := range lam {
		//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
		if li == 0 {
			continue
		}
		if pend < 0 {
			pend = i
			continue
		}
		lp, zp, zi := lam[pend], z[pend][:len(dir)], z[i][:len(dir)]
		for t := range dir {
			dir[t] = dir[t] - lp*zp[t] - li*zi[t]
		}
		pend = -1
	}
	if pend >= 0 {
		lp := lam[pend]
		for t, v := range z[pend][:len(dir)] {
			dir[t] -= lp * v
		}
	}
	return dir, lam, nil
}

// refactorSchur rebuilds the Schur factor of the slot ent, which missed
// and shares pre leading ids with it, for the working set workIDs with
// H⁻¹ columns z. It refactors only what the working-set change touched: it
// starts from whichever factor shares the longer id prefix, ent's own from
// the last solve or the previous call's, and keeps that factor's prefix
// rows and the leading columns of every row it repeats
// (mat.Cholesky.FactorFrom, bit-identical to Factor).
func (ws *Workspace) refactorSchur(p *Problem, ent *schurFactorEntry, pre int, workIDs []int, z [][]float64, mEq int) error {
	k := len(workIDs)
	src := ent
	if prev := ws.sfc.prev(); prev != nil {
		if q := commonPrefix(prev.ids, workIDs); q > pre {
			src, pre = prev, q
		}
	}
	// Merge walk over the two ascending id lists: links[i−pre] is the row
	// of src's factor that row i repeats, or −1. Without a shared prefix a
	// repeated row keeps nothing, so nil links do. The links take storage
	// that is dead until the solve ends: ent's id list, which must hold k
	// ids after the factorization anyway, or, when ent is the source
	// itself, the buffer behind the last solve's Result.Active, which this
	// solve overwrites.
	var links []int
	if pre > 0 {
		if src == ent {
			ws.activeIdx = slices.Grow(ws.activeIdx[:0], k-pre)
			links = ws.activeIdx[:k-pre]
		} else {
			ent.ids = slices.Grow(ent.ids[:0], k)
			links = ent.ids[:k-pre]
		}
		r := pre
		for i := pre; i < k; i++ {
			for r < len(src.ids) && src.ids[r] < workIDs[i] {
				r++
			}
			links[i-pre] = -1
			if r < len(src.ids) && src.ids[r] == workIDs[i] {
				links[i-pre] = r
			}
		}
	}
	// Assemble from the per-pair entry cache, which persists across
	// iterations and solves, only the lower-triangle entries of S
	// (s_ij = aᵢᵀ·H⁻¹·aⱼ) that FactorFrom reads.
	ws.schurBuf = mat.ReuseDense(ws.schurBuf, k, k)
	for i := pre; i < k; i++ {
		row := ws.schurBuf.RowView(i)
		j0 := 0
		if links != nil && links[i-pre] >= 0 {
			j0 = pre
		}
		for j := j0; j <= i; j++ {
			idx := pairIndex(workIDs[j], workIDs[i])
			v := ws.schurV[idx]
			if !ws.schurSet[idx] {
				v = p.rowDot(mEq, workIDs[j], z[i])
				ws.schurV[idx] = v
				ws.schurSet[idx] = true
			}
			row[j] = v
		}
	}
	ent.ids = ent.ids[:0] // invalid until the factorization succeeds
	if err := ent.chol.FactorFrom(ws.schurBuf, &src.chol, pre, links); err != nil {
		return fmt.Errorf("qp: singular KKT system: %w", err)
	}
	//lint:ignore hotalloc grow-only id key: reaches steady size, then reused
	ent.ids = append(ent.ids, workIDs...)
	return nil
}

// denseKKTStep is the fallback for semidefinite H: factor the full
// indefinite KKT matrix with partial-pivoted LU. The working-set rows fill
// it from their nonzeros; the rest stays the +0 of mat.Zeros.
func denseKKTStep(p *Problem, workIDs []int, mEq int, grad []float64, n int) (dir, lam []float64, err error) {
	rows := len(workIDs)
	kkt := mat.Zeros(n+rows, n+rows)
	kkt.SetBlock(0, 0, p.H)
	for r, id := range workIDs {
		a, i := p.row(mEq, id)
		idx, val := a.RowNNZ(i)
		for k, j := range idx {
			kkt.Set(n+r, j, val[k])
			kkt.Set(j, n+r, val[k])
		}
	}
	rhs := make([]float64, n+rows)
	for i := 0; i < n; i++ {
		rhs[i] = -grad[i]
	}
	sol, err := mat.SolveVec(kkt, rhs)
	if err != nil {
		return nil, nil, fmt.Errorf("qp: singular KKT system: %w", err)
	}
	return sol[:n], sol[n:], nil
}

// pairIndex is the packed upper-triangle index of the id pair a ≤ b in the
// Schur pair cache; pairIndex(0, n) is the cache size for n ids.
func pairIndex(a, b int) int { return b*(b+1)/2 + a }

// schurFactorEntry is one cached Schur factorization: the exact working-set
// id sequence it was built for and the Cholesky factor of its S. An empty
// ids marks the entry invalid (fresh, or its last factorization failed).
type schurFactorEntry struct {
	ids  []int
	chol mat.Cholesky
}

// schurFactorCache caches the factorized Schur complement per kktStep call
// index within a solve: the working set evolves identically across
// steady-state re-solves, so call index c sees the same id sequence every
// solve and its factor can be reused verbatim. The entries never
// invalidate each other; a call whose ids differ refactors its own slot,
// starting from its old factor or the previous call's (refactorSchur).
type schurFactorCache struct {
	entries []*schurFactorEntry
	call    int
}

// beginSolve rewinds the call counter; each kktStep claims the next slot.
func (c *schurFactorCache) beginSolve() { c.call = 0 }

// endSolve drops the entries of the call indices the solve did not reach,
// so their factors can be freed.
func (c *schurFactorCache) endSolve() {
	clear(c.entries[c.call:])
	c.entries = c.entries[:c.call]
}

// next returns (growing on demand) the entry for the current call index.
//
//lint:hotsafe grow-only slot list: one append per call index, then reused
func (c *schurFactorCache) next() *schurFactorEntry {
	if c.call >= len(c.entries) {
		//lint:ignore hotalloc grow-only cache: one entry per call index, then reused every solve
		c.entries = append(c.entries, &schurFactorEntry{})
	}
	e := c.entries[c.call]
	c.call++
	return e
}

// prev returns the entry of the call before the one next last returned,
// or nil for the first call of a solve.
func (c *schurFactorCache) prev() *schurFactorEntry {
	if c.call < 2 {
		return nil
	}
	return c.entries[c.call-2]
}

// commonPrefix returns how many leading ids a and b share.
//
//lint:hotsafe integer comparison loop, no allocation
func commonPrefix(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// nzEntry is one nonzero of a compressed Gram–Schmidt basis vector.
type nzEntry struct {
	col int
	v   float64
}

// pruneEntry is one processed working-set row: its id and its orthonormal
// contribution to the Gram–Schmidt basis, stored as its nonzeros in
// ascending column order (nil when the row stayed in the working set
// without contributing, i.e. a dependent equality row).
type pruneEntry struct {
	id  int
	vec []nzEntry
	// pruned records a dependent-row rejection. The entry holds no basis
	// vector (vec is nil), so it never enters the orthogonalization; caching
	// it lets a steady-state re-solve replay the rejection without redoing
	// the Gram–Schmidt pass.
	pruned bool
}

// pruneState caches the sequential Gram–Schmidt decisions of
// pruneDependent. Entries mirror the processing order (equalities, then
// active inequalities ascending); a decision at position k depends only on
// the accepted rows before it, so while the id sequence matches, both the
// decision and the basis vector are exactly what a cold run would compute —
// reuse is bit-identical. The first position where the working set differs
// invalidates the cached suffix. An active-set loop prunes only its
// starting working set, so a steady-state re-solve from the same start
// replays the whole sequence without recomputing or allocating.
type pruneState struct {
	entries []pruneEntry
	// r is residualOf's dense residual scratch, so a row that ends up
	// pruned allocates nothing.
	r []float64
}

// residualOf orthogonalizes row i of a (twice, for numerical robustness)
// against the basis vectors of the entries in basis; it returns the
// nonzeros of the normalized residual, or nil when the row is numerically
// dependent.
//
// The residual is the row scattered into dense scratch, but each dot
// product and each update walks only one basis vector's nonzeros, and the
// result is bit for bit the dense modified Gram–Schmidt's. A dense dot
// adds r[k]·v[k] = ±0 wherever v[k] is 0; the sum starts at +0 and adding
// ±0 never changes it (round-to-nearest never turns a +0 sum into −0). A
// dense update subtracts dot·0 = ±0 there, which leaves r[k] unchanged
// (the scattered row holds +0, never −0, and x − x = +0), and a zero dot
// changes nothing at all, so it skips the update.
func (ps *pruneState) residualOf(a *mat.SparseRows, i int, basis []pruneEntry) []nzEntry {
	ps.r = mat.GrowVec(ps.r, a.Cols())
	r := ps.r
	a.ScatterRowInto(r, i)
	norm0 := mat.NormVec(r)
	//lint:ignore floateq an exactly-zero row has no direction and must be rejected
	if norm0 == 0 {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for _, e := range basis {
			var dot float64
			for _, nz := range e.vec {
				dot += r[nz.col] * nz.v
			}
			//lint:ignore floateq only an exact zero skips: subtracting 0·v leaves r unchanged
			if dot == 0 {
				continue
			}
			for _, nz := range e.vec {
				r[nz.col] -= dot * nz.v
			}
		}
	}
	nr := mat.NormVec(r)
	if nr <= 1e-10*norm0 {
		return nil
	}
	inv := 1 / nr
	nnz := 0
	for k := range r {
		r[k] *= inv
		//lint:ignore floateq the compressed vector keeps exactly the nonzero entries
		if r[k] != 0 {
			nnz++
		}
	}
	//lint:ignore hotalloc cache miss: the kept vector outlives the call inside the cache; steady-state re-solves replay it
	vec := make([]nzEntry, nnz)
	t := 0
	for k, v := range r {
		//lint:ignore floateq the compressed vector keeps exactly the nonzero entries
		if v != 0 {
			vec[t] = nzEntry{col: k, v: v}
			t++
		}
	}
	return vec
}

// pruneDependent removes active inequality constraints whose normals are
// linearly dependent with the equality rows and earlier active rows, keeping
// the KKT system nonsingular. Independence is tested by incremental
// modified Gram–Schmidt over compressed basis vectors (residualOf); with a
// warm pruneState only the rows at and after the first working-set change
// are re-orthogonalized.
func pruneDependent(aeq, ain *mat.SparseRows, active []bool, mEq int, ps *pruneState) {
	entries := ps.entries
	pos := 0
	// process advances the cached prefix through candidate row id, row i
	// of a, and reports whether the row stays in the working set.
	process := func(id int, a *mat.SparseRows, i int, keepDependent bool) bool {
		if pos < len(entries) && entries[pos].id == id {
			// Same row after the same prefix: decision (and basis vector,
			// when kept) reused.
			kept := !entries[pos].pruned
			pos++
			return kept
		}
		// The cached suffix is invalid from here on. Clear it, or the
		// backing array past the new length would keep its basis vectors
		// alive.
		clear(entries[pos:])
		vec := ps.residualOf(a, i, entries[:pos])
		pruned := vec == nil && !keepDependent
		entries = append(entries[:pos], pruneEntry{id: id, vec: vec, pruned: pruned})
		pos++
		return !pruned
	}
	for i := 0; i < mEq; i++ {
		process(i, aeq, i, true) // equalities always stay
	}
	for i, a := range active {
		if !a {
			continue
		}
		if !process(mEq+i, ain, i, false) {
			active[i] = false
		}
	}
	// Entries beyond pos are kept: if those rows re-enter the working set
	// after an identical prefix, their decisions are still exact.
	ps.entries = entries
}

func dropAny(active []bool) bool {
	for i := len(active) - 1; i >= 0; i-- {
		if active[i] {
			active[i] = false
			return true
		}
	}
	return false
}

// activeList writes the ascending indices of the active set into the
// workspace-owned slice; nil when empty, matching the cold path's semantics.
func (ws *Workspace) activeList(active []bool) []int {
	ws.activeIdx = ws.activeIdx[:0]
	for i, a := range active {
		if a {
			//lint:ignore hotalloc grow-only scratch: backing array reaches steady size, then reused
			ws.activeIdx = append(ws.activeIdx, i)
		}
	}
	if len(ws.activeIdx) == 0 {
		return nil
	}
	return ws.activeIdx
}

// objective evaluates ½ xᵀH x + qᵀx through workspace scratch, with no
// fresh Hx vector.
func (ws *Workspace) objective(p *Problem, x []float64) float64 {
	ws.hxBuf = mat.GrowVec(ws.hxBuf, p.dim())
	if err := p.hMulVecInto(ws.hxBuf, x); err != nil {
		return math.NaN()
	}
	return 0.5*mat.Dot(x, ws.hxBuf) + mat.Dot(p.Q, x)
}

// feasible reports whether x satisfies all constraints within tol, one row
// dot at a time, with no Ax vector.
func (p *Problem) feasible(x []float64, tol float64) bool {
	for i := range p.Beq {
		if math.Abs(p.Aeq.RowDot(i, x)-p.Beq[i]) > tol {
			return false
		}
	}
	for i := range p.Bin {
		if p.Ain.RowDot(i, x) > p.Bin[i]+tol {
			return false
		}
	}
	return true
}

// phase1 holds the rows and the cost of findFeasible's LP over the
// variables x⁺, x⁻ and one elastic slack s per inequality: the rows
// [aᵢ, −aᵢ] of Aeq and [aᵢ, −aᵢ, −eᵢ] of Ain, and the cost 1 on each
// slack. They depend only on Aeq and Ain, which a workspace never sees
// change, so it builds them once, in one []int and one []float64.
type phase1 struct {
	ready  bool
	eq, in mat.SparseRows
	cost   []float64
}

// build fills ph for p, whose dimension is n.
func (ph *phase1) build(p *Problem, n int) error {
	mIn := rowCount(p.Ain)
	nv := 2*n + mIn
	// Each row holds its entries twice, and an inequality row its slack.
	nInts, nVals := 0, nv
	if p.Aeq != nil {
		nInts += p.Aeq.Rows() + 1 + 2*p.Aeq.NNZ()
		nVals += 2 * p.Aeq.NNZ()
	}
	if p.Ain != nil {
		nInts += mIn + 1 + 2*p.Ain.NNZ() + mIn
		nVals += 2*p.Ain.NNZ() + mIn
	}
	ints := make([]int, nInts)
	vals := make([]float64, nVals)
	ph.cost, vals = vals[:nv:nv], vals[nv:]
	for i := 0; i < mIn; i++ {
		ph.cost[2*n+i] = 1
	}
	var err error
	if p.Aeq != nil {
		if ph.eq, ints, vals, err = splitRows(p.Aeq, n, nv, -1, ints, vals); err != nil {
			return err
		}
	}
	if p.Ain != nil {
		if ph.in, _, _, err = splitRows(p.Ain, n, nv, 2*n, ints, vals); err != nil {
			return err
		}
	}
	ph.ready = true
	return nil
}

// splitRows builds the nv-wide rows [aᵢ, −aᵢ] of a (n columns) from the
// front of ints and vals, with −1 in column slack+i of row i when slack ≥ 0,
// and returns them with what is left of ints and vals.
func splitRows(a *mat.SparseRows, n, nv, slack int, ints []int, vals []float64) (mat.SparseRows, []int, []float64, error) {
	m, nnz := a.Rows(), 2*a.NNZ()
	if slack >= 0 {
		nnz += m
	}
	rowStart, idx := ints[:m+1:m+1], ints[m+1:m+1+nnz:m+1+nnz]
	val := vals[:nnz:nnz]
	k := 0
	for i := 0; i < m; i++ {
		rowStart[i] = k
		ai, av := a.RowNNZ(i)
		for e, j := range ai {
			idx[k], val[k] = j, av[e]
			k++
		}
		for e, j := range ai {
			idx[k], val[k] = n+j, -av[e]
			k++
		}
		if slack >= 0 {
			idx[k], val[k] = slack+i, -1
			k++
		}
	}
	rowStart[m] = k
	rows, err := mat.MakeSparseRows(nv, rowStart, idx, val)
	return rows, ints[m+1+nnz:], vals[nnz:], err
}

// rowCount returns a's row count; a nil matrix has none.
func rowCount(a *mat.SparseRows) int {
	if a == nil {
		return 0
	}
	return a.Rows()
}

// findFeasible runs an LP phase-1 with variable splitting x = x⁺ − x⁻ and
// elastic slacks on the inequalities, minimizing total slack, and writes
// the feasible x a zero optimum yields into x.
func (ws *Workspace) findFeasible(p *Problem, x []float64) error {
	n := p.dim()
	if !ws.ph1.ready {
		if err := ws.ph1.build(p, n); err != nil {
			return fmt.Errorf("qp: phase-1 rows: %w", err)
		}
	}
	// lp.Solve neither keeps nor writes Beq and Bub, so p's right-hand
	// sides go in without a copy.
	ph1 := lp.Problem{C: ws.ph1.cost, Beq: p.Beq, Bub: p.Bin}
	if p.Aeq != nil {
		ph1.Aeq = &ws.ph1.eq
	}
	if p.Ain != nil {
		ph1.Aub = &ws.ph1.in
	}
	res, err := lp.Solve(&ph1)
	if err != nil {
		return fmt.Errorf("qp: phase-1 LP: %w", err)
	}
	if res.Status != lp.Optimal || res.Obj > 1e-6 {
		return fmt.Errorf("qp: phase-1 LP status %v obj %g: %w", res.Status, res.Obj, ErrInfeasible)
	}
	for j := 0; j < n; j++ {
		x[j] = res.X[j] - res.X[n+j]
	}
	return nil
}

// LSProblem is a constrained weighted least-squares problem
//
//	minimize ‖M·x − d‖²_Wq + ‖x‖²_Wr
//
// with diagonal weights, subject to the same constraint groups as Problem.
// It is lowered to a QP via H = 2(MᵀWqM + Wr), q = −2 MᵀWq d.
type LSProblem struct {
	M *mat.Dense
	D []float64
	// Wq are the per-row tracking weights (length M.Rows()); nil means 1.
	Wq []float64
	// Wr are the per-variable regularization weights (length M.Cols());
	// nil means 0. For strict convexity either Wr > 0 or M full column rank.
	Wr []float64

	// Aeq, Beq, Ain, Bin and X0 are the constraint groups and the optional
	// start, as in Problem.
	Aeq *mat.SparseRows
	Beq []float64
	Ain *mat.SparseRows
	Bin []float64
	X0  []float64
}

// Lower converts the least-squares formulation to a quadratic program.
func (l *LSProblem) Lower() (*Problem, error) {
	if l.M == nil {
		return nil, fmt.Errorf("nil design matrix: %w", ErrBadProblem)
	}
	m, n := l.M.Rows(), l.M.Cols()
	if len(l.D) != m {
		return nil, fmt.Errorf("d has length %d, want %d: %w", len(l.D), m, ErrBadProblem)
	}
	if l.Wq != nil && len(l.Wq) != m {
		return nil, fmt.Errorf("wq has length %d, want %d: %w", len(l.Wq), m, ErrBadProblem)
	}
	if l.Wr != nil && len(l.Wr) != n {
		return nil, fmt.Errorf("wr has length %d, want %d: %w", len(l.Wr), n, ErrBadProblem)
	}
	// WqM = diag(wq)·M computed row-wise.
	wqm := l.M.Clone()
	if l.Wq != nil {
		for i := 0; i < m; i++ {
			w := l.Wq[i]
			for j := 0; j < n; j++ {
				wqm.Set(i, j, w*l.M.At(i, j))
			}
		}
	}
	h, err := mat.Mul(l.M.T(), wqm)
	if err != nil {
		return nil, err
	}
	h = mat.Scale(2, h)
	if l.Wr != nil {
		for j := 0; j < n; j++ {
			h.Set(j, j, h.At(j, j)+2*l.Wr[j])
		}
	}
	q, err := l.linearTerm()
	if err != nil {
		return nil, err
	}
	return &Problem{
		H: h, Q: q,
		Aeq: l.Aeq, Beq: l.Beq,
		Ain: l.Ain, Bin: l.Bin,
		X0: l.X0,
	}, nil
}

// linearTerm computes q = −2·MᵀWq·d, the only lowering product that depends
// on the residual d.
func (l *LSProblem) linearTerm() ([]float64, error) {
	wd := append([]float64{}, l.D...)
	if l.Wq != nil {
		for i := range wd {
			wd[i] *= l.Wq[i]
		}
	}
	mtd, err := mat.MulTVec(l.M, wd)
	if err != nil {
		return nil, err
	}
	return mat.ScaleVec(-2, mtd), nil
}

// LSForm caches the data-independent part of lowering an LSProblem. In
// dense mode (NewLSForm) that is the Hessian H = 2(MᵀWqM + Wr) for a fixed
// design matrix and fixed weights; in structured mode (NewStructuredLSForm)
// H is never materialized — the form holds the scaled design matrix, the
// diagonal D = 2·Wr and the prefactored capacitance matrix of the Woodbury
// identity instead (see structured.go). The linear term q = −2·MᵀWq·d
// varies with the residual and is recomputed per solve. The dense form's
// cached H is produced by the exact Lower arithmetic, so solving through it
// is bit-identical to solving without one; the structured form is a
// different algorithm and agrees to solver tolerance, not bitwise.
//
// A dense form is immutable and shareable; a structured form carries solve
// scratch and follows the Workspace concurrency contract (one goroutine).
type LSForm struct {
	m *mat.Dense
	h *mat.Dense

	// Structured mode (h == nil, sm != nil):
	sm   *mat.Dense // diag(√wq)·M
	diag []float64  // D = 2·wr
	dinv []float64  // 1/D
	// kchol factors K = ½I + SM·D⁻¹·SMᵀ, the Woodbury capacitance matrix.
	kchol mat.Cholesky
	// tm/tn are m- and n-length solve scratch.
	tm, tn []float64
}

// NewLSForm precomputes the lowering of (M, Wq, Wr).
func NewLSForm(m *mat.Dense, wq, wr []float64) (*LSForm, error) {
	if m == nil {
		return nil, fmt.Errorf("nil design matrix: %w", ErrBadProblem)
	}
	probe := &LSProblem{M: m, D: make([]float64, m.Rows()), Wq: wq, Wr: wr}
	p, err := probe.Lower()
	if err != nil {
		return nil, err
	}
	return &LSForm{m: m, h: p.H}, nil
}

// NewSharedLSForm returns a dense form over the design matrix m that shares
// the Hessian of the dense form from instead of lowering m again. The
// caller guarantees that NewLSForm(m, wq, wr), with the weights from was
// built for, would produce that Hessian bit for bit; only the shapes and
// the mode are checked. A workspace that served from stays valid for the
// new form, since the two share one H (see Workspace).
func NewSharedLSForm(m *mat.Dense, from *LSForm) (*LSForm, error) {
	if m == nil || from == nil || from.h == nil {
		return nil, fmt.Errorf("shared LS form needs a design matrix and a dense form: %w", ErrBadProblem)
	}
	if m.Rows() != from.m.Rows() || m.Cols() != from.m.Cols() {
		return nil, fmt.Errorf("design matrix %dx%d for a form over %dx%d: %w",
			m.Rows(), m.Cols(), from.m.Rows(), from.m.Cols(), ErrBadProblem)
	}
	return &LSForm{m: m, h: from.h}, nil
}

// Hessian returns the cached H (shared, not copied).
func (f *LSForm) Hessian() *mat.Dense { return f.h }

// SolveLSWith lowers and solves a constrained least-squares problem,
// reusing form's cached Hessian and ws's cross-solve caches when non-nil.
// The form must have been built from the same design matrix and weights as
// l (the matrix identity is checked, the weights are the caller's
// contract), and ws follows the Workspace validity contract. Results are
// bit-identical with or without the form and the workspace.
func SolveLSWith(l *LSProblem, form *LSForm, ws *Workspace) (*Result, error) {
	if form == nil {
		//lint:ignore hotalloc form-less fallback; hot callers pass a cached LSForm
		p, err := l.Lower()
		if err != nil {
			return nil, err
		}
		return SolveWith(p, ws)
	}
	if form.m != l.M {
		return nil, fmt.Errorf("LS form built for a different design matrix: %w", ErrBadProblem)
	}
	if len(l.D) != l.M.Rows() {
		return nil, fmt.Errorf("d has length %d, want %d: %w", len(l.D), l.M.Rows(), ErrBadProblem)
	}
	if l.Wq != nil && len(l.Wq) != l.M.Rows() {
		return nil, fmt.Errorf("wq has length %d, want %d: %w", len(l.Wq), l.M.Rows(), ErrBadProblem)
	}
	if ws == nil {
		//lint:ignore hotalloc cold path: steady-state callers pass a warm workspace
		ws = NewWorkspace()
	}
	q, err := l.linearTermInto(ws)
	if err != nil {
		return nil, err
	}
	ws.prob = Problem{
		H: form.h, Q: q,
		Aeq: l.Aeq, Beq: l.Beq,
		Ain: l.Ain, Bin: l.Bin,
		X0:   l.X0,
		form: form,
	}
	return SolveWith(&ws.prob, ws)
}

// linearTermInto is linearTerm evaluated through workspace scratch:
// identical arithmetic, reused buffers.
func (l *LSProblem) linearTermInto(ws *Workspace) ([]float64, error) {
	ws.wd = mat.GrowVec(ws.wd, len(l.D))
	wd := ws.wd
	copy(wd, l.D)
	if l.Wq != nil {
		for i := range wd {
			wd[i] *= l.Wq[i]
		}
	}
	ws.q = mat.GrowVec(ws.q, l.M.Cols())
	if err := mat.MulTVecInto(ws.q, l.M, wd); err != nil {
		return nil, err
	}
	mat.ScaleVecInto(ws.q, -2, ws.q)
	return ws.q, nil
}
