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
// one may leave X0 nil; Solve then runs an LP phase-1 (via internal/lp) with
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
type Problem struct {
	// H is the n-by-n symmetric positive definite Hessian.
	H *mat.Dense
	// Q is the linear term q (length n).
	Q []float64
	// Aeq, Beq define equality constraints.
	Aeq *mat.Dense
	Beq []float64
	// Ain, Bin define inequality constraints Ain·x ≤ bin.
	Ain *mat.Dense
	Bin []float64
	// AeqSparse/AinSparse optionally carry the same constraint matrices in
	// compressed-row form. When set they must match Aeq/Ain value for value;
	// the solver then routes its hot row dot products (initial active-set
	// detection, line search, Schur right-hand sides) through the sparse
	// rows — bit-identical to the dense dots, O(nnz) instead of O(n) per
	// row. The dense matrices are still required (Gram–Schmidt pruning and
	// the H⁻¹aᵢ solves read full rows).
	AeqSparse *mat.SparseRows
	AinSparse *mat.SparseRows
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
// Schur complements per working set, the Gram–Schmidt prune prefix and the
// materialized constraint rows. Reuse therefore cannot change a solution
// bit; it only skips recomputation. Exception: in structured mode the
// lastActive working-set hint shortens the iteration path, so a warm
// structured solve agrees with a cold one only to rounding.
//
// The replay caches stay bounded over a long-lived workspace:
//   - the per-call-index prune sequences and Schur factors keep only what
//     the last solve reached — SolveWith drops the call indices it did not;
//   - within a solve, a prune call starts from the previous call's sequence
//     when that shares a longer id prefix than its own cached one, so a cold
//     call re-orthogonalizes only from the inserted row onward;
//   - the Schur pair cache is stored packed, upper triangle only.
//
// Reusing a Workspace after H, Aeq or Ain changed produces wrong results —
// build a fresh one instead. A nil *Workspace is accepted everywhere and
// means "no cross-solve reuse". Not safe for concurrent use.
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
// Solve (nil ws) returns independently-owned results.
//
//lint:nocopy
type Workspace struct {
	hChol  *mat.Cholesky
	hReady bool
	// nIDs is the constraint-id space (mEq + mIn) of the problem this
	// workspace serves, fixed on the first solve; it sizes the id-indexed
	// caches below. Ids are dense small integers (equalities 0…mEq−1, then
	// inequalities mEq+i), so flat arrays replace the previous maps — map
	// hashing was the single largest cost of the steady-state solve.
	nIDs int
	// zByID caches H⁻¹aᵢ per working-set row id (nil = not yet computed).
	zByID [][]float64
	// schurV/schurSet cache aᵢᵀ·H⁻¹·aⱼ for the ascending id pair a ≤ b,
	// packed as the upper triangle at index b(b+1)/2 + a (pairIndex). Only
	// a ≤ b is ever read, so the (i≤j) orientation of each dot product is
	// stable and a cached value is the bit a fresh computation produces.
	schurV   []float64
	schurSet []bool
	// sfc caches the factorized Schur complement per kktStep call index —
	// the same per-call-index replay idea as pruneState below.
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
	// aeqRows/ainRows are the materialized constraint rows (Dense.Row
	// copies), filled lazily.
	aeqRows, ainRows [][]float64

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
	workRows    [][]float64
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

// rows materializes (and caches) the constraint rows of p as views into the
// constraint matrices — no copies, so planet-scale row sets cost pointers
// only. The views share the matrices' backing storage, which is safe under
// the workspace contract: Aeq/Ain are fixed for the workspace's lifetime
// and the solver never writes through a row.
func (ws *Workspace) rows(p *Problem) (aeqRows, ainRows [][]float64) {
	if ws.aeqRows == nil && p.Aeq != nil {
		//lint:ignore hotalloc one-time row-cache fill; every later solve reuses the rows
		ws.aeqRows = make([][]float64, p.Aeq.Rows())
		for i := range ws.aeqRows {
			ws.aeqRows[i] = p.Aeq.RowView(i)
		}
	}
	if ws.ainRows == nil && p.Ain != nil {
		//lint:ignore hotalloc one-time row-cache fill; every later solve reuses the rows
		ws.ainRows = make([][]float64, p.Ain.Rows())
		for i := range ws.ainRows {
			ws.ainRows[i] = p.Ain.RowView(i)
		}
	}
	return ws.aeqRows, ws.ainRows
}

// Validate checks dimensional consistency.
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
	if p.AeqSparse != nil && (p.Aeq == nil || p.AeqSparse.Rows() != p.Aeq.Rows() || p.AeqSparse.Cols() != p.Aeq.Cols()) {
		return fmt.Errorf("AeqSparse does not match Aeq: %w", ErrBadProblem)
	}
	if p.AinSparse != nil && (p.Ain == nil || p.AinSparse.Rows() != p.Ain.Rows() || p.AinSparse.Cols() != p.Ain.Cols()) {
		return fmt.Errorf("AinSparse does not match Ain: %w", ErrBadProblem)
	}
	if len(p.Q) != n {
		return fmt.Errorf("q has length %d, want %d: %w", len(p.Q), n, ErrBadProblem)
	}
	if p.Aeq != nil && (p.Aeq.Cols() != n || p.Aeq.Rows() != len(p.Beq)) {
		return fmt.Errorf("Aeq %dx%d with Beq %d: %w", p.Aeq.Rows(), p.Aeq.Cols(), len(p.Beq), ErrBadProblem)
	}
	if p.Ain != nil && (p.Ain.Cols() != n || p.Ain.Rows() != len(p.Bin)) {
		return fmt.Errorf("Ain %dx%d with Bin %d: %w", p.Ain.Rows(), p.Ain.Cols(), len(p.Bin), ErrBadProblem)
	}
	if p.X0 != nil && len(p.X0) != n {
		return fmt.Errorf("X0 has length %d, want %d: %w", len(p.X0), n, ErrBadProblem)
	}
	return nil
}

// Objective evaluates ½ xᵀH x + qᵀx.
func (p *Problem) Objective(x []float64) float64 {
	hx, err := mat.MulVec(p.H, x)
	if err != nil {
		return math.NaN()
	}
	return 0.5*mat.Dot(x, hx) + mat.Dot(p.Q, x)
}

// Solve runs the active-set method with no cross-solve reuse.
//
//lint:hotpath
func Solve(p *Problem) (*Result, error) { return SolveWith(p, nil) }

// SolveWith runs the active-set method, reusing the Workspace caches when
// ws is non-nil (see Workspace for the validity contract). Results are
// bit-identical to Solve.
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
	n := p.dim()
	ws.x0buf = mat.GrowVec(ws.x0buf, n)
	x := ws.x0buf
	for i := range x {
		x[i] = 0
	}
	if p.X0 != nil {
		copy(x, p.X0)
		if !ws.feasible(p, x, featol) {
			//lint:ignore hotalloc cold start: phase-1 LP runs only when the warm start is infeasible
			fx, err := findFeasible(p)
			if err != nil {
				return nil, err
			}
			x = fx
		}
	} else if p.Aeq != nil || p.Ain != nil {
		//lint:ignore hotalloc cold start: no warm-start point was supplied at all
		fx, err := findFeasible(p)
		if err != nil {
			return nil, err
		}
		x = fx
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
		// The id-indexed caches are sized once: the constraint set is fixed
		// for the workspace's lifetime (see the reuse contract above).
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.zByID = make([][]float64, need)
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.schurV = make([]float64, pairIndex(0, need))
		//lint:ignore hotalloc sized on the first solve through the workspace, then reused
		ws.schurSet = make([]bool, pairIndex(0, need))
		ws.nIDs = need
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
	// Keep only the replay entries this solve reached: a workspace lives as
	// long as its model, and one cold solve's extra call indices would
	// otherwise stay allocated through every shorter warm solve after it.
	ws.prune.endSolve()
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
	aeqRows, ainRows := ws.rows(p)

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
		if math.Abs(rowDotID(p, mEq, mEq+i, ainRows[i], x)-p.Bin[i]) <= featol {
			active[i] = !useHint || ws.lastActive[i]
		}
	}
	ws.prune.beginSolve()
	ws.sfc.beginSolve()
	pruneDependent(aeqRows, ainRows, active, mEq, &ws.prune)

	maxIters := 100 + 20*(n+mEq+mIn)
	fullSteps := 0
	for iter := 0; iter < maxIters; iter++ {
		dir, lam, err := kktStep(p, hs, ws, aeqRows, ainRows, x, active, mEq)
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
			row := ainRows[i]
			ad := rowDotID(p, mEq, mEq+i, row, dir)
			if ad <= featol {
				continue
			}
			slack := p.Bin[i] - rowDotID(p, mEq, mEq+i, row, x)
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
			pruneDependent(aeqRows, ainRows, active, mEq, &ws.prune)
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
func kktStep(p *Problem, hs hSolver, ws *Workspace, aeqRows, ainRows [][]float64, x []float64, active []bool, mEq int) (dir, lam []float64, err error) {
	n := p.dim()
	workRows := ws.workRows[:0]
	workIDs := ws.workIDs[:0]
	for i := 0; i < mEq; i++ {
		//lint:ignore hotalloc grow-only scratch: backing arrays reach steady size, then reused
		workRows = append(workRows, aeqRows[i])
		//lint:ignore hotalloc grow-only scratch: backing arrays reach steady size, then reused
		workIDs = append(workIDs, i)
	}
	for i, a := range active {
		if a {
			//lint:ignore hotalloc grow-only scratch: backing arrays reach steady size, then reused
			workRows = append(workRows, ainRows[i])
			//lint:ignore hotalloc grow-only scratch: backing arrays reach steady size, then reused
			workIDs = append(workIDs, mEq+i)
		}
	}
	ws.workRows, ws.workIDs = workRows, workIDs
	ws.grad = mat.GrowVec(ws.grad, n)
	grad := ws.grad
	if err := p.hMulVecInto(grad, x); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		grad[i] += p.Q[i]
	}

	if hs != nil {
		dir, lam, err = schurStep(p, hs, ws, workRows, workIDs, grad, n, mEq)
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
	return denseKKTStep(p, workRows, grad, n)
}

// schurStep solves the KKT system via the Schur complement of the cached
// H⁻¹ apply (dense Cholesky factor or structured Woodbury form).
func schurStep(p *Problem, hs hSolver, ws *Workspace, workRows [][]float64, workIDs []int, grad []float64, n, mEq int) (dir, lam []float64, err error) {
	// y = −H⁻¹·grad is the unconstrained Newton step.
	ws.negGrad = mat.GrowVec(ws.negGrad, n)
	mat.ScaleVecInto(ws.negGrad, -1, grad)
	ws.y = mat.GrowVec(ws.y, n)
	y := ws.y
	if err := hs.SolveVecInto(y, ws.negGrad); err != nil {
		return nil, nil, fmt.Errorf("qp: H solve: %w", err)
	}
	k := len(workRows)
	if k == 0 {
		return y, nil, nil
	}
	// Z = H⁻¹·Awᵀ column by column, cached per constraint id for the
	// lifetime of the workspace (H does not change while it is valid).
	// Cache misses allocate their vector — it must outlive the call inside
	// the cache.
	if cap(ws.zrows) < k {
		//lint:ignore hotalloc grow-only scratch: allocates only until the steady size is reached
		ws.zrows = make([][]float64, k)
	}
	z := ws.zrows[:k] // z[i] = H⁻¹·a_i
	for i, row := range workRows {
		if cached := ws.zByID[workIDs[i]]; cached != nil {
			z[i] = cached
			continue
		}
		//lint:ignore hotalloc cache miss: the vector must outlive the call inside the cache
		zi := make([]float64, n)
		if err := hs.SolveVecInto(zi, row); err != nil {
			return nil, nil, fmt.Errorf("qp: H solve: %w", err)
		}
		ws.zByID[workIDs[i]] = zi
		z[i] = zi
	}
	// Factorized Schur complement, cached per kktStep call index: a
	// steady-state re-solve replays the same working-set evolution, so when
	// this call's id sequence matches the last solve's, the cached factor
	// IS the factor a rebuild would produce (the S it factored was
	// assembled from the same cached entries) — skip both the assembly and
	// the Cholesky, which dominated the per-iteration cost.
	ent := ws.sfc.next()
	if !sameIDs(ent.ids, workIDs) {
		ent.ids = ent.ids[:0] // invalid until Factor succeeds
		// Assemble S (s_ij = aᵢᵀ·H⁻¹·aⱼ) from the per-pair entry cache,
		// which persists across iterations and solves.
		ws.schurBuf = mat.ReuseDense(ws.schurBuf, k, k)
		schur := ws.schurBuf
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				idx := pairIndex(workIDs[i], workIDs[j])
				v := ws.schurV[idx]
				if !ws.schurSet[idx] {
					v = rowDotID(p, mEq, workIDs[i], workRows[i], z[j])
					ws.schurV[idx] = v
					ws.schurSet[idx] = true
				}
				schur.Set(i, j, v)
				schur.Set(j, i, v)
			}
		}
		if err := ent.chol.Factor(schur); err != nil {
			return nil, nil, fmt.Errorf("qp: singular KKT system: %w", err)
		}
		//lint:ignore hotalloc grow-only id key: reaches steady size, then reused
		ent.ids = append(ent.ids, workIDs...)
	}
	// S·λ = Aw·y.
	ws.rhs = mat.GrowVec(ws.rhs, k)
	rhs := ws.rhs
	for i, row := range workRows {
		rhs[i] = rowDotID(p, mEq, workIDs[i], row, y)
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
			rowAxpyID(p, mEq, id, workRows[i], -li, acc)
		}
		if err := hs.SolveVecInto(dir, acc); err != nil {
			return nil, nil, fmt.Errorf("qp: H solve: %w", err)
		}
		return dir, lam, nil
	}
	copy(dir, y)
	for i := 0; i < k; i++ {
		li := lam[i]
		//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
		if li == 0 {
			continue
		}
		zi := z[i]
		for t := 0; t < n; t++ {
			dir[t] -= li * zi[t]
		}
	}
	return dir, lam, nil
}

// denseKKTStep is the fallback for semidefinite H: factor the full
// indefinite KKT matrix with partial-pivoted LU.
func denseKKTStep(p *Problem, workRows [][]float64, grad []float64, n int) (dir, lam []float64, err error) {
	rows := len(workRows)
	kkt := mat.Zeros(n+rows, n+rows)
	kkt.SetBlock(0, 0, p.H)
	for r, row := range workRows {
		for j, v := range row {
			kkt.Set(n+r, j, v)
			kkt.Set(j, n+r, v)
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
// ids marks the entry invalid (fresh, or its last Factor failed).
type schurFactorEntry struct {
	ids  []int
	chol mat.Cholesky
}

// schurFactorCache caches the factorized Schur complement per kktStep call
// index within a solve — the per-call-index replay idea of pruneState: the
// working set evolves identically across steady-state re-solves, so call
// index c sees the same id sequence every solve and its factor can be
// reused verbatim. The entries never invalidate each other; a call whose
// ids differ simply refactors its own slot.
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

// sameIDs reports whether a and b hold the same id sequence.
//
//lint:hotsafe integer comparison loop, no allocation
func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pruneEntry is one processed working-set row: its id and its orthonormal
// contribution to the Gram–Schmidt basis (nil when the row stayed in the
// working set without contributing, i.e. a dependent equality row).
type pruneEntry struct {
	id  int
	vec []float64
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
// invalidates the cached suffix.
//
// The working set evolves across the several pruneDependent calls of one
// active-set solve, so a single shared sequence would be truncated and
// rebuilt on every call. Instead each call index within a solve owns its
// own cached sequence: a steady-state re-solve replays the same evolution
// and hits every cache position, making the whole solve recompute- and
// allocation-free. A call whose cached sequence diverges early starts from
// the previous call's sequence instead when that one shares a longer
// prefix: entries for an identical id prefix are identical, and their
// vectors are never written after creation, so the copy shares them
// exactly.
type pruneState struct {
	seqs [][]pruneEntry
	call int
}

// beginSolve rewinds the per-solve call counter so the first
// pruneDependent call of this solve replays the first call of the last one.
func (ps *pruneState) beginSolve() { ps.call = 0 }

// endSolve drops the sequences of the call indices the solve did not reach,
// so their basis vectors can be freed.
func (ps *pruneState) endSolve() {
	clear(ps.seqs[ps.call:])
	ps.seqs = ps.seqs[:ps.call]
}

// sharedPrefix returns how many leading entries of seq match the id order
// pruneDependent processes: the equalities 0…mEq−1, then the active
// inequalities ascending.
func sharedPrefix(seq []pruneEntry, active []bool, mEq int) int {
	n := 0
	for i := 0; i < mEq; i++ {
		if n == len(seq) || seq[n].id != i {
			return n
		}
		n++
	}
	for i, a := range active {
		if !a {
			continue
		}
		if n == len(seq) || seq[n].id != mEq+i {
			return n
		}
		n++
	}
	return n
}

// pruneDependent removes active inequality constraints whose normals are
// linearly dependent with the equality rows and earlier active rows, keeping
// the KKT system nonsingular. Independence is tested by incremental
// modified Gram–Schmidt; with a warm pruneState only the rows at and after
// the first working-set change are re-orthogonalized.
func pruneDependent(aeqRows, ainRows [][]float64, active []bool, mEq int, ps *pruneState) {
	if ps.call >= len(ps.seqs) {
		//lint:ignore hotalloc grow-only cache: one sequence per call index, then reused
		ps.seqs = append(ps.seqs, nil)
	}
	entries := ps.seqs[ps.call]
	if ps.call > 0 {
		prev := ps.seqs[ps.call-1]
		if k := sharedPrefix(prev, active, mEq); k > sharedPrefix(entries, active, mEq) {
			//lint:ignore hotalloc replay miss: copies the previous call's entries, not their vectors
			entries = append(entries[:0], prev[:k]...)
		}
	}
	pos := 0
	// residualOf orthogonalizes row (twice, for numerical robustness)
	// against the accepted basis prefix; it returns the normalized residual,
	// or nil when the row is numerically dependent.
	residualOf := func(row []float64) []float64 {
		norm0 := mat.NormVec(row)
		//lint:ignore floateq an exactly-zero row has no direction and must be rejected
		if norm0 == 0 {
			return nil
		}
		//lint:ignore hotalloc cache miss: steady-state re-solves replay cached decisions instead
		r := append([]float64{}, row...)
		for pass := 0; pass < 2; pass++ {
			for _, e := range entries[:pos] {
				if e.vec == nil {
					continue
				}
				dot := mat.Dot(r, e.vec)
				for k := range r {
					r[k] -= dot * e.vec[k]
				}
			}
		}
		nr := mat.NormVec(r)
		if nr <= 1e-10*norm0 {
			return nil
		}
		inv := 1 / nr
		for k := range r {
			r[k] *= inv
		}
		return r
	}
	// process advances the cached prefix through one candidate row and
	// reports whether the row stays in the working set.
	process := func(id int, row []float64, keepDependent bool) bool {
		if pos < len(entries) && entries[pos].id == id {
			// Same row after the same prefix: decision (and basis vector,
			// when kept) reused.
			kept := !entries[pos].pruned
			pos++
			return kept
		}
		vec := residualOf(row)
		pruned := vec == nil && !keepDependent
		entries = append(entries[:pos], pruneEntry{id: id, vec: vec, pruned: pruned})
		pos++
		return !pruned
	}
	for i := 0; i < mEq; i++ {
		process(i, aeqRows[i], true) // equalities always stay
	}
	for i, a := range active {
		if !a {
			continue
		}
		if !process(mEq+i, ainRows[i], false) {
			active[i] = false
		}
	}
	// Entries beyond pos are kept: if those rows re-enter the working set
	// after an identical prefix, their decisions are still exact.
	ps.seqs[ps.call] = entries
	ps.call++
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

// objective is Problem.Objective evaluated through workspace scratch: the
// same Hx product and dot products, without the fresh Hx vector.
func (ws *Workspace) objective(p *Problem, x []float64) float64 {
	ws.hxBuf = mat.GrowVec(ws.hxBuf, p.dim())
	if err := p.hMulVecInto(ws.hxBuf, x); err != nil {
		return math.NaN()
	}
	return 0.5*mat.Dot(x, ws.hxBuf) + mat.Dot(p.Q, x)
}

// feasible is the package-level feasible check through the workspace's
// materialized rows: the same per-row dot products, no Ax vector.
func (ws *Workspace) feasible(p *Problem, x []float64, tol float64) bool {
	aeqRows, ainRows := ws.rows(p)
	mEq := len(aeqRows)
	for i, row := range aeqRows {
		if math.Abs(rowDotID(p, mEq, i, row, x)-p.Beq[i]) > tol {
			return false
		}
	}
	for i, row := range ainRows {
		if rowDotID(p, mEq, mEq+i, row, x) > p.Bin[i]+tol {
			return false
		}
	}
	return true
}

// feasible reports whether x satisfies all constraints within tol.
func feasible(p *Problem, x []float64, tol float64) bool {
	if p.Aeq != nil {
		ax, err := mat.MulVec(p.Aeq, x)
		if err != nil {
			return false
		}
		for i, v := range ax {
			if math.Abs(v-p.Beq[i]) > tol {
				return false
			}
		}
	}
	if p.Ain != nil {
		ax, err := mat.MulVec(p.Ain, x)
		if err != nil {
			return false
		}
		for i, v := range ax {
			if v > p.Bin[i]+tol {
				return false
			}
		}
	}
	return true
}

// findFeasible runs an LP phase-1 with variable splitting x = x⁺ − x⁻ and
// elastic slacks on the inequalities, minimizing total slack. A zero optimum
// yields a feasible x.
func findFeasible(p *Problem) ([]float64, error) {
	n := p.dim()
	mIn := 0
	if p.Ain != nil {
		mIn = p.Ain.Rows()
	}
	nv := 2*n + mIn // x⁺, x⁻, s
	c := make([]float64, nv)
	for i := 0; i < mIn; i++ {
		c[2*n+i] = 1
	}
	// split writes row src into dst as [src, −src], leaving dst's tail.
	split := func(dst, src []float64) {
		copy(dst, src)
		neg := dst[n : 2*n]
		for j, v := range src {
			neg[j] = -v
		}
	}
	// lp.Solve neither keeps nor writes Beq and Bub, so p's right-hand
	// sides go in without a copy.
	ph1 := &lp.Problem{C: c}
	if p.Aeq != nil {
		ph1.Aeq, ph1.Beq = mat.Zeros(p.Aeq.Rows(), nv), p.Beq
		for i := 0; i < p.Aeq.Rows(); i++ {
			split(ph1.Aeq.RowView(i), p.Aeq.RowView(i))
		}
	}
	if p.Ain != nil {
		ph1.Aub, ph1.Bub = mat.Zeros(mIn, nv), p.Bin
		for i := 0; i < mIn; i++ {
			row := ph1.Aub.RowView(i)
			split(row, p.Ain.RowView(i))
			row[2*n+i] = -1
		}
	}
	res, err := lp.Solve(ph1)
	if err != nil {
		return nil, fmt.Errorf("qp: phase-1 LP: %w", err)
	}
	if res.Status != lp.Optimal || res.Obj > 1e-6 {
		return nil, fmt.Errorf("qp: phase-1 LP status %v obj %g: %w", res.Status, res.Obj, ErrInfeasible)
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = res.X[j] - res.X[n+j]
	}
	return x, nil
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

	Aeq *mat.Dense
	Beq []float64
	Ain *mat.Dense
	Bin []float64
	// AeqSparse/AinSparse optionally mirror Aeq/Ain in compressed-row form;
	// see Problem.AeqSparse for the contract.
	AeqSparse *mat.SparseRows
	AinSparse *mat.SparseRows
	X0        []float64
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

// Hessian returns the cached H (shared, not copied).
func (f *LSForm) Hessian() *mat.Dense { return f.h }

// SolveLS lowers and solves a constrained least-squares problem.
func SolveLS(l *LSProblem) (*Result, error) { return SolveLSWith(l, nil, nil) }

// SolveLSWith lowers and solves l, reusing form's cached Hessian and ws's
// cross-solve caches when non-nil. The form must have been built from the
// same design matrix and weights as l (the matrix identity is checked, the
// weights are the caller's contract), and ws follows the Workspace validity
// contract. Results are bit-identical to SolveLS.
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
		AeqSparse: l.AeqSparse, AinSparse: l.AinSparse,
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
