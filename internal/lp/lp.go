// Package lp implements a dense two-phase primal simplex solver for linear
// programs of the form
//
//	minimize    cᵀx
//	subject to  Aeq·x  = beq
//	            Aub·x ≤ bub
//	            x ≥ 0
//
// It is used for the per-step electricity-cost reference optimizer
// (Rao et al., INFOCOM'10 — eq. (46) of the paper) and as the "optimal
// method" baseline in the experiments. Problems in this project are small
// (tens of variables), so a dense tableau with Bland anti-cycling is both
// simple and robust.
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// The simplex tableau stores exact unit and zero entries by construction
// (identity columns, cleared rows, phase costs), and the pivot rules test
// them bit-exactly; tolerance comparisons here would corrupt basis
// bookkeeping. Exact float comparison is therefore sanctioned file-wide.
//
//lint:allow floateq

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	IterationLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBadProblem is returned for structurally invalid inputs.
var ErrBadProblem = errors.New("lp: malformed problem")

// Problem is a linear program in the package's canonical form. Any of the
// constraint groups may be nil/empty. By default all variables are
// nonnegative; Lo/Hi override that per variable.
type Problem struct {
	// C is the cost vector; its length fixes the number of variables.
	C []float64
	// Aeq, Beq define equality constraints Aeq·x = Beq.
	Aeq *mat.Dense
	Beq []float64
	// Aub, Bub define inequality constraints Aub·x ≤ Bub.
	Aub *mat.Dense
	Bub []float64
	// Lo, Hi optionally give per-variable bounds lo ≤ x ≤ hi. Nil means the
	// default x ≥ 0 for every variable (Lo all zero, Hi all +Inf); non-nil
	// slices must have one entry per variable. Lower bounds must be finite
	// (shift the variable if a genuinely free one is needed); upper bounds
	// may be +Inf. Bounded problems are handled natively by the revised
	// solver — the dense tableau path rejects them, so Solve routes any
	// bounded problem to the revised method regardless of size.
	Lo []float64
	Hi []float64
}

// hasBounds reports whether p carries explicit variable bounds.
func (p *Problem) hasBounds() bool { return p.Lo != nil || p.Hi != nil }

// lower returns variable j's lower bound.
func (p *Problem) lower(j int) float64 {
	if p.Lo == nil {
		return 0
	}
	return p.Lo[j]
}

// upper returns variable j's upper bound.
func (p *Problem) upper(j int) float64 {
	if p.Hi == nil {
		return math.Inf(1)
	}
	return p.Hi[j]
}

// Result holds a solve outcome. X is meaningful only when Status == Optimal.
type Result struct {
	Status     Status
	X          []float64
	Obj        float64
	Iterations int
	// DualsEq holds the equality constraints' dual prices (shadow prices):
	// the marginal change of the optimum per unit of Beq. Nil when the
	// solve did not reach optimality.
	DualsEq []float64
	// DualsUb holds the inequality constraints' dual prices (≤ 0 in this
	// minimization convention is impossible: they are ≥ 0 Lagrange
	// multipliers reported with the sign such that Obj ≈ Σ DualsEq·Beq +
	// Σ DualsUb·Bub for non-degenerate problems).
	DualsUb []float64
}

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("empty cost vector: %w", ErrBadProblem)
	}
	if p.Aeq != nil {
		if p.Aeq.Cols() != n {
			return fmt.Errorf("Aeq has %d cols, want %d: %w", p.Aeq.Cols(), n, ErrBadProblem)
		}
		if p.Aeq.Rows() != len(p.Beq) {
			return fmt.Errorf("Aeq has %d rows but Beq has %d: %w", p.Aeq.Rows(), len(p.Beq), ErrBadProblem)
		}
	} else if len(p.Beq) != 0 {
		return fmt.Errorf("Beq without Aeq: %w", ErrBadProblem)
	}
	if p.Aub != nil {
		if p.Aub.Cols() != n {
			return fmt.Errorf("Aub has %d cols, want %d: %w", p.Aub.Cols(), n, ErrBadProblem)
		}
		if p.Aub.Rows() != len(p.Bub) {
			return fmt.Errorf("Aub has %d rows but Bub has %d: %w", p.Aub.Rows(), len(p.Bub), ErrBadProblem)
		}
	} else if len(p.Bub) != 0 {
		return fmt.Errorf("Bub without Aub: %w", ErrBadProblem)
	}
	for i, v := range p.C {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("C[%d] = %v: %w", i, v, ErrBadProblem)
		}
	}
	for i, v := range p.Beq {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Beq[%d] = %v: %w", i, v, ErrBadProblem)
		}
	}
	for i, v := range p.Bub {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Bub[%d] = %v: %w", i, v, ErrBadProblem)
		}
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("Lo has length %d, want %d: %w", len(p.Lo), n, ErrBadProblem)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("Hi has length %d, want %d: %w", len(p.Hi), n, ErrBadProblem)
	}
	for j, v := range p.Lo {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Lo[%d] = %v (lower bounds must be finite): %w", j, v, ErrBadProblem)
		}
	}
	for j, v := range p.Hi {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return fmt.Errorf("Hi[%d] = %v: %w", j, v, ErrBadProblem)
		}
	}
	if p.hasBounds() {
		for j := 0; j < n; j++ {
			if p.lower(j) > p.upper(j) {
				return fmt.Errorf("empty bound interval on variable %d: [%g, %g]: %w",
					j, p.lower(j), p.upper(j), ErrBadProblem)
			}
		}
	}
	return nil
}

const (
	pivotTol = 1e-9
	feasTol  = 1e-7
)

// blandAfter is the per-iterate() pivot count after which Dantzig pricing
// switches to Bland's rule to break cycles. A variable (not a const) so the
// degenerate-warm-start test can force the fallback early.
var blandAfter = 500

// Method selects a simplex implementation.
type Method int

// Solve methods. Auto picks the dense tableau for small default-bound
// problems (the paper-scale reference LPs, whose recorded iteration counts
// and pivot sequences it preserves bit-for-bit) and the revised simplex for
// large or explicitly bounded ones.
const (
	Auto Method = iota
	DenseTableau
	Revised
)

// revisedMinVars is the variable count at which Auto switches from the dense
// tableau (O(m·n) memory traffic per pivot over the whole tableau) to the
// revised simplex (work proportional to the basis size and column sparsity).
// The threshold sits above every checksummed paper-scale topology.
const revisedMinVars = 512

// methodFor resolves Auto against the problem's size and bounds.
func methodFor(p *Problem, m Method) Method {
	if m != Auto {
		return m
	}
	if p.hasBounds() || len(p.C) >= revisedMinVars {
		return Revised
	}
	return DenseTableau
}

// Solve runs the simplex method on p, selecting the implementation by size
// and bounds (see Method).
func Solve(p *Problem) (*Result, error) {
	return SolveMethod(p, Auto)
}

// SolveMethod runs the requested simplex implementation on p. The dense
// tableau does not support explicit variable bounds and rejects bounded
// problems with ErrBadProblem.
func SolveMethod(p *Problem, m Method) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch methodFor(p, m) {
	case Revised:
		rv, err := newRevised(p)
		if err != nil {
			return nil, err
		}
		return rv.run(), nil
	default:
		if p.hasBounds() {
			return nil, fmt.Errorf("dense tableau does not support variable bounds: %w", ErrBadProblem)
		}
		t := newTableau(p)
		res := t.run()
		return res, nil
	}
}

// tableau is a dense simplex tableau in standard form:
// rows = structural constraints, one column per variable (originals,
// slacks, artificials), plus a rhs column. It moves by pointer: a by-value
// copy would share the row storage with the original.
//
//lint:nocopy
type tableau struct {
	// a holds m rows of length nTotal+1 (last = rhs), cut from one backing
	// slab.
	a      [][]float64
	basis  []int // basis[r] = column basic in row r
	nOrig  int
	nSlack int
	nArt   int
	// nTotal is the column count excluding the rhs: the originals, one slack
	// per ≤ row, and one artificial per row that has no unit slack.
	nTotal int
	m      int
	mEq    int
	iters  int
	// artStart is the column index of the first artificial variable.
	artStart int
	// phase2Cost is the original objective padded with zeros to tableau width.
	phase2Cost []float64
	// flipped[r] records rows negated during rhs normalization (their dual
	// price changes sign).
	flipped []bool
	// artOfRow[r] is the artificial column created for row r, or −1.
	artOfRow []int
	// basicMark[j] mirrors basis membership during iterate so the pricing
	// loop tests O(1) per column instead of scanning basis (O(m)); lazily
	// sized, rebuilt at the top of each iterate call and maintained across
	// pivots.
	basicMark []bool
	// rc holds the reduced cost of every column under the current basis,
	// recomputed at each pivot of iterate; lazily sized like basicMark. When
	// iterate returns Optimal it holds the final basis's reduced costs,
	// which duals reads.
	rc []float64
	// blandPivots counts pivots taken under Bland's anti-cycling rule, across
	// the tableau's lifetime. Observability for the degenerate-warm-start test.
	blandPivots int
}

func newTableau(p *Problem) *tableau {
	nOrig := len(p.C)
	mEq := 0
	if p.Aeq != nil {
		mEq = p.Aeq.Rows()
	}
	mUb := 0
	if p.Aub != nil {
		mUb = p.Aub.Rows()
	}
	m := mEq + mUb
	nSlack := mUb
	// Every equality row needs an artificial, and so does every ≤ row with
	// a negative rhs: normalization flips it, so its slack becomes −1.
	nArt := mEq
	for _, b := range p.Bub {
		if b < 0 {
			nArt++
		}
	}
	nTotal := nOrig + nSlack + nArt
	t := &tableau{
		a:        make([][]float64, m),
		basis:    make([]int, m),
		nOrig:    nOrig,
		nSlack:   nSlack,
		nTotal:   nTotal,
		m:        m,
		mEq:      mEq,
		artStart: nOrig + nSlack,
		flipped:  make([]bool, m),
		artOfRow: make([]int, m),
	}
	w := nTotal + 1
	slab := make([]float64, m*w)
	for r := range t.a {
		t.a[r] = slab[r*w : (r+1)*w : (r+1)*w]
	}
	for r := 0; r < mEq; r++ {
		copy(t.a[r], p.Aeq.RowView(r))
		t.a[r][nTotal] = p.Beq[r]
	}
	for r := 0; r < mUb; r++ {
		row := t.a[mEq+r]
		copy(row, p.Aub.RowView(r))
		row[nOrig+r] = 1 // slack
		row[nTotal] = p.Bub[r]
	}
	// Normalize rhs ≥ 0.
	for r := 0; r < m; r++ {
		if t.a[r][nTotal] < 0 {
			for j := range t.a[r] {
				t.a[r][j] = -t.a[r][j]
			}
			t.flipped[r] = true
		}
	}
	// Initial basis: an unflipped ≤ row's slack is +1 in that row and 0
	// elsewhere; every other row gets the next artificial column.
	for r := 0; r < m; r++ {
		t.artOfRow[r] = -1
		if r >= mEq && !t.flipped[r] {
			t.basis[r] = nOrig + (r - mEq)
			continue
		}
		col := t.artStart + t.nArt
		t.nArt++
		t.a[r][col] = 1
		t.basis[r] = col
		t.artOfRow[r] = col
	}
	t.phase2Cost = make([]float64, nTotal)
	copy(t.phase2Cost, p.C)
	return t
}

// rhsCol is the rhs column index. It must not read t.a: a problem with no
// constraint rows has an empty tableau but still runs phase 2 (x = 0 is
// optimal for c ≥ 0, otherwise the LP is unbounded).
func (t *tableau) rhsCol() int { return t.nTotal }

// run executes phase 1 (if artificials exist) and phase 2, returning the
// result in terms of the original variables. Phase 1 minimizes the sum of
// the artificials, phase 2 the original objective.
func (t *tableau) run() *Result {
	// No cost row is carried through the pivots: iterate recomputes the
	// reduced costs from the current basis at every pivot, which avoids
	// cost-row drift.
	if t.nArt > 0 {
		cost := make([]float64, t.rhsCol())
		for j := t.artStart; j < t.artStart+t.nArt; j++ {
			cost[j] = 1
		}
		st := t.iterate(cost, math.Inf(1))
		if st == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded here means
			// a numerical breakdown.
			return &Result{Status: Infeasible, Iterations: t.iters}
		}
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iterations: t.iters}
		}
		if obj := t.objective(cost); obj > feasTol {
			return &Result{Status: Infeasible, Iterations: t.iters}
		}
		t.driveOutArtificials()
	}
	return t.phase2()
}

// phase2 runs phase-2 pivots from the current basis under t.phase2Cost and
// extracts the result. Artificials never re-enter: the entering scan skips
// them. The cold path (run) and the warm-start path (Solver) share it, so
// both produce results via the same pivot rule, tolerances, and extraction
// code.
func (t *tableau) phase2() *Result {
	st := t.iterate(t.phase2Cost, math.Inf(1))
	switch st {
	case Unbounded:
		//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
		return &Result{Status: Unbounded, Iterations: t.iters}
	case IterationLimit:
		//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
		return &Result{Status: IterationLimit, Iterations: t.iters}
	}
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	x := make([]float64, t.nOrig)
	rhs := t.rhsCol()
	for r, b := range t.basis {
		if b < t.nOrig {
			x[b] = t.a[r][rhs]
		}
	}
	dualsEq, dualsUb := t.duals()
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	return &Result{
		Status: Optimal, X: x,
		Obj:        mat.Dot(t.phase2Cost[:t.nOrig], x),
		Iterations: t.iters,
		DualsEq:    dualsEq,
		DualsUb:    dualsUb,
	}
}

// duals recovers the simplex multipliers y = c_Bᵀ·B⁻¹ from the reduced
// costs of the columns that started as identity: the slack column of each
// ≤ row and the artificial column of each = row have A-column e_r, so
// rc_col = c_col − y_r with c_col = 0 in phase 2, i.e. y_r = −rc_col.
// Rows negated during rhs normalization flip the sign back. It reads the
// reduced costs iterate left in t.rc, so call it only right after an
// iterate that returned Optimal.
func (t *tableau) duals() (dualsEq, dualsUb []float64) {
	rc := t.rc
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	dualsEq = make([]float64, t.mEq)
	for r := 0; r < t.mEq; r++ {
		col := t.artOfRow[r]
		if col < 0 {
			continue // no identity column for this row; dual unknown → 0
		}
		y := -rc[col]
		if t.flipped[r] {
			y = -y
		}
		dualsEq[r] = y
	}
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	dualsUb = make([]float64, t.m-t.mEq)
	for r := t.mEq; r < t.m; r++ {
		// ≤ rows carry their slack at column nOrig + (r − mEq) unless the
		// row was flipped (slack coefficient −1); recover via whichever
		// identity column exists.
		col := t.nOrig + (r - t.mEq)
		y := -rc[col]
		if t.flipped[r] {
			y = -y
		}
		dualsUb[r-t.mEq] = y
	}
	return dualsEq, dualsUb
}

// objective returns cᵀ·x_B for the current basic solution.
func (t *tableau) objective(cost []float64) float64 {
	var obj float64
	rhs := t.rhsCol()
	for r, b := range t.basis {
		obj += cost[b] * t.a[r][rhs]
	}
	return obj
}

// iterate runs primal simplex pivots until optimality, unboundedness, or an
// iteration cap. cost has one entry per tableau column (excluding rhs).
func (t *tableau) iterate(cost []float64, _ float64) Status {
	n := t.rhsCol()
	// The cap counts one artificial column per row, needed or not, so it
	// does not depend on how many rows flipped.
	maxIters := 200 + 50*(2*t.m+t.artStart)
	if len(t.basicMark) < n {
		//lint:ignore hotalloc grow-only scratch: sized once per tableau, reused by later iterates
		t.basicMark = make([]bool, n)
	}
	if len(t.rc) < n {
		//lint:ignore hotalloc grow-only scratch: sized once per tableau, reused by later iterates
		t.rc = make([]float64, n)
	}
	mark := t.basicMark[:n]
	for j := range mark {
		mark[j] = false
	}
	for _, b := range t.basis {
		mark[b] = true
	}
	rc := t.rc[:n]
	// cost is fixed for the whole call, so the phase test is loop-invariant.
	inP1 := t.inPhase1(cost)
	for local := 0; ; local++ {
		if local > maxIters {
			return IterationLimit
		}
		t.iters++
		useBland := local > blandAfter
		// Reduced costs rc_j = c_j − Σ_r c_{basis[r]}·a[r][j], accumulated
		// row by row over the rows whose basic cost is nonzero (in phase 1,
		// only the rows an artificial still holds). Each rc_j takes the same
		// nonzero terms in the same ascending-r order as a per-column sum,
		// so it rounds identically.
		copy(rc, cost[:n])
		for r, b := range t.basis {
			cb := cost[b]
			if cb == 0 {
				continue
			}
			row := t.a[r][:n]
			rc := rc[:len(row)]
			for j, v := range row {
				if v != 0 {
					rc[j] -= cb * v
				}
			}
		}
		enter := -1
		bestRC := -pivotTol
		for j := 0; j < n; j++ {
			if mark[j] {
				continue
			}
			// Forbid re-entering artificials once phase 1 is done: their
			// cost in phase 2 is 0 which could cause harmless degenerate
			// pivots; skip them entirely.
			if cost[j] == 0 && j >= t.artStart && j < t.artStart+t.nArt && !inP1 {
				continue
			}
			if rc[j] < bestRC {
				if useBland {
					enter = j
					break
				}
				bestRC = rc[j]
				enter = j
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		minRatio := math.Inf(1)
		rhs := t.rhsCol()
		for r := 0; r < t.m; r++ {
			d := t.a[r][enter]
			if d <= pivotTol {
				continue
			}
			ratio := t.a[r][rhs] / d
			if ratio < minRatio-1e-12 || (math.Abs(ratio-minRatio) <= 1e-12 && (leave == -1 || t.basis[r] < t.basis[leave])) {
				minRatio = ratio
				leave = r
			}
		}
		if leave == -1 {
			return Unbounded
		}
		if useBland {
			t.blandPivots++
		}
		old := t.basis[leave]
		t.pivot(leave, enter)
		mark[old] = false
		mark[enter] = true
	}
}

func (t *tableau) inPhase1(cost []float64) bool {
	for j := t.artStart; j < t.artStart+t.nArt; j++ {
		if cost[j] != 0 {
			return true
		}
	}
	return false
}

func (t *tableau) isBasic(j int) bool {
	for _, b := range t.basis {
		if b == j {
			return true
		}
	}
	return false
}

// pivot makes column enter basic in row leave via Gauss-Jordan elimination.
func (t *tableau) pivot(leave, enter int) {
	prow := t.a[leave]
	p := prow[enter]
	for j := range prow {
		prow[j] /= p
	}
	for r := 0; r < t.m; r++ {
		if r == leave {
			continue
		}
		f := t.a[r][enter]
		if f == 0 {
			continue
		}
		row := t.a[r]
		for j := range row {
			row[j] -= f * prow[j]
		}
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots zero-valued basic artificials out of the basis
// where possible so phase 2 starts from a clean basis.
func (t *tableau) driveOutArtificials() {
	rhs := t.rhsCol()
	for r := 0; r < t.m; r++ {
		b := t.basis[r]
		if b < t.artStart || b >= t.artStart+t.nArt {
			continue
		}
		if math.Abs(t.a[r][rhs]) > feasTol {
			continue // should not happen after a feasible phase 1
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[r][j]) > pivotTol && !t.isBasic(j) {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row; zero it so it can never pivot again.
			for j := 0; j <= rhs; j++ {
				if j != b {
					t.a[r][j] = 0
				}
			}
			t.a[r][rhs] = 0
		}
	}
}
