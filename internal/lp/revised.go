package lp

import (
	"math"

	"repro/internal/mat"
)

// Revised simplex with bounded variables (DESIGN.md §3.10). The dense
// tableau updates every entry of an m×(n+m) array per pivot; the revised
// method keeps the constraint columns in their original (sparse) form and
// works only with the basis factorization:
//
//   - B = LU from internal/mat, refreshed every refactorEvery pivots,
//   - product-form eta updates in between: after column q replaces the
//     basic variable of row p, B_new = B_old·E with E = I except column p,
//     which holds w = B_old⁻¹·a_q. FTRAN applies the etas oldest→newest
//     after the LU solve; BTRAN applies them transposed newest→oldest
//     before the LU transpose solve,
//   - nonbasic variables rest at either bound (AtLower/AtUpper) and may
//     flip bounds without a basis change when the ratio test says the
//     entering variable hits its opposite bound first.
//
// Pricing is Dantzig (most-negative reduced cost, sign-adjusted for
// at-upper variables) with the same Bland anti-cycling fallback and
// tolerances as the dense tableau, so the two implementations disagree only
// through round-off and degenerate-vertex selection.

// refactorEvery bounds the eta file: after this many product-form updates
// the basis is refactorized from scratch, limiting both the FTRAN/BTRAN
// cost and the accumulated round-off.
const refactorEvery = 64

// Nonbasic rest positions.
const (
	atLower int8 = iota
	atUpper
	isBasic
)

// sparseCol is one column of the combined constraint matrix [Aeq; Aub].
type sparseCol struct {
	idx []int
	val []float64
}

// revised is the solver state: problem data in column form, the current
// basis with its factorization, and the current (always bound-feasible
// between pivots) point.
//
//lint:nocopy
type revised struct {
	nOrig, nSlack, nArt int
	n                   int // total columns: nOrig + nSlack + nArt
	m, mEq              int
	artStart            int

	cols []sparseCol
	lo   []float64
	hi   []float64
	// cost is the phase-2 objective padded to n (original C, then zeros).
	cost []float64

	basis  []int
	status []int8
	x      []float64 // current value of every column

	lu    mat.LU
	bmat  *mat.Dense
	etaP  []int
	etaW  [][]float64
	spare [][]float64 // retired eta vectors, reused to keep refactors alloc-cheap

	iters       int
	blandPivots int

	// Scratch (sized m once).
	y, w, cb []float64
	// duals holds y at the optimality proof of the most recent phase-2
	// iterate; result extraction reads it.
	duals []float64
}

// newRevised builds the solver state and the initial basis: slacks where
// the slack value is within its bounds, artificials elsewhere (signed so
// they start nonnegative).
func newRevised(p *Problem) (*revised, error) {
	nOrig := len(p.C)
	mEq, mUb := rowCount(p.Aeq), rowCount(p.Aub)
	m := mEq + mUb
	rv := &revised{
		nOrig:    nOrig,
		nSlack:   mUb,
		m:        m,
		mEq:      mEq,
		artStart: nOrig + mUb,
	}
	// Columns: originals (rows of Aeq stacked over Aub), then unit slacks.
	// Walking the rows in order lists each column's entries by ascending
	// row.
	rv.cols = make([]sparseCol, nOrig+mUb, nOrig+mUb+m)
	for r := 0; r < m; r++ {
		a, i := p.Aeq, r
		if r >= mEq {
			a, i = p.Aub, r-mEq
		}
		idx, val := a.RowNNZ(i)
		for k, j := range idx {
			//lint:ignore floateq sparsity harvest: exact zeros carry no column entry
			if v := val[k]; v != 0 {
				col := &rv.cols[j]
				col.idx = append(col.idx, r)
				col.val = append(col.val, v)
			}
		}
	}
	for r := 0; r < mUb; r++ {
		rv.cols[nOrig+r] = sparseCol{idx: []int{mEq + r}, val: []float64{1}}
	}
	total := nOrig + mUb + m // worst case: one artificial per row
	rv.lo = make([]float64, total)
	rv.hi = make([]float64, total)
	rv.cost = make([]float64, total)
	rv.status = make([]int8, total)
	rv.x = make([]float64, total)
	for j := 0; j < nOrig; j++ {
		rv.lo[j], rv.hi[j] = p.lower(j), p.upper(j)
		rv.cost[j] = p.C[j]
	}
	for j := nOrig; j < nOrig+mUb; j++ {
		rv.lo[j], rv.hi[j] = 0, math.Inf(1)
	}
	// Start every structural and slack column at its lower bound (finite by
	// Validate); residual = b − A·x decides the initial basic column per row.
	for j := 0; j < nOrig+mUb; j++ {
		rv.status[j] = atLower
		rv.x[j] = rv.lo[j]
	}
	resid := make([]float64, m)
	for r := 0; r < mEq; r++ {
		resid[r] = p.Beq[r]
	}
	for r := 0; r < mUb; r++ {
		resid[mEq+r] = p.Bub[r]
	}
	for j := 0; j < nOrig; j++ {
		//lint:ignore floateq skip-zero fast path: columns at a zero lower bound contribute nothing
		if v := rv.x[j]; v != 0 {
			col := &rv.cols[j]
			for k, r := range col.idx {
				resid[r] -= col.val[k] * v
			}
		}
	}
	rv.basis = make([]int, m)
	for r := 0; r < m; r++ {
		if r >= mEq && resid[r] >= 0 {
			// Slack row with room: the slack itself is a feasible basic.
			j := nOrig + (r - mEq)
			rv.basis[r] = j
			rv.status[j] = isBasic
			rv.x[j] = resid[r]
			continue
		}
		// Artificial with the residual's sign so it starts at |resid| ≥ 0.
		j := rv.artStart + rv.nArt
		rv.nArt++
		sign := 1.0
		if resid[r] < 0 {
			sign = -1
		}
		rv.cols = append(rv.cols, sparseCol{idx: []int{r}, val: []float64{sign}})
		rv.lo[j], rv.hi[j] = 0, math.Inf(1)
		rv.basis[r] = j
		rv.status[j] = isBasic
		rv.x[j] = sign * resid[r]
	}
	rv.n = nOrig + mUb + rv.nArt
	rv.y = make([]float64, m)
	rv.w = make([]float64, m)
	rv.cb = make([]float64, m)
	rv.duals = make([]float64, m)
	if err := rv.refactorize(); err != nil {
		return nil, err
	}
	return rv, nil
}

// run executes phase 1 (when artificials carry weight) and phase 2.
func (rv *revised) run() *Result {
	if rv.nArt > 0 {
		p1cost := make([]float64, rv.n)
		for j := rv.artStart; j < rv.n; j++ {
			p1cost[j] = 1
		}
		st := rv.iterate(p1cost, true)
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iterations: rv.iters}
		}
		var p1obj float64
		for j := rv.artStart; j < rv.n; j++ {
			p1obj += rv.x[j]
		}
		if st == Unbounded || p1obj > feasTol {
			// The phase-1 objective is bounded below by 0, so Unbounded here
			// means numerical breakdown — reported as infeasible, matching
			// the dense tableau.
			return &Result{Status: Infeasible, Iterations: rv.iters}
		}
		// Pin artificials to zero: basic ones may linger (degenerate) but can
		// never move off zero again, and pricing skips them in phase 2.
		for j := rv.artStart; j < rv.n; j++ {
			rv.hi[j] = 0
			rv.x[j] = 0
		}
	}
	st := rv.iterate(rv.cost[:rv.n], false)
	switch st {
	case Unbounded:
		return &Result{Status: Unbounded, Iterations: rv.iters}
	case IterationLimit:
		return &Result{Status: IterationLimit, Iterations: rv.iters}
	}
	return rv.extract()
}

// extract assembles the Optimal result from the current point and the duals
// captured at the optimality proof.
func (rv *revised) extract() *Result {
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	x := make([]float64, rv.nOrig)
	copy(x, rv.x[:rv.nOrig])
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	dualsEq := make([]float64, rv.mEq)
	copy(dualsEq, rv.duals[:rv.mEq])
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	dualsUb := make([]float64, rv.m-rv.mEq)
	copy(dualsUb, rv.duals[rv.mEq:])
	//lint:ignore hotalloc independently-owned result (bounded by TestSolverWarmResolveAllocationBounded)
	return &Result{
		Status: Optimal, X: x,
		Obj:        mat.Dot(rv.cost[:rv.nOrig], x),
		Iterations: rv.iters,
		DualsEq:    dualsEq,
		DualsUb:    dualsUb,
	}
}

// resolve re-optimizes from the current basis and point with a new cost
// vector (the Solver's warm-start path: constraints and bounds unchanged,
// only C differs). Returns nil when the warm iteration does not reach
// Optimal; the caller falls back to a cold solve.
func (rv *revised) resolve(c []float64) *Result {
	copy(rv.cost[:rv.nOrig], c)
	if rv.iterate(rv.cost[:rv.n], false) != Optimal {
		return nil
	}
	return rv.extract()
}

// iterate runs bounded-variable primal simplex pivots until optimality,
// unboundedness, or the iteration cap.
func (rv *revised) iterate(cost []float64, phase1 bool) Status {
	maxIters := 200 + 50*(rv.m+rv.n)
	for local := 0; ; local++ {
		if local > maxIters {
			return IterationLimit
		}
		rv.iters++
		useBland := local > blandAfter

		// Duals y = B⁻ᵀ·c_B, then Dantzig pricing over the nonbasic columns.
		for r, b := range rv.basis {
			rv.cb[r] = cost[b]
		}
		if err := rv.btran(rv.y, rv.cb); err != nil {
			return IterationLimit
		}
		enter := -1
		dir := 1.0
		best := pivotTol
		for j := 0; j < rv.n; j++ {
			st := rv.status[j]
			//lint:ignore floateq fixed-column check is exact: pinned artificials set lo = hi by assignment
			if st == isBasic || rv.lo[j] == rv.hi[j] {
				continue // fixed columns (pinned artificials) never re-enter
			}
			if !phase1 && j >= rv.artStart {
				continue
			}
			d := cost[j] - rv.colDot(j, rv.y)
			var improve float64
			if st == atLower {
				improve = -d // increasing x_j improves iff d < 0
			} else {
				improve = d // decreasing x_j improves iff d > 0
			}
			if improve > best {
				enter = j
				if st == atLower {
					dir = 1
				} else {
					dir = -1
				}
				if useBland {
					break
				}
				best = improve
			}
		}
		if enter == -1 {
			copy(rv.duals, rv.y)
			return Optimal
		}
		if useBland {
			rv.blandPivots++
		}

		// w = B⁻¹·a_enter; the basics move by −t·dir·w as x_enter moves t·dir.
		if err := rv.ftranCol(rv.w, enter); err != nil {
			return IterationLimit
		}
		t := rv.hi[enter] - rv.lo[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveToUpper := false
		for r := 0; r < rv.m; r++ {
			delta := dir * rv.w[r] // basic r decreases at rate delta
			b := rv.basis[r]
			var room float64
			var toUpper bool
			if delta > pivotTol {
				room = (rv.x[b] - rv.lo[b]) / delta
			} else if delta < -pivotTol {
				if math.IsInf(rv.hi[b], 1) {
					continue
				}
				room = (rv.hi[b] - rv.x[b]) / -delta
				toUpper = true
			} else {
				continue
			}
			if room < t-1e-12 || (math.Abs(room-t) <= 1e-12 && (leave == -1 || b < rv.basis[leave])) {
				t = room
				leave = r
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(t, 1) {
			return Unbounded
		}
		if t < 0 {
			t = 0 // degenerate round-off: pivot without movement
		}
		for r := 0; r < rv.m; r++ {
			rv.x[rv.basis[r]] -= t * dir * rv.w[r]
		}
		if leave == -1 {
			// Bound flip: the entering variable crosses to its other bound
			// before any basic hits one; the basis is unchanged.
			if rv.status[enter] == atLower {
				rv.x[enter] = rv.hi[enter]
				rv.status[enter] = atUpper
			} else {
				rv.x[enter] = rv.lo[enter]
				rv.status[enter] = atLower
			}
			continue
		}
		lv := rv.basis[leave]
		if leaveToUpper {
			rv.x[lv] = rv.hi[lv]
			rv.status[lv] = atUpper
		} else {
			rv.x[lv] = rv.lo[lv]
			rv.status[lv] = atLower
		}
		if rv.status[enter] == atLower {
			rv.x[enter] = rv.lo[enter] + t
		} else {
			rv.x[enter] = rv.hi[enter] - t
		}
		rv.status[enter] = isBasic
		rv.basis[leave] = enter
		if err := rv.pushEta(leave); err != nil {
			return IterationLimit
		}
	}
}

// pushEta records the product-form update for the pivot that replaced the
// basic column of row p (rv.w still holds B_old⁻¹·a_enter), refactorizing
// once the eta file reaches its cap.
func (rv *revised) pushEta(p int) error {
	if len(rv.etaP) >= refactorEvery {
		return rv.refactorize()
	}
	var w []float64
	if k := len(rv.spare); k > 0 {
		w = rv.spare[k-1]
		rv.spare = rv.spare[:k-1]
	} else {
		//lint:ignore hotalloc eta vectors are recycled through rv.spare after each refactorization
		w = make([]float64, rv.m)
	}
	copy(w, rv.w)
	//lint:ignore hotalloc eta file is capped at refactorEvery entries; backing arrays reach steady size
	rv.etaP = append(rv.etaP, p)
	//lint:ignore hotalloc eta file is capped at refactorEvery entries; backing arrays reach steady size
	rv.etaW = append(rv.etaW, w)
	return nil
}

// refactorize rebuilds the LU factorization of the current basis matrix and
// clears the eta file.
func (rv *revised) refactorize() error {
	rv.spare = append(rv.spare, rv.etaW...)
	rv.etaP = rv.etaP[:0]
	rv.etaW = rv.etaW[:0]
	if rv.m == 0 {
		return nil
	}
	rv.bmat = mat.ReuseDense(rv.bmat, rv.m, rv.m)
	for r, b := range rv.basis {
		col := &rv.cols[b]
		for k, i := range col.idx {
			rv.bmat.Set(i, r, col.val[k])
		}
	}
	return rv.lu.Factor(rv.bmat)
}

// ftranCol computes dst = B⁻¹·a_j: LU solve at the refactorization point,
// then the eta inverses oldest→newest.
func (rv *revised) ftranCol(dst []float64, j int) error {
	if rv.m == 0 {
		return nil
	}
	scatter := rv.cb // reuse: cb is dead between pricing and the next iteration
	for i := range scatter {
		scatter[i] = 0
	}
	col := &rv.cols[j]
	for k, i := range col.idx {
		scatter[i] = col.val[k]
	}
	if err := rv.lu.SolveVecInto(dst, scatter); err != nil {
		return err
	}
	for e := range rv.etaP {
		p, w := rv.etaP[e], rv.etaW[e]
		dp := dst[p] / w[p]
		//lint:ignore floateq skip-zero fast path: a zero pivot update leaves dst untouched
		if dp != 0 {
			for i, wi := range w {
				//lint:ignore floateq skip-zero fast path: eta vectors are sparse in practice
				if wi != 0 {
					dst[i] -= wi * dp
				}
			}
		}
		dst[p] = dp
	}
	return nil
}

// btran computes dst = B⁻ᵀ·c: the eta transposes newest→oldest, then the LU
// transpose solve. dst may alias c.
func (rv *revised) btran(dst, c []float64) error {
	if rv.m == 0 {
		return nil
	}
	if &dst[0] != &c[0] {
		copy(dst, c)
	}
	for e := len(rv.etaP) - 1; e >= 0; e-- {
		p, w := rv.etaP[e], rv.etaW[e]
		s := dst[p]
		for i, wi := range w {
			//lint:ignore floateq skip-zero fast path: eta vectors are sparse in practice
			if i != p && wi != 0 {
				s -= wi * dst[i]
			}
		}
		dst[p] = s / w[p]
	}
	return rv.lu.SolveTVecInto(dst, dst)
}

// colDot returns a_jᵀ·y.
func (rv *revised) colDot(j int, y []float64) float64 {
	col := &rv.cols[j]
	var s float64
	for k, i := range col.idx {
		s += col.val[k] * y[i]
	}
	return s
}
