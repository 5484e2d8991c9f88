package lp

import (
	"repro/internal/mat"
	"repro/internal/obs"
)

// Instruments are the solver's optional observability hooks (see
// internal/obs). All fields are nil-safe no-ops when unset, so an unwired
// solver pays one nil check per event and nothing else.
type Instruments struct {
	// WarmSolves counts resolves that took the warm-start phase-2 path.
	WarmSolves *obs.Counter
	// ColdSolves counts full two-phase solves (first calls and fallbacks).
	ColdSolves *obs.Counter
	// Pivots accumulates simplex pivot iterations across solves.
	Pivots *obs.Counter
}

// Solver is a stateful LP solver that retains its simplex tableau between
// calls so that repeated solves over the same constraint set with changing
// cost vectors (the slow-loop reference LP re-solved on every hourly price
// move) can warm-start from the previous optimal basis.
//
// Warm-start contract (see DESIGN.md §3.5):
//
//   - A resolve warm-starts iff the previous solve on this Solver reached
//     Optimal, the new problem's constraints (Aeq, Beq, Aub, Bub) are
//     value-identical to the previous ones, and the retained basis is still
//     primal feasible (all tableau rhs ≥ −feasTol). Only C may change.
//   - A warm resolve runs phase-2 pivots only, with the same Dantzig pricing,
//     Bland anti-cycling fallback, tolerances, and result extraction as the
//     cold path — the two paths share tableau.phase2/iterate verbatim. The
//     pivot *sequence* may differ from a cold solve (it starts from a
//     different basis), so X can differ within the optimal face on degenerate
//     problems; objectives agree to solver tolerance.
//   - Anything else — first call, non-Optimal previous status, changed
//     constraint shape or values, infeasible retained basis, or a warm
//     iteration that fails to reach Optimal — falls back to the cold
//     two-phase path automatically. The fallback is always sound because the
//     cold path never reads retained state.
//
// The zero value is ready for use. A Solver is not safe for concurrent use,
// and it moves by pointer: a by-value copy would share the retained tableau
// and snapshot storage with the original.
//
//lint:nocopy
type Solver struct {
	// Exactly one of t/rv is retained after a cold solve: the dense tableau
	// for small default-bound problems, the revised state for large or
	// bounded ones (same dispatch as the package-level Solve).
	t  *tableau
	rv *revised

	// Constraint snapshot backing the warm-start eligibility check. Deep
	// copies: callers may mutate their Problem between calls.
	aeq, aub *mat.Dense
	beq, bub []float64
	lo, hi   []float64
	hadLo    bool
	hadHi    bool
	nOrig    int

	lastOptimal bool

	warm, cold int

	instr Instruments
}

// SetInstruments installs observability hooks; call before Solve. The
// zero Instruments value detaches them again.
func (s *Solver) SetInstruments(in Instruments) { s.instr = in }

// Solve solves p, warm-starting from the previous optimal basis when only the
// cost vector changed. It is a drop-in replacement for the package-level
// Solve.
//
// A warm resolve is bounded at a few small allocations — the
// independently-owned Result and its slices from phase-2 extraction
// (pinned by TestSolverWarmResolveAllocationBounded); idclint's hotalloc
// analyzer checks the rest of the path statically from this root.
//
//lint:hotpath
func (s *Solver) Solve(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if s.canWarmStart(p) {
		if res := s.warmSolve(p); res != nil {
			s.instr.WarmSolves.Inc()
			s.instr.Pivots.Add(uint64(res.Iterations))
			return res, nil
		}
	}
	//lint:ignore hotalloc cold fallback: full two-phase rebuild when warm start is ineligible
	res := s.coldSolve(p)
	s.instr.ColdSolves.Inc()
	s.instr.Pivots.Add(uint64(res.Iterations))
	return res, nil
}

// Stats reports how many solves took the warm path and how many the cold
// two-phase path.
func (s *Solver) Stats() (warm, cold int) { return s.warm, s.cold }

// Reset drops all retained state; the next Solve runs cold.
func (s *Solver) Reset() {
	s.t = nil
	s.rv = nil
	s.lastOptimal = false
}

// canWarmStart reports whether p differs from the snapshot only in C and the
// retained basis is still primal feasible.
func (s *Solver) canWarmStart(p *Problem) bool {
	if (s.t == nil && s.rv == nil) || !s.lastOptimal {
		return false
	}
	if len(p.C) != s.nOrig {
		return false
	}
	if !mat.Equal(p.Aeq, s.aeq) || !mat.Equal(p.Aub, s.aub) {
		return false
	}
	if !vecEqual(p.Beq, s.beq) || !vecEqual(p.Bub, s.bub) {
		return false
	}
	// Bounds shape the feasible region exactly like constraint rows do, so
	// any change (including between nil and explicit) runs cold.
	if (p.Lo != nil) != s.hadLo || (p.Hi != nil) != s.hadHi {
		return false
	}
	if !vecEqual(p.Lo, s.lo[:len(p.Lo)]) || !vecEqual(p.Hi, s.hi[:len(p.Hi)]) {
		return false
	}
	if s.rv != nil {
		// Retained point must still be within bounds (numerical drift guard;
		// with unchanged constraints it is the previous optimal point).
		for r := 0; r < s.rv.m; r++ {
			b := s.rv.basis[r]
			if s.rv.x[b] < s.rv.lo[b]-feasTol || s.rv.x[b] > s.rv.hi[b]+feasTol {
				return false
			}
		}
		return true
	}
	// Retained basis must be primal feasible. With unchanged constraints the
	// rhs column is exactly the previous optimal basic solution, so this only
	// guards against numerical drift.
	rhs := s.t.rhsCol()
	for r := 0; r < s.t.m; r++ {
		if s.t.a[r][rhs] < -feasTol {
			return false
		}
	}
	return true
}

// warmSolve re-optimizes the retained state (tableau or revised) with p's
// cost vector. Returns nil if the warm iteration did not reach Optimal, in
// which case the caller falls back to the cold path.
func (s *Solver) warmSolve(p *Problem) *Result {
	if s.rv != nil {
		res := s.rv.resolve(p.C)
		if res == nil {
			s.lastOptimal = false
			return nil
		}
		s.warm++
		return res
	}
	t := s.t
	// phase2Cost's slack/artificial tail is zero by construction and never
	// written, so only the original-variable prefix needs refreshing.
	copy(t.phase2Cost[:t.nOrig], p.C)
	res := t.phase2()
	if res.Status != Optimal {
		// A changed cost vector cannot make a feasible problem infeasible;
		// unbounded or iteration-limited warm runs are re-tried cold so the
		// caller sees exactly what a fresh Solve would report.
		s.lastOptimal = false
		return nil
	}
	s.warm++
	return res
}

// coldSolve runs the full two-phase method on fresh state — revised or
// dense tableau by the same dispatch as the package-level Solve — and
// snapshots the constraints for future warm starts.
func (s *Solver) coldSolve(p *Problem) *Result {
	var res *Result
	if methodFor(p, Auto) == Revised {
		rv, err := newRevised(p)
		if err != nil {
			// Basis factorization breakdown; surface as an iteration-limited
			// solve rather than panicking (cannot happen for well-posed input:
			// the initial basis is triangular by construction).
			return &Result{Status: IterationLimit}
		}
		res = rv.run()
		s.rv, s.t = rv, nil
	} else {
		t := newTableau(p)
		res = t.run()
		s.t, s.rv = t, nil
	}
	s.nOrig = len(p.C)
	s.snapshot(p)
	s.lastOptimal = res.Status == Optimal
	s.cold++
	return res
}

func (s *Solver) snapshot(p *Problem) {
	s.aeq = cloneOrNil(s.aeq, p.Aeq)
	s.aub = cloneOrNil(s.aub, p.Aub)
	s.beq = append(s.beq[:0], p.Beq...)
	s.bub = append(s.bub[:0], p.Bub...)
	s.lo = append(s.lo[:0], p.Lo...)
	s.hi = append(s.hi[:0], p.Hi...)
	s.hadLo = p.Lo != nil
	s.hadHi = p.Hi != nil
}

// cloneOrNil deep-copies src into dst's storage (reusing it when shapes
// allow), or returns nil for a nil src.
func cloneOrNil(dst, src *mat.Dense) *mat.Dense {
	if src == nil {
		return nil
	}
	dst = mat.ReuseDense(dst, src.Rows(), src.Cols())
	dst.SetBlock(0, 0, src)
	return dst
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floateq warm-start eligibility is a bit-exact snapshot comparison by design
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
