// Package alloc implements the per-step electricity-cost-optimal workload
// allocation of eq. (46) — the linear program of Rao et al. (INFOCOM'10)
// that the paper uses both as the MPC's control-reference optimizer (§IV.D)
// and as the "optimal method" baseline in every §V experiment:
//
//	minimize    Σ_j Pr_j · (b1_j·λ_j + b0_j·m_j)
//	subject to  Σ_j λ_{ij} = L_i          (conservation, eq. 2)
//	            λ_j ≤ µ_j·m_j − 1/D_j     (latency, eq. 15/30)
//	            0 ≤ m_j ≤ M_j, λ_{ij} ≥ 0
//
// with m_j continuous in the LP (the paper solves the same relaxation) and
// rounded afterwards via eq. (35). The tests check Optimize against a
// greedy marginal-cost allocator, an independent oracle: for this LP the
// two are equivalent.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/idc"
	"repro/internal/lp"
	"repro/internal/mat"
)

// ErrInfeasible is returned when demand exceeds total latency-bounded
// capacity (the Sleep Controllability Condition fails).
var ErrInfeasible = errors.New("alloc: demand exceeds total capacity")

// ErrBadInput is returned for malformed arguments.
var ErrBadInput = errors.New("alloc: invalid input")

// Result is an optimal allocation.
type Result struct {
	// Allocation is the portal→IDC assignment.
	Allocation *idc.Allocation
	// ServersLP is the LP's continuous m_j.
	ServersLP []float64
	// Servers is the eq. (35) integer server count for the allocation.
	Servers []int
	// PowerWatts is each IDC's resulting power draw with Servers active.
	PowerWatts []float64
	// CostRate is the objective value: Σ_j Pr_j · P_j in (price·watt) units,
	// proportional to $/h when prices are $/MWh.
	CostRate float64
	// MarginalPrices holds, for LP-based solves, the dual of each portal's
	// conservation constraint: the marginal objective cost of one more
	// req/s of demand at that portal (price·watt per req/s). Nil for the
	// price-ordered solver.
	MarginalPrices []float64
}

// checkInputs is the input boundary every allocator shares: a topology, one
// finite price per IDC and one finite, nonnegative demand per portal. A
// finite negative price passes; each allocator floors it to 0.
func checkInputs(top *idc.Topology, prices, demands []float64) error {
	if top == nil {
		return fmt.Errorf("nil topology: %w", ErrBadInput)
	}
	if len(prices) != top.N() {
		return fmt.Errorf("%d prices for %d IDCs: %w", len(prices), top.N(), ErrBadInput)
	}
	if len(demands) != top.C() {
		return fmt.Errorf("%d demands for %d portals: %w", len(demands), top.C(), ErrBadInput)
	}
	for j, p := range prices {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("price[%d] = %g: %w", j, p, ErrBadInput)
		}
	}
	for i, d := range demands {
		if !(d >= 0) || math.IsInf(d, 0) {
			return fmt.Errorf("demand[%d] = %g: %w", i, d, ErrBadInput)
		}
	}
	return nil
}

// Optimize solves eq. (46) for the given per-IDC prices ($/MWh) and portal
// demands (req/s).
func Optimize(top *idc.Topology, prices, demands []float64) (*Result, error) {
	return OptimizeWithBudgets(top, prices, demands, nil)
}

// OptimizeWithBudgets solves eq. (46) with additional per-IDC power caps
// b1_j·λ_j + b0_j·m_j ≤ B_j for every positive budget entry (watts). This is
// the budget-aware reference optimizer behind §IV.D peak shaving: unlike a
// bare min(P_opt, B) clamp, it re-routes the displaced workload to
// unconstrained IDCs so the reference remains consistent with workload
// conservation. budgets may be nil; zero entries mean unconstrained.
// ErrInfeasible is returned when the budgets cannot accommodate the demand.
func OptimizeWithBudgets(top *idc.Topology, prices, demands, budgets []float64) (*Result, error) {
	return optimizeBudgets(top, prices, demands, budgets, nil)
}

// Solver is a stateful eq. (46) optimizer that carries an lp.Solver across
// calls. When successive calls keep the same topology, demands and budgets —
// the slow loop's hourly price updates — the LP warm-starts from the previous
// optimal basis instead of rerunning two-phase simplex (see lp.Solver for the
// exact eligibility and fallback contract). The zero value is ready for use;
// a Solver is not safe for concurrent use.
type Solver struct {
	lp lp.Solver
}

// NewSolver returns a ready Solver.
func NewSolver() *Solver { return &Solver{} }

// Optimize is the package-level Optimize through this solver's warm state.
func (s *Solver) Optimize(top *idc.Topology, prices, demands []float64) (*Result, error) {
	return optimizeBudgets(top, prices, demands, nil, &s.lp)
}

// OptimizeWithBudgets is the package-level OptimizeWithBudgets through this
// solver's warm state.
func (s *Solver) OptimizeWithBudgets(top *idc.Topology, prices, demands, budgets []float64) (*Result, error) {
	return optimizeBudgets(top, prices, demands, budgets, &s.lp)
}

// Stats reports the underlying LP solver's warm/cold solve counts.
func (s *Solver) Stats() (warm, cold int) { return s.lp.Stats() }

// SetInstruments installs observability hooks on the underlying LP solver
// (see lp.Instruments); call before the first Optimize.
func (s *Solver) SetInstruments(in lp.Instruments) { s.lp.SetInstruments(in) }

// Reset drops the retained LP state; the next call solves cold.
func (s *Solver) Reset() { s.lp.Reset() }

// optimizeBudgets builds and solves the eq. (46) LP. A nil solver runs the
// stateless cold path; otherwise the solve goes through the given warm-start
// solver.
func optimizeBudgets(top *idc.Topology, prices, demands, budgets []float64, solver *lp.Solver) (*Result, error) {
	if err := checkInputs(top, prices, demands); err != nil {
		return nil, err
	}
	n, c := top.N(), top.C()
	if budgets != nil && len(budgets) != n {
		return nil, fmt.Errorf("%d budgets for %d IDCs: %w", len(budgets), n, ErrBadInput)
	}
	// Reject non-finite budgets before counting rows: NaN is neither > 0
	// nor <= 0, so the count here and the row fill below would disagree.
	nBudget := 0
	for j, b := range budgets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("budget[%d] = %g: %w", j, b, ErrBadInput)
		}
		if b > 0 {
			nBudget++
		}
	}
	if !top.Feasible(demands) {
		return nil, fmt.Errorf("total demand %g vs capacity %g: %w",
			sum(demands), sum(top.Capacities()), ErrInfeasible)
	}

	// Variables: U (NC entries) then m (N entries). The LP takes
	// compressed rows, built row by row below. One []int holds both
	// matrices' row starts and column indices, and one []float64 the cost,
	// their values and Bub, each sized up front.
	nu := top.NU()
	nv := nu + n
	mUb := 2*n + nBudget
	nnzEq := c * n
	nnzUb := (n+nBudget)*(c+1) + n
	ints := make([]int, c+1+nnzEq+mUb+1+nnzUb)
	floats := make([]float64, nv+nnzEq+nnzUb+mUb)
	cost, floats := floats[:nv:nv], floats[nv:]
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		// Price floor at zero: with negative prices the LP would pump load
		// into the region purely to burn power; real operators cannot be
		// paid more than their hardware can absorb, and the paper treats
		// prices as costs. Clamp keeps the LP bounded and physical.
		pr := prices[j]
		if pr < 0 {
			pr = 0
		}
		for i := 0; i < c; i++ {
			cost[top.Index(i, j)] = pr * d.Power.B1
		}
		cost[nu+j] = pr * d.Power.B0
	}

	// Each row lists its U entries (U's column j·C + i) before its server
	// count (column NU + j), so its columns ascend. The appends below stay
	// within the capacities carved here.
	//
	// Conservation equalities on the U block (eqs. (26)–(29)): row i sums
	// portal i's allocation across IDCs to demand L_i. The LP neither keeps
	// nor writes Beq, so the demands go in without a copy.
	eqStart, eqIdx := ints[:1:c+1], ints[c+1:c+1:c+1+nnzEq]
	eqVal := floats[:0:nnzEq]
	for i := 0; i < c; i++ {
		for j := 0; j < n; j++ {
			eqIdx = append(eqIdx, top.Index(i, j))
			eqVal = append(eqVal, 1)
		}
		eqStart = append(eqStart, len(eqIdx))
	}
	var rows [2]mat.SparseRows
	var err error
	if rows[0], err = mat.MakeSparseRows(nv, eqStart, eqIdx, eqVal); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}

	// Inequalities: latency coupling (N rows), m ≤ M (N rows), then one
	// power-budget row per budgeted IDC.
	ints, floats = ints[c+1+nnzEq:], floats[nnzEq:]
	ubStart, ubIdx := ints[:1:mUb+1], ints[mUb+1:mUb+1]
	ubVal, bub := floats[:0:nnzUb], floats[nnzUb:nnzUb]
	// addU appends coef·Σᵢ λᵢⱼ to the row being built; endRow appends
	// mCoef·mⱼ and closes the row with right-hand side rhs.
	addU := func(j int, coef float64) {
		for i := 0; i < c; i++ {
			ubIdx = append(ubIdx, top.Index(i, j))
			ubVal = append(ubVal, coef)
		}
	}
	endRow := func(j int, mCoef, rhs float64) {
		ubIdx = append(ubIdx, nu+j)
		ubVal = append(ubVal, mCoef)
		ubStart = append(ubStart, len(ubIdx))
		bub = append(bub, rhs)
	}
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		addU(j, 1)
		endRow(j, -d.ServiceRate, -1/d.DelayBound)
	}
	for j := 0; j < n; j++ {
		endRow(j, 1, float64(top.IDC(j).TotalServers))
	}
	for j := 0; j < n; j++ {
		if budgets == nil || budgets[j] <= 0 {
			continue
		}
		d := top.IDC(j)
		addU(j, d.Power.B1)
		endRow(j, d.Power.B0, budgets[j])
	}
	if rows[1], err = mat.MakeSparseRows(nv, ubStart, ubIdx, ubVal); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}

	prob := &lp.Problem{C: cost, Aeq: &rows[0], Beq: demands, Aub: &rows[1], Bub: bub}
	var res *lp.Result
	if solver != nil {
		res, err = solver.Solve(prob)
	} else {
		res, err = lp.Solve(prob)
	}
	if err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	switch res.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("lp infeasible: %w", ErrInfeasible)
	default:
		return nil, fmt.Errorf("alloc: lp status %v", res.Status)
	}

	allocation, err := idc.AllocationFromVector(top, res.X[:nu])
	if err != nil {
		return nil, err
	}
	out, err := finish(top, prices, allocation, res.X[nu:])
	if err != nil {
		return nil, err
	}
	if len(res.DualsEq) == c {
		out.MarginalPrices = append([]float64{}, res.DualsEq...)
	}
	return out, nil
}

// finish rounds servers, computes power and the cost rate.
func finish(top *idc.Topology, prices []float64, allocation *idc.Allocation, serversLP []float64) (*Result, error) {
	n := top.N()
	perIDC := allocation.PerIDC()
	servers := make([]int, n)
	watts := make([]float64, n)
	var costRate float64
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		m, err := d.MinServersFor(perIDC[j])
		if err != nil {
			return nil, err
		}
		servers[j] = m
		watts[j] = d.Power.FleetPower(m, perIDC[j])
		pr := prices[j]
		if pr < 0 {
			pr = 0
		}
		costRate += pr * watts[j]
	}
	lpCopy := make([]float64, len(serversLP))
	copy(lpCopy, serversLP)
	return &Result{
		Allocation: allocation,
		ServersLP:  lpCopy,
		Servers:    servers,
		PowerWatts: watts,
		CostRate:   costRate,
	}, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// PriceOrdered reproduces the behaviour of the paper's published "optimal
// method" numbers (§V.B): IDCs are filled to raw capacity M_j·µ_j in
// ascending order of the electricity price Pr_j, and servers are counted as
// m_j = ⌈λ_j/µ_j⌉ with no latency reserve. This is NOT the optimum of
// eq. (46) — sorting by $/MWh ignores that a request costs Pr_j·(b1+b0/µ_j),
// which depends on µ_j — but it regenerates every power figure in the
// paper's Figs. 4–7 exactly (see EXPERIMENTS.md), so it is the faithful
// baseline for the reproduction experiments. Use Optimize for the true LP.
func PriceOrdered(top *idc.Topology, prices, demands []float64) (*Result, error) {
	if err := checkInputs(top, prices, demands); err != nil {
		return nil, err
	}
	n, c := top.N(), top.C()
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return prices[order[a]] < prices[order[b]] })

	allocation := idc.NewAllocation(top)
	remaining := append([]float64{}, demands...)
	for _, j := range order {
		d := top.IDC(j)
		room := float64(d.TotalServers) * d.ServiceRate
		for i := 0; i < c && room > 1e-12; i++ {
			take := remaining[i]
			if take > room {
				take = room
			}
			if take <= 0 {
				continue
			}
			allocation.Set(i, j, allocation.At(i, j)+take)
			remaining[i] -= take
			room -= take
		}
	}
	for i, rem := range remaining {
		if rem > 1e-6 {
			return nil, fmt.Errorf("portal %d has %g unassigned: %w", i, rem, ErrInfeasible)
		}
	}
	perIDC := allocation.PerIDC()
	servers := make([]int, n)
	serversLP := make([]float64, n)
	watts := make([]float64, n)
	var costRate float64
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		serversLP[j] = perIDC[j] / d.ServiceRate
		servers[j] = int(math.Ceil(serversLP[j]))
		// The paper charges the baseline m·P_peak watts — every ON server at
		// full draw — which is what makes its Wisconsin 7H figure exactly
		// 5715 × 285 W = 1.628775 MW rather than b1·λ + m·b0.
		watts[j] = d.Power.PeakFleetPower(servers[j], d.ServiceRate)
		pr := prices[j]
		if pr < 0 {
			pr = 0
		}
		costRate += pr * watts[j]
	}
	return &Result{
		Allocation: allocation,
		ServersLP:  serversLP,
		Servers:    servers,
		PowerWatts: watts,
		CostRate:   costRate,
	}, nil
}
