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
// rounded afterwards via eq. (35). A greedy marginal-cost allocator is
// provided as an independent oracle: for this LP the two are equivalent,
// which the tests exploit.
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
	// greedy and price-ordered solvers.
	MarginalPrices []float64
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
	if top == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadInput)
	}
	n, c := top.N(), top.C()
	if len(prices) != n {
		return nil, fmt.Errorf("%d prices for %d IDCs: %w", len(prices), n, ErrBadInput)
	}
	if len(demands) != c {
		return nil, fmt.Errorf("%d demands for %d portals: %w", len(demands), c, ErrBadInput)
	}
	for i, d := range demands {
		if !(d >= 0) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("demand[%d] = %g: %w", i, d, ErrBadInput)
		}
	}
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

	// Variables: U (NC entries) then m (N entries).
	nu := top.NU()
	nv := nu + n
	cost := make([]float64, nv)
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

	// Conservation equalities on the U block.
	consH, consRHS, err := top.Conservation(demands)
	if err != nil {
		return nil, err
	}
	aeq := mat.Zeros(c, nv)
	aeq.SetBlock(0, 0, consH)

	// Inequalities: latency coupling (N rows), m ≤ M (N rows), then one
	// power-budget row per budgeted IDC.
	aub := mat.Zeros(2*n+nBudget, nv)
	bub := make([]float64, 2*n+nBudget)
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		for i := 0; i < c; i++ {
			aub.Set(j, top.Index(i, j), 1)
		}
		aub.Set(j, nu+j, -d.ServiceRate)
		bub[j] = -1 / d.DelayBound
		aub.Set(n+j, nu+j, 1)
		bub[n+j] = float64(d.TotalServers)
	}
	row := 2 * n
	for j := 0; j < n; j++ {
		if budgets == nil || budgets[j] <= 0 {
			continue
		}
		d := top.IDC(j)
		for i := 0; i < c; i++ {
			aub.Set(row, top.Index(i, j), d.Power.B1)
		}
		aub.Set(row, nu+j, d.Power.B0)
		bub[row] = budgets[j]
		row++
	}

	prob := &lp.Problem{C: cost, Aeq: aeq, Beq: consRHS, Aub: aub, Bub: bub}
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

// Greedy solves the same problem by filling IDCs in order of marginal cost
// per request, Pr_j·(b1_j + b0_j/µ_j) — the exact LP optimum for this
// structure, because workload from different portals is interchangeable and
// each IDC's cost is linear in its load once m_j sits on the latency
// boundary. It serves as an independent oracle for Optimize.
func Greedy(top *idc.Topology, prices, demands []float64) (*Result, error) {
	if top == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadInput)
	}
	n, c := top.N(), top.C()
	if len(prices) != n {
		return nil, fmt.Errorf("%d prices for %d IDCs: %w", len(prices), n, ErrBadInput)
	}
	if len(demands) != c {
		return nil, fmt.Errorf("%d demands for %d portals: %w", len(demands), c, ErrBadInput)
	}
	if !top.Feasible(demands) {
		return nil, ErrInfeasible
	}
	type rankedIDC struct {
		j        int
		marginal float64
		cap      float64
	}
	ranked := make([]rankedIDC, n)
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		pr := prices[j]
		if pr < 0 {
			pr = 0
		}
		ranked[j] = rankedIDC{
			j:        j,
			marginal: pr * (d.Power.B1 + d.Power.B0/d.ServiceRate),
			cap:      d.Capacity(),
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].marginal < ranked[b].marginal })

	allocation := idc.NewAllocation(top)
	remaining := append([]float64{}, demands...)
	serversLP := make([]float64, n)
	for _, r := range ranked {
		room := r.cap
		for i := 0; i < c && room > 1e-12; i++ {
			take := remaining[i]
			if take > room {
				take = room
			}
			if take <= 0 {
				continue
			}
			allocation.Set(i, r.j, allocation.At(i, r.j)+take)
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
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		serversLP[j] = (perIDC[j] + 1/d.DelayBound) / d.ServiceRate
	}
	return finish(top, prices, allocation, serversLP)
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
	if top == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadInput)
	}
	n, c := top.N(), top.C()
	if len(prices) != n {
		return nil, fmt.Errorf("%d prices for %d IDCs: %w", len(prices), n, ErrBadInput)
	}
	if len(demands) != c {
		return nil, fmt.Errorf("%d demands for %d portals: %w", len(demands), c, ErrBadInput)
	}
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
