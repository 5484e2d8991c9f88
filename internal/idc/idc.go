// Package idc models the paper's workload-allocation architecture (§III.A):
// C front-end Web portals fan client requests out to N Internet data
// centers. It owns the vectorization convention of the control input
//
//	U = (λ11 … λC1, λ12 … λC2, …, λ1N … λCN)ᵀ ∈ ℝ^{NC}
//
// (portal-major within each IDC block, IDC blocks in order — matching the
// block structure of the paper's B, H and Ψ matrices) and builds the
// constraint matrices of eqs. (26)–(34).
package idc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/power"
	"repro/internal/price"
	"repro/internal/queueing"
)

// ErrBadTopology is returned for invalid IDC or topology parameters.
var ErrBadTopology = errors.New("idc: invalid topology")

// IDC describes one data center (one row of the paper's Table II).
type IDC struct {
	// Name is a human-readable identifier.
	Name string
	// Region keys the electricity price model.
	Region price.Region
	// TotalServers is M_j, the number of installed servers.
	TotalServers int
	// ServiceRate is µ_j, each server's processing rate in req/s.
	ServiceRate float64
	// DelayBound is D_j, the average-latency QoS bound in seconds.
	DelayBound float64
	// Power is the per-server linear power model.
	Power power.ServerModel
	// BudgetWatts is the available power budget P_rb for peak shaving;
	// 0 means unconstrained.
	BudgetWatts float64
}

// Validate checks the IDC's parameters.
func (d IDC) Validate() error {
	if d.TotalServers <= 0 {
		return fmt.Errorf("%s: %d servers: %w", d.Name, d.TotalServers, ErrBadTopology)
	}
	if !(d.ServiceRate > 0) || math.IsInf(d.ServiceRate, 0) {
		return fmt.Errorf("%s: service rate %g: %w", d.Name, d.ServiceRate, ErrBadTopology)
	}
	if !(d.DelayBound > 0) || math.IsInf(d.DelayBound, 0) {
		return fmt.Errorf("%s: delay bound %g: %w", d.Name, d.DelayBound, ErrBadTopology)
	}
	if !(d.BudgetWatts >= 0) || math.IsInf(d.BudgetWatts, 0) {
		return fmt.Errorf("%s: budget %g: %w", d.Name, d.BudgetWatts, ErrBadTopology)
	}
	if !(d.Power.B0 >= 0) || math.IsInf(d.Power.B0, 0) {
		return fmt.Errorf("%s: power B0 %g: %w", d.Name, d.Power.B0, ErrBadTopology)
	}
	if !(d.Power.B1 >= 0) || math.IsInf(d.Power.B1, 0) {
		return fmt.Errorf("%s: power B1 %g: %w", d.Name, d.Power.B1, ErrBadTopology)
	}
	return nil
}

// Capacity returns the latency-bounded workload capacity with all servers
// on: λ̄_j = M_j·µ_j − 1/D_j.
func (d IDC) Capacity() float64 {
	c, err := queueing.MaxThroughput(d.TotalServers, d.ServiceRate, d.DelayBound)
	if err != nil {
		return 0
	}
	return c
}

// MinServersFor returns the eq. (35) server count for workload rate lambda,
// clamped to the installed fleet.
func (d IDC) MinServersFor(lambda float64) (int, error) {
	m, err := queueing.MinServers(lambda, d.ServiceRate, d.DelayBound)
	if err != nil {
		return 0, err
	}
	if m > d.TotalServers {
		m = d.TotalServers
	}
	return m, nil
}

// Topology is the C-portal, N-IDC system.
type Topology struct {
	portals int
	idcs    []IDC
}

// NewTopology validates and builds a topology.
func NewTopology(portals int, idcs []IDC) (*Topology, error) {
	if portals <= 0 {
		return nil, fmt.Errorf("%d portals: %w", portals, ErrBadTopology)
	}
	if len(idcs) == 0 {
		return nil, fmt.Errorf("no IDCs: %w", ErrBadTopology)
	}
	for i := range idcs {
		if err := idcs[i].Validate(); err != nil {
			return nil, err
		}
	}
	cp := make([]IDC, len(idcs))
	copy(cp, idcs)
	return &Topology{portals: portals, idcs: cp}, nil
}

// C returns the number of front-end portals.
func (t *Topology) C() int { return t.portals }

// N returns the number of IDCs.
func (t *Topology) N() int { return len(t.idcs) }

// NU returns the control-input dimension N·C.
func (t *Topology) NU() int { return t.portals * len(t.idcs) }

// IDC returns data center j (0-based).
func (t *Topology) IDC(j int) IDC { return t.idcs[j] }

// IDCs returns a copy of the data center list.
func (t *Topology) IDCs() []IDC {
	cp := make([]IDC, len(t.idcs))
	copy(cp, t.idcs)
	return cp
}

// Index returns the position of λ_{ij} (portal i → IDC j) in U.
func (t *Topology) Index(portal, idc int) int {
	if portal < 0 || portal >= t.portals || idc < 0 || idc >= len(t.idcs) {
		panic(fmt.Sprintf("idc: index (portal=%d, idc=%d) out of range C=%d N=%d",
			portal, idc, t.portals, len(t.idcs)))
	}
	return idc*t.portals + portal
}

// Capacities returns every IDC's full-fleet latency-bounded capacity.
func (t *Topology) Capacities() []float64 {
	out := make([]float64, len(t.idcs))
	for j := range t.idcs {
		out[j] = t.idcs[j].Capacity()
	}
	return out
}

// Feasible reports the paper's Sleep Controllability Condition for a demand
// vector: Σ L_i ≤ Σ λ̄_j.
func (t *Topology) Feasible(demands []float64) bool {
	var total float64
	for _, d := range demands {
		total += d
	}
	return queueing.Feasible(total, t.Capacities())
}

// ConservationMatrix builds the H of the workload-conservation equalities
// H·U = L (eqs. 26–29): row i sums portal i's allocation across IDCs. The
// matrix is purely structural (0/1 per the topology) — demands enter only
// the right-hand side — so callers may build it once and reuse it.
func (t *Topology) ConservationMatrix() *mat.Dense {
	h := mat.Zeros(t.portals, t.NU())
	for i := 0; i < t.portals; i++ {
		for j := 0; j < len(t.idcs); j++ {
			h.Set(i, t.Index(i, j), 1)
		}
	}
	return h
}

// LatencyMatrix builds the Ψ of the latency/capacity inequalities Ψ·U ≤ φ
// (eqs. 30–33): row j sums IDC j's received workload. Like the conservation
// H it is purely structural; the caps φ enter only the right-hand side
// (the MPC's are the full-fleet Capacities).
func (t *Topology) LatencyMatrix() *mat.Dense {
	psi := mat.Zeros(len(t.idcs), t.NU())
	for j := range t.idcs {
		for i := 0; i < t.portals; i++ {
			psi.Set(j, t.Index(i, j), 1)
		}
	}
	return psi
}

// Allocation is a workload assignment λ_{ij} stored in U order.
type Allocation struct {
	top *Topology
	u   []float64
}

// NewAllocation returns a zero allocation on t.
func NewAllocation(t *Topology) *Allocation {
	return &Allocation{top: t, u: make([]float64, t.NU())}
}

// AllocationFromVector wraps a U-ordered vector (copied).
func AllocationFromVector(t *Topology, u []float64) (*Allocation, error) {
	if len(u) != t.NU() {
		return nil, fmt.Errorf("vector length %d, want %d: %w", len(u), t.NU(), ErrBadTopology)
	}
	cp := make([]float64, len(u))
	copy(cp, u)
	return &Allocation{top: t, u: cp}, nil
}

// Vector returns a copy of the allocation in U order.
func (a *Allocation) Vector() []float64 {
	cp := make([]float64, len(a.u))
	copy(cp, a.u)
	return cp
}

// At returns λ_{ij}.
func (a *Allocation) At(portal, idc int) float64 {
	return a.u[a.top.Index(portal, idc)]
}

// Set assigns λ_{ij}.
func (a *Allocation) Set(portal, idc int, v float64) {
	a.u[a.top.Index(portal, idc)] = v
}

// PerIDC returns λ_j = Σ_i λ_{ij} for each IDC.
func (a *Allocation) PerIDC() []float64 {
	out := make([]float64, a.top.N())
	for j := 0; j < a.top.N(); j++ {
		var s float64
		for i := 0; i < a.top.C(); i++ {
			s += a.u[a.top.Index(i, j)]
		}
		out[j] = s
	}
	return out
}

// PerPortal returns Σ_j λ_{ij} for each portal.
func (a *Allocation) PerPortal() []float64 {
	out := make([]float64, a.top.C())
	for i := 0; i < a.top.C(); i++ {
		var s float64
		for j := 0; j < a.top.N(); j++ {
			s += a.u[a.top.Index(i, j)]
		}
		out[i] = s
	}
	return out
}

// Clone deep-copies the allocation.
func (a *Allocation) Clone() *Allocation {
	out := NewAllocation(a.top)
	copy(out.u, a.u)
	return out
}

// Topology returns the allocation's topology.
func (a *Allocation) Topology() *Topology { return a.top }

// PaperTopology returns the §V experimental setup: five portals and the
// three Table II IDCs (Michigan, Minnesota, Wisconsin) with the 150 W idle /
// 285 W peak server model.
//
// Fleet sizes are (20000, 40000, 20000) rather than Table II's
// (30000, 40000, 20000): every power figure the paper reports —
// 2.1375/11.4/5.7 MW at 6H, 5.7/11.4/1.628775 MW at 7H, and the 5715
// Wisconsin servers — is reproduced exactly by M₁ = 20000 and is
// inconsistent with M₁ = 30000 (which would put 25000 Michigan servers ≙
// 7.125 MW online at 7H instead of the reported 5.7 MW). We take Table II's
// M₁ to be a typo; see EXPERIMENTS.md.
func PaperTopology() *Topology {
	mk := func(name string, region price.Region, m int, mu float64) IDC {
		pm, err := power.NewServerModel(150, 285, mu)
		if err != nil {
			panic(err) // unreachable: static parameters
		}
		return IDC{
			Name:         name,
			Region:       region,
			TotalServers: m,
			ServiceRate:  mu,
			DelayBound:   0.001,
			Power:        pm,
		}
	}
	t, err := NewTopology(5, []IDC{
		mk("michigan", price.Michigan, 20000, 2.0),
		mk("minnesota", price.Minnesota, 40000, 1.25),
		mk("wisconsin", price.Wisconsin, 20000, 1.75),
	})
	if err != nil {
		panic(err) // unreachable: static parameters
	}
	return t
}

// SyntheticTopology builds a deterministic C-portal, N-IDC system for
// scale tests and benchmarks beyond the paper's 5×3 setup. Service rates,
// fleet sizes and power models vary per IDC; regions cycle through the
// embedded price regions. perIDCCapacity is the approximate latency-bounded
// workload capacity of each IDC (req/s).
//
//lint:ignore testonly scale tests of several packages and the bench module's grid workload build on it
func SyntheticTopology(portals, n int, perIDCCapacity float64) (*Topology, error) {
	if perIDCCapacity <= 0 {
		return nil, fmt.Errorf("capacity %g: %w", perIDCCapacity, ErrBadTopology)
	}
	regions := []price.Region{price.Michigan, price.Minnesota, price.Wisconsin}
	idcs := make([]IDC, n)
	for j := 0; j < n; j++ {
		mu := 1.0 + 0.25*float64(j%5) // 1.0 … 2.0 req/s
		idle := 100 + 20*float64(j%4) // 100 … 160 W
		peak := idle + 90 + 15*float64(j%3)
		pm, err := power.NewServerModel(idle, peak, mu)
		if err != nil {
			return nil, err
		}
		servers := int((perIDCCapacity + 1000) / mu)
		idcs[j] = IDC{
			Name:         fmt.Sprintf("idc-%02d", j),
			Region:       regions[j%len(regions)],
			TotalServers: servers,
			ServiceRate:  mu,
			DelayBound:   0.001,
			Power:        pm,
		}
	}
	return NewTopology(portals, idcs)
}
