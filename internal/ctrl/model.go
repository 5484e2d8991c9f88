// Package ctrl implements the paper's feedback-control solution (§IV): the
// continuous-time state-space model of electricity cost (eqs. 19–20), its
// zero-order-hold discretization (eqs. 21–25), the workload-loop
// controllability condition, and the constrained model-predictive controller
// obtained by condensing eqs. (36)–(41) into the standard least-squares
// problem (42) with constraints (43)–(45).
//
// State convention (matching the paper):
//
//	X = (C̄, E1 … EN)ᵀ
//
// where C̄ accumulates Σ_j Pr_j·E_j and E_j accumulates IDC j's energy
// (Ė_j = P_j = b1_j·λ_j + b0_j·m_j). The control input is the allocation
// vector U ∈ ℝ^{NC} in idc.Topology order. The sleep-control law is folded
// into the plant (eq. 36), so the controller's disturbance is the constant
// standby vector V̄_j = 1/(µ_j·D_j), not the active-server counts.
package ctrl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/idc"
	"repro/internal/mat"
)

// ErrBadModel is returned for invalid model construction inputs.
var ErrBadModel = errors.New("ctrl: invalid model input")

// Model is the discretized state-space system for one price vector.
// Prices enter the A matrix, so the model is rebuilt whenever the
// real-time price changes (the slow loop compares the prices on every
// tick). A Model is never modified after NewFoldedModel returns it, and
// its matrices are unexported, so no other package can write one: the
// pointer alone identifies a model, and it is what MPC condensed-matrix
// caches are keyed on.
type Model struct {
	top    *idc.Topology
	prices []float64
	ts     float64

	// Discrete-time matrices (eqs. 23–25).
	phi   *mat.Dense // e^{A·Ts}
	g     *mat.Dense // ∫ e^{As} ds · B
	gamma *mat.Dense // ∫ e^{As} ds · F
}

// NewFoldedModel builds and discretizes the model of eq. (36) for the
// given per-IDC prices ($/MWh) and sampling period ts (seconds): the
// sleep-control law m_j = (λ_j + 1/D_j)/µ_j is substituted into the plant,
// making the input matrix G' = F + Γ·µ̄·Ψ in the paper's notation.
// Concretely each IDC's power becomes an affine function of its workload
// alone:
//
//	Ė_j = (b1_j + b0_j/µ_j)·λ_j + b0_j/(µ_j·D_j)
//
// so the controller predicts server power without needing the integer
// server count as an input; the constant second term is the disturbance Ω.
// Latency caps are the full-fleet capacities (the per-step sleep law keeps
// m on the latency boundary by construction, so only m_j ≤ M_j binds).
//
// Every portal column of IDC j in B holds the gain b1_j + b0_j/µ_j at row
// 1+j and nothing else, so the Van Loan block is built over one input
// column per IDC plus F, (3N+1)-square instead of (N+1+NC+N)-square, and
// each resulting G column is copied to its IDC's C portal columns. Φ, G and
// Γ are the full block's bit for bit (DESIGN.md §3.1).
func NewFoldedModel(top *idc.Topology, prices []float64, ts float64) (*Model, error) {
	if top == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadModel)
	}
	if len(prices) != top.N() {
		return nil, fmt.Errorf("%d prices for %d IDCs: %w", len(prices), top.N(), ErrBadModel)
	}
	if ts <= 0 {
		return nil, fmt.Errorf("sampling period %g: %w", ts, ErrBadModel)
	}
	n := top.N()
	ns := n + 1

	a := mat.Zeros(ns, ns)
	for j := 0; j < n; j++ {
		a.Set(0, 1+j, prices[j])
	}
	// bf is [one B column per IDC | F].
	bf := mat.Zeros(ns, 2*n)
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		bf.Set(1+j, j, foldedGain(d))
		bf.Set(1+j, n+j, d.Power.B0)
	}
	phi, gAll, err := mat.Discretize(a, bf, ts)
	if err != nil {
		return nil, fmt.Errorf("ctrl: discretize: %w", err)
	}
	pr := make([]float64, len(prices))
	copy(pr, prices)
	m := &Model{
		top:    top,
		prices: pr,
		ts:     ts,
		phi:    phi,
		g:      perPortal(top, gAll),
		gamma:  gAll.Slice(0, ns, n, 2*n),
	}
	if err := m.checkFinite(); err != nil {
		return nil, err
	}
	return m, nil
}

// foldedGain is d's power per unit of workload with the sleep law folded
// in, b1 + b0/µ: B's one nonzero entry in each of d's portal columns.
func foldedGain(d idc.IDC) float64 { return d.Power.B1 + d.Power.B0/d.ServiceRate }

// perPortal returns the (N+1)×NC input matrix whose column Index(i, j) is
// column j of src, for every portal i.
func perPortal(top *idc.Topology, src *mat.Dense) *mat.Dense {
	n, c := top.N(), top.C()
	out := mat.Zeros(src.Rows(), top.NU())
	for r := 0; r < src.Rows(); r++ {
		row := src.RowView(r)
		for j := 0; j < n; j++ {
			for i := 0; i < c; i++ {
				out.Set(r, top.Index(i, j), row[j])
			}
		}
	}
	return out
}

// checkFinite returns ErrBadModel, naming the prices, when the discretized
// Φ, G or Γ has a NaN or ±Inf entry: mat.Discretize overflows from about
// 5e301 $/MWh.
func (m *Model) checkFinite() error {
	if err := checkRepresentable(m.prices, m.phi, "Phi", -1); err != nil {
		return err
	}
	if err := checkRepresentable(m.prices, m.g, "G", -1); err != nil {
		return err
	}
	return checkRepresentable(m.prices, m.gamma, "Gamma", -1)
}

// checkRepresentable returns ErrBadModel, naming the prices, when a has a
// NaN or ±Inf entry: a was built from prices too large for the model to
// represent. The error calls a name, or name[k] when k ≥ 0.
func checkRepresentable(prices []float64, a *mat.Dense, name string, k int) error {
	for i := 0; i < a.Rows(); i++ {
		for j, v := range a.RowView(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if k >= 0 {
					name = fmt.Sprintf("%s[%d]", name, k)
				}
				return fmt.Errorf("prices %v: %s[%d][%d] = %v: %w", prices, name, i, j, v, ErrBadModel)
			}
		}
	}
	return nil
}

// Topology returns the model's topology.
func (m *Model) Topology() *idc.Topology { return m.top }

// Ts returns the sampling period in seconds.
func (m *Model) Ts() float64 { return m.ts }

// Prices returns a copy of the prices baked into A.
func (m *Model) Prices() []float64 {
	cp := make([]float64, len(m.prices))
	copy(cp, m.prices)
	return cp
}

// StateDim returns N+1.
func (m *Model) StateDim() int { return m.top.N() + 1 }

// InputDim returns N·C.
func (m *Model) InputDim() int { return m.top.NU() }

// Step propagates the plant one sampling period with the active-server
// counts m:
//
//	X(k) = Φ·X(k−1) + G·U(k−1) + Γ·V(k−1)
//
// G already carries each IDC's idle power for λ_j/µ_j servers, so V is
// m_j − λ_j/µ_j and E_j integrates the plant's b1_j·λ_j + b0_j·m_j.
func (m *Model) Step(x, u []float64, servers []int) ([]float64, error) {
	if len(x) != m.StateDim() {
		return nil, fmt.Errorf("state length %d, want %d: %w", len(x), m.StateDim(), ErrBadModel)
	}
	if len(u) != m.InputDim() {
		return nil, fmt.Errorf("input length %d, want %d: %w", len(u), m.InputDim(), ErrBadModel)
	}
	if len(servers) != m.top.N() {
		return nil, fmt.Errorf("%d server counts for %d IDCs: %w", len(servers), m.top.N(), ErrBadModel)
	}
	px, err := mat.MulVec(m.phi, x)
	if err != nil {
		return nil, err
	}
	gu, err := mat.MulVec(m.g, u)
	if err != nil {
		return nil, err
	}
	v := make([]float64, len(servers))
	for j, s := range servers {
		var lambda float64
		for i := 0; i < m.top.C(); i++ {
			lambda += u[m.top.Index(i, j)]
		}
		v[j] = float64(s) - lambda/m.top.IDC(j).ServiceRate
	}
	gv, err := mat.MulVec(m.gamma, v)
	if err != nil {
		return nil, err
	}
	return mat.AddVec(mat.AddVec(px, gu), gv), nil
}

// PowerRates returns each IDC's instantaneous power Ė_j = b1·λ_j + b0·m_j
// for an allocation vector and server counts — the quantity plotted as
// "power demand" in the paper's figures.
func (m *Model) PowerRates(u []float64, servers []int) ([]float64, error) {
	if len(u) != m.InputDim() {
		return nil, fmt.Errorf("input length %d, want %d: %w", len(u), m.InputDim(), ErrBadModel)
	}
	if len(servers) != m.top.N() {
		return nil, fmt.Errorf("%d server counts for %d IDCs: %w", len(servers), m.top.N(), ErrBadModel)
	}
	alloc, err := idc.AllocationFromVector(m.top, u)
	if err != nil {
		return nil, err
	}
	per := alloc.PerIDC()
	out := make([]float64, m.top.N())
	for j := range out {
		out[j] = m.top.IDC(j).Power.FleetPower(servers[j], per[j])
	}
	return out, nil
}
