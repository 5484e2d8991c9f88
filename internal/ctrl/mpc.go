package ctrl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/qp"
)

// MPC failure modes.
var (
	// ErrBadConfig is returned for invalid controller configurations.
	ErrBadConfig = errors.New("ctrl: invalid MPC configuration")
	// ErrInfeasible is returned when no allocation satisfies the workload
	// and latency constraints over the control horizon.
	ErrInfeasible = errors.New("ctrl: MPC constraints infeasible")
)

// MPCConfig parameterizes the controller.
//
// The paper's W selects only the scalar accumulated cost C̄. Tracking that
// scalar cannot enforce per-IDC power budgets, yet §IV.D shaves peaks by
// clamping each IDC's power reference, so we expose the natural
// generalization: the controller tracks the full state (C̄, E1 … EN) with
// per-component weights. CostWeight 0 with PowerWeight > 0 reproduces the
// per-IDC budget-tracking behaviour of Figs. 6–7; PowerWeight 0 with
// CostWeight > 0 is the paper's literal W.
type MPCConfig struct {
	// PredHorizon is β1 ≥ 1 (default 8).
	PredHorizon int
	// CtrlHorizon is β2 with 1 ≤ β2 ≤ β1 (default 3).
	CtrlHorizon int
	// CostWeight is the tracking weight on C̄ (default 0).
	CostWeight float64
	// PowerWeight is the tracking weight on each E_j (default 1).
	PowerWeight float64
	// SmoothWeight is the R penalty on ‖ΔU‖² — the paper's power-demand
	// smoothing knob (default 0; set > 0 to smooth).
	SmoothWeight float64
	// ForceDense disables the structure-exploiting solver path that large
	// problems (nu·β2 ≥ qp.StructuredMinVars) select automatically. It is an
	// escape hatch for debugging and the knob the comparison benchmarks use;
	// results agree with the structured path to solver tolerance either way.
	ForceDense bool
}

func (c *MPCConfig) defaults() error {
	if c.PredHorizon == 0 {
		c.PredHorizon = 8
	}
	if c.CtrlHorizon == 0 {
		c.CtrlHorizon = 3
	}
	if c.PredHorizon < 1 || c.CtrlHorizon < 1 || c.CtrlHorizon > c.PredHorizon {
		return fmt.Errorf("horizons β1=%d β2=%d: %w", c.PredHorizon, c.CtrlHorizon, ErrBadConfig)
	}
	// !(w >= 0) also rejects NaN, which fails every comparison.
	for _, w := range [...]float64{c.CostWeight, c.PowerWeight, c.SmoothWeight} {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("weights cost=%g power=%g smooth=%g, want finite and non-negative: %w",
				c.CostWeight, c.PowerWeight, c.SmoothWeight, ErrBadConfig)
		}
	}
	//lint:ignore floateq unset-weight sentinel: only an exact zero means "disabled"
	if c.CostWeight == 0 && c.PowerWeight == 0 {
		return fmt.Errorf("all tracking weights zero: %w", ErrBadConfig)
	}
	return nil
}

// MPC is the receding-horizon controller. It is not safe for concurrent
// use, and it moves by pointer: a by-value copy would share the grow-only
// step scratch with the original.
//
//lint:nocopy
type MPC struct {
	cfg MPCConfig
	// prevZ caches the previous solve's move plan for warm-starting: the
	// plan shifted one step left is usually feasible for the next problem
	// and close to its optimum, cutting active-set iterations during
	// transitions. It is only meaningful for the model (and hence reference
	// regime) it was planned under, so Step discards it whenever the model
	// identity changes.
	prevZ []float64
	// cons is the constraint structure of the topology shape last seen,
	// shared by every condensed cache built for it; a model swap keeps it.
	cons *constraints
	// cache holds the condensed matrices for the current model; lastModel
	// is the model the controller state (cache and prevZ alike) belongs to.
	// A Model is immutable, so its pointer is its identity, and while
	// lastModel holds it the garbage collector cannot free it and hand its
	// address to a new one.
	cache     *condensed
	lastModel *Model
	// nocache forces a fresh condensed build every Step (testing hook used
	// to prove cached and uncached paths are bit-identical).
	nocache bool
	// sc holds Step's grow-only scratch buffers; once they reach the
	// problem's steady size, a cached-path Step performs no heap allocations.
	sc stepScratch
	// instr holds the optional observability hooks; see Instruments.
	instr Instruments
}

// Instruments are the MPC's optional observability hooks (internal/obs).
// All fields are nil-safe no-ops when unset, so an instrumented Step stays
// zero-alloc and an uninstrumented one pays only nil checks
// (TestMPCStepInstrumentedAllocFree pins the former).
type Instruments struct {
	// CacheHits/CacheMisses count condensed-matrix cache reuse vs rebuilds.
	CacheHits, CacheMisses *obs.Counter
	// ModelSwaps counts model identity changes Step observed — every
	// NewFoldedModel rebuild the controller fed in.
	ModelSwaps *obs.Counter
	// QP is forwarded to the condensed cache's qp.Workspace.
	QP qp.Instruments
}

// SetInstruments installs observability hooks; the QP hooks propagate to
// the current and all future condensed caches. The zero Instruments value
// detaches them again.
func (m *MPC) SetInstruments(in Instruments) {
	m.instr = in
	if m.cache != nil {
		m.cache.ws.SetInstruments(in.QP)
	}
}

// stepScratch is MPC.Step's reusable buffer set. Everything the returned
// StepOutput points into lives here, which is what makes the steady-state
// step allocation-free — and why outputs are only valid until the next Step
// (see StepOutput).
//
//lint:nocopy
type stepScratch struct {
	d, refEnergy   []float64
	free, xiU      []float64
	hPrev, psiPrev []float64
	beq, bin       []float64
	zero, shifted  []float64
	feasBuf        []float64
	deltaU, u      []float64
	ls             qp.LSProblem
	out            StepOutput
}

// NewMPC validates the configuration and returns a controller.
func NewMPC(cfg MPCConfig) (*MPC, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &MPC{cfg: cfg}, nil
}

// Config returns the resolved configuration.
func (m *MPC) Config() MPCConfig { return m.cfg }

// StepInput carries everything one control step needs. The model is passed
// per step because prices (and hence A) change between slow-loop ticks.
type StepInput struct {
	// Model is the current discretized system.
	Model *Model
	// State is X(k) = (C̄, E1 … EN).
	State []float64
	// PrevU is U(k−1), the allocation applied during the previous period.
	PrevU []float64
	// Servers is unread: the folded model's disturbance and latency caps
	// do not depend on the active-server counts, so Step neither reads nor
	// validates it. It is deleted with bench/replay.go, its last setter.
	Servers []int
	// Demands is the portal demand vector L for the conservation equality.
	Demands []float64
	// RefPower is the per-IDC power reference Ṙ_j in watts (after the
	// §IV.D budget clamp). The internal energy-state reference ramps at
	// this rate from the current state.
	RefPower []float64
	// RefPowerTraj optionally supplies a full reference trajectory — the
	// paper's Υ(k) of eq. (41) — with one per-IDC power vector for each
	// prediction step s = 1…β1 (built from multi-step workload forecasts).
	// When shorter than β1 the last entry is held; when nil RefPower is
	// used for every step.
	RefPowerTraj [][]float64
}

// StepOutput is the controller's move.
//
// Ownership: the slices point into the controller's reusable scratch and are
// overwritten by the next Step on the same MPC. Callers that retain them
// across steps must copy.
type StepOutput struct {
	// DeltaU is the first move ΔU(k|k).
	DeltaU []float64
	// U is the new allocation U(k) = U(k−1) + ΔU.
	U []float64
	// QPIterations reports active-set iterations (diagnostics).
	QPIterations int
}

// condensedFor returns the condensed matrices for the current model,
// reusing the cache while the model identity is unchanged. It also owns the
// staleness handling: a model change invalidates the warm-start plan, which
// was computed against the old model's predictions and reference regime.
func (m *MPC) condensedFor(model *Model) (*condensed, error) {
	if model != m.lastModel {
		if m.lastModel != nil {
			m.instr.ModelSwaps.Inc()
		}
		m.prevZ = nil
		m.lastModel = model
	}
	if m.cache.valid(model) && !m.nocache {
		m.instr.CacheHits.Inc()
		return m.cache, nil
	}
	m.instr.CacheMisses.Inc()
	if top := model.Topology(); m.cons == nil || m.cons.c != top.C() || m.cons.n != top.N() {
		//lint:ignore hotalloc built once per topology shape; model swaps reuse it
		m.cons = newConstraints(top, m.cfg.CtrlHorizon)
	}
	// The cache being replaced may hand its Hessian and workspace on
	// (newCondensed); the nocache MPC never holds one, so it always builds
	// both fresh.
	prev := m.cache
	m.cache = nil
	//lint:ignore hotalloc cold cache rebuild: runs only when the model identity changed
	cd, err := newCondensed(model, m.cfg, m.cons, prev)
	if err != nil {
		return nil, err
	}
	cd.ws.SetInstruments(m.instr.QP)
	if !m.nocache {
		m.cache = cd
	}
	return cd, nil
}

// Step solves the condensed MPC problem and returns the first move.
//
// Step is the fast-loop entry point: with the condensed cache warm and the
// scratch grown to steady size it performs zero heap allocations
// (TestMPCStepSteadyStateAllocFree), which idclint's hotalloc analyzer
// checks statically from this root.
//
//lint:hotpath
func (m *MPC) Step(in StepInput) (*StepOutput, error) {
	if err := m.validate(in); err != nil {
		return nil, err
	}
	model := in.Model
	top := model.Topology()
	ns := model.StateDim()
	nu := model.InputDim()
	b1, b2 := m.cfg.PredHorizon, m.cfg.CtrlHorizon

	cd, err := m.condensedFor(model)
	if err != nil {
		return nil, err
	}
	sc := &m.sc

	// Free response and reference → stacked residual d = ref − free(X, U, V̄).
	ts := model.Ts()
	prices := model.prices // read-only; Prices() would copy per step
	// refAt returns the power reference for prediction step s (1-based):
	// the trajectory entry when supplied, else the constant RefPower.
	refAt := func(s int) []float64 {
		if len(in.RefPowerTraj) == 0 {
			return in.RefPower
		}
		if s-1 < len(in.RefPowerTraj) {
			return in.RefPowerTraj[s-1]
		}
		return in.RefPowerTraj[len(in.RefPowerTraj)-1]
	}
	sc.d = mat.GrowVec(sc.d, ns*b1)
	d := sc.d
	// Energy references integrate the per-step power references.
	sc.refEnergy = mat.GrowVec(sc.refEnergy, top.N())
	refEnergy := sc.refEnergy
	copy(refEnergy, in.State[1:])
	refCost := in.State[0]
	sc.free = mat.GrowVec(sc.free, ns)
	sc.xiU = mat.GrowVec(sc.xiU, ns)
	free, xiU := sc.free, sc.xiU
	for s := 1; s <= b1; s++ {
		if err := mat.MulVecInto(free, cd.phiPow[s], in.State); err != nil {
			return nil, err
		}
		if err := mat.MulVecInto(xiU, cd.cumG[s-1], in.PrevU); err != nil {
			return nil, err
		}
		omega := cd.omega.RowView(s - 1)
		stepRef := refAt(s)
		// The C̄ reference ramps at Σ_j Pr_j·P_ref_j; only CostWeight > 0
		// weighs that row.
		var refCostRate float64
		if m.cfg.CostWeight > 0 {
			for j := range prices {
				refCostRate += prices[j] * stepRef[j]
			}
		}
		refCost += refCostRate * ts
		d[(s-1)*ns] = refCost - free[0] - xiU[0] - omega[0]
		for j := 0; j < top.N(); j++ {
			refEnergy[j] += stepRef[j] * ts
			row := (s-1)*ns + 1 + j
			d[row] = refEnergy[j] - free[1+j] - xiU[1+j] - omega[1+j]
		}
	}

	beq, bin, err := m.constraintRHS(cd, in)
	if err != nil {
		return nil, err
	}

	sc.ls = qp.LSProblem{
		M: cd.theta, D: d, Wq: cd.wq, Wr: cd.wr,
		Aeq: cd.cons.aeq, Beq: beq,
		Ain: cd.cons.ain, Bin: bin,
		X0: m.warmStart(nu, b2, cd, beq, bin),
	}
	res, err := qp.SolveLSWith(&sc.ls, cd.form, cd.ws)
	if err != nil {
		if errors.Is(err, qp.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, fmt.Errorf("ctrl: qp: %w", err)
	}

	m.prevZ = append(m.prevZ[:0], res.X...)

	// in.PrevU may alias the previous output's U buffer (sc.u); it is no
	// longer read after the residual pass, so the write to sc.u below stays
	// safe.
	sc.deltaU = mat.GrowVec(sc.deltaU, nu)
	deltaU := sc.deltaU
	copy(deltaU, res.X[:nu])
	sc.u = mat.GrowVec(sc.u, nu)
	u := sc.u
	// Same-index read-then-write, safe when u aliases in.PrevU.
	mat.AddVecInto(u, in.PrevU, deltaU)
	clampNonnegative(u, 1e-7*(1+mat.NormInfVec(u)))

	sc.out = StepOutput{
		DeltaU:       deltaU,
		U:            u,
		QPIterations: res.Iterations,
	}
	return &sc.out, nil
}

// warmStart returns the best available feasible starting point: the
// previous plan shifted one step (exact when demands and caps are
// unchanged), else the zero move. qp.SolveWith re-checks feasibility and runs
// its LP phase only if the returned point is infeasible too.
func (m *MPC) warmStart(nu, b2 int, cd *condensed, beq, bin []float64) []float64 {
	sc := &m.sc
	sc.zero = mat.GrowVec(sc.zero, nu*b2)
	zero := sc.zero
	for i := range zero { // reused buffer: clear stale contents
		zero[i] = 0
	}
	if len(m.prevZ) != nu*b2 {
		return zero
	}
	sc.shifted = mat.GrowVec(sc.shifted, nu*b2)
	shifted := sc.shifted
	for i := range shifted {
		shifted[i] = 0
	}
	copy(shifted, m.prevZ[nu:])
	if m.pointFeasible(shifted, cd, beq, bin) {
		return shifted
	}
	return zero
}

// pointFeasible checks Aeq·z = beq and Ain·z ≤ bin within tolerance,
// through the compressed constraint rows (the products are bit-identical
// to the dense ones).
func (m *MPC) pointFeasible(z []float64, cd *condensed, beq, bin []float64) bool {
	const tol = 1e-7
	sc := &m.sc
	cons := cd.cons
	sc.feasBuf = mat.GrowVec(sc.feasBuf, cons.aeq.Rows())
	v := sc.feasBuf
	if err := cons.aeq.MulVecInto(v, z); err != nil {
		return false
	}
	// The row tolerance is loop-invariant: hoisting the norm out of the
	// row loop computes the exact same scale once instead of O(rows)
	// times, so every accept/reject decision is unchanged.
	scale := 1 + mat.NormInfVec(beq)
	for i := range beq {
		if diff := v[i] - beq[i]; diff > tol*scale || diff < -tol*scale {
			return false
		}
	}
	sc.feasBuf = mat.GrowVec(sc.feasBuf, cons.ain.Rows())
	v = sc.feasBuf
	if err := cons.ain.MulVecInto(v, z); err != nil {
		return false
	}
	// Same hoist as the equality rows: one norm, identical decisions.
	binTol := tol * (1 + mat.NormInfVec(bin))
	for i := range bin {
		if v[i] > bin[i]+binTol {
			return false
		}
	}
	return true
}

// validate returns ErrBadConfig, naming the field, for a nil model, a
// vector of the wrong length, a NaN or ±Inf anywhere in the input, or a
// negative demand.
func (m *MPC) validate(in StepInput) error {
	if in.Model == nil {
		return fmt.Errorf("nil model: %w", ErrBadConfig)
	}
	top := in.Model.Topology()
	if len(in.State) != in.Model.StateDim() {
		return fmt.Errorf("state length %d, want %d: %w", len(in.State), in.Model.StateDim(), ErrBadConfig)
	}
	if len(in.PrevU) != in.Model.InputDim() {
		return fmt.Errorf("prevU length %d, want %d: %w", len(in.PrevU), in.Model.InputDim(), ErrBadConfig)
	}
	if len(in.Demands) != top.C() {
		return fmt.Errorf("%d demands for %d portals: %w", len(in.Demands), top.C(), ErrBadConfig)
	}
	if len(in.RefPower) != top.N() {
		return fmt.Errorf("%d power refs for %d IDCs: %w", len(in.RefPower), top.N(), ErrBadConfig)
	}
	if err := checkInput(in.State, "state", -1, false); err != nil {
		return err
	}
	if err := checkInput(in.PrevU, "prevU", -1, false); err != nil {
		return err
	}
	if err := checkInput(in.Demands, "demand", -1, true); err != nil {
		return err
	}
	if err := checkInput(in.RefPower, "refPower", -1, false); err != nil {
		return err
	}
	for s, ref := range in.RefPowerTraj {
		if len(ref) != top.N() {
			return fmt.Errorf("refPowerTraj[%d]: %d power refs for %d IDCs: %w", s, len(ref), top.N(), ErrBadConfig)
		}
		if err := checkInput(ref, "refPowerTraj", s, false); err != nil {
			return err
		}
	}
	return nil
}

// checkInput returns ErrBadConfig, naming the entry, for the first NaN or
// ±Inf in xs, or the first negative entry when nonneg is set. The error
// calls xs name, or name[k] when k ≥ 0.
func checkInput(xs []float64, name string, k int, nonneg bool) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || nonneg && x < 0 {
			if k >= 0 {
				name = fmt.Sprintf("%s[%d]", name, k)
			}
			return fmt.Errorf("%s[%d] = %v: %w", name, i, x, ErrBadConfig)
		}
	}
	return nil
}

// constraintRHS builds the right-hand sides of (43)–(45) over z: per-step
// conservation equalities, latency caps, and nonnegativity of the cumulated
// allocation U(k+s) = U(k−1) + Σ_{r≤s} ΔU_r. The matrices themselves are
// structural and the caps φ per model, all in the condensed cache; only
// demands and U(k−1) vary per step.
func (m *MPC) constraintRHS(cd *condensed, in StepInput) (beq, bin []float64, err error) {
	top := in.Model.Topology()
	nu := in.Model.InputDim()
	b2 := m.cfg.CtrlHorizon
	c := top.C()
	n := top.N()

	sc := &m.sc
	sc.hPrev = mat.GrowVec(sc.hPrev, c)
	hPrev := sc.hPrev
	if err := mat.MulVecInto(hPrev, cd.cons.consH, in.PrevU); err != nil {
		return nil, nil, err
	}
	sc.psiPrev = mat.GrowVec(sc.psiPrev, n)
	psiPrev := sc.psiPrev
	if err := mat.MulVecInto(psiPrev, cd.cons.psi, in.PrevU); err != nil {
		return nil, nil, err
	}

	sc.beq = mat.GrowVec(sc.beq, c*b2)
	sc.bin = mat.GrowVec(sc.bin, (n+nu)*b2)
	beq, bin = sc.beq, sc.bin
	for s := 0; s < b2; s++ {
		for i := 0; i < c; i++ {
			beq[s*c+i] = in.Demands[i] - hPrev[i]
		}
		for j := 0; j < n; j++ {
			bin[s*n+j] = cd.caps[j] - psiPrev[j]
		}
		for i := 0; i < nu; i++ {
			bin[b2*n+s*nu+i] = in.PrevU[i]
		}
	}
	return beq, bin, nil
}

// clampNonnegative zeroes small negative entries left by QP round-off so a
// returned allocation is always physically valid. Entries below -tol are
// left alone: they indicate a real solver failure the caller should see.
func clampNonnegative(xs []float64, tol float64) {
	for i, v := range xs {
		if v < 0 && v > -tol {
			xs[i] = 0
		}
	}
}
