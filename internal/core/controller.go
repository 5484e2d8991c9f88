// Package core assembles the paper's contribution: dynamic control of
// electricity cost with power-demand smoothing and peak shaving for
// distributed Internet data centers (§IV).
//
// A Controller wires the substrates into the two-time-scale architecture:
//
//	slow loop (per price update)  — observe demand, update the AR/RLS
//	     forecaster, re-solve the Rao-style reference LP (eq. 46) on the
//	     predicted demand, clamp each IDC's power reference to its budget
//	     (§IV.D peak shaving), and rebuild the price-dependent model when
//	     the prices changed.
//	fast loop (per sampling step) — solve the constrained MPC (eqs. 42–45)
//	     for the workload re-allocation ΔU, apply the first move, and run
//	     the server sleep control (eq. 35) on the new allocation.
//
// Power-demand smoothing falls out of the MPC's R-weight on ΔU; peak
// shaving falls out of the clamped reference. The controller never violates
// conservation, latency or fleet-size constraints (they are hard MPC
// constraints), while budgets are soft tracking targets exactly as in the
// paper.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/price"
	"repro/internal/queueing"
	"repro/internal/sleep"
)

// Controller failure modes.
var (
	// ErrBadConfig is returned for invalid configurations.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrInfeasible is returned when demand cannot be served at all.
	ErrInfeasible = errors.New("core: demand infeasible")
)

// Config parameterizes the controller.
type Config struct {
	// Topology is the portal/IDC system (required).
	Topology *idc.Topology
	// Prices supplies real-time prices per region (required).
	Prices price.Model
	// MPC configures the fast loop. Zero value uses package defaults with
	// PowerWeight 1.
	MPC ctrl.MPCConfig
	// Ts is the fast-loop sampling period in seconds (default 30).
	Ts float64
	// SlowEvery is the number of fast steps per slow tick (default:
	// steps per hour, matching hourly price updates).
	SlowEvery int
	// Budgets is the per-IDC power budget in watts for peak shaving;
	// nil or zero entries mean unconstrained. Entries override the
	// topology's IDC.BudgetWatts.
	Budgets []float64
	// Sleep configures the slow-loop server controller.
	Sleep sleep.Config
	// UseForecast enables AR/RLS demand prediction for the reference LP;
	// when false the LP sees the latest observed demand.
	UseForecast bool
	// Forecast configures the per-portal predictors (used when UseForecast).
	Forecast forecast.PredictorConfig
	// StartHour offsets the price-trace hour of step 0 (default 0).
	StartHour int
}

// Telemetry is the per-step record emitted by Step — everything the
// experiments and figures need.
type Telemetry struct {
	// Step is the fast-loop step index (0-based).
	Step int
	// Hour is the price-trace hour used this step.
	Hour int
	// Prices is the per-IDC $/MWh price vector.
	Prices []float64
	// Demands is the portal demand vector observed this step.
	Demands []float64
	// U is the applied allocation vector.
	U []float64
	// Servers is the active-server vector after sleep control.
	Servers []int
	// PowerWatts is each IDC's drawn power with the applied U and servers.
	PowerWatts []float64
	// LatencySeconds is each IDC's achieved M/M/n average latency (eq. 14)
	// with the applied allocation and servers; it never exceeds the
	// configured DelayBound while the controller runs.
	LatencySeconds []float64
	// RefPowerWatts is the (budget-clamped) power reference the MPC tracked.
	RefPowerWatts []float64
	// BudgetWatts echoes the active budget (0 = none).
	BudgetWatts []float64
	// CostRate is the instantaneous spend in dollars per hour.
	CostRate float64
	// CumulativeCost is the integrated spend in dollars since step 0.
	CumulativeCost float64
	// QPIterations is the fast-loop solver effort (diagnostics).
	QPIterations int
	// Mode is the controller's operating state as of the last slow tick —
	// ModeNominal unless an input-degradation fallback is active (see the
	// Mode enum and WithFeedPolicy in mode.go). JSON-encodes by name.
	Mode Mode
}

// Controller is the paper's dynamic electricity-cost controller.
// It is not safe for concurrent use.
type Controller struct {
	cfg     Config
	mpc     *ctrl.MPC
	slp     *sleep.Controller
	preds   []*forecast.Predictor
	budgets []float64
	// refSolver carries the reference LP's simplex basis across slow ticks:
	// hourly re-solves change only the cost vector (new prices, same
	// demands/budgets shape), which is exactly lp.Solver's warm-start case.
	// Only the main slowTick solve goes through it; the trajectory and
	// budget-infeasible fallback solves stay on the stateless cold path so
	// their differently-shaped problems never churn the retained basis.
	refSolver *alloc.Solver

	// Observability (see options.go and DESIGN.md §3.8).
	instr     instruments
	metrics   *obs.Registry
	observers []Observer
	trace     *json.Encoder
	now       func() time.Time

	// Degraded-mode machinery (mode.go, DESIGN.md §3.13).
	policy FeedPolicy
	mode   Mode
	// staleTicks counts the consecutive slow ticks served from held
	// prices during the current price-feed outage (0 while healthy).
	staleTicks int
	// spikes holds the per-IDC price-spike detectors (nil unless
	// FeedPolicy.SpikeWindow enables them).
	spikes []*feed.SpikeDetector

	// Mutable loop state.
	step     int
	model    *ctrl.Model
	state    []float64
	u        []float64
	servers  []int
	refPower []float64
	refTraj  [][]float64
	prices   []float64
	cumCost  float64
	started  bool
	// lastDemands is the most recent observed demand vector, kept for
	// immediate budget changes between slow ticks.
	lastDemands []float64
	// pendingResolve forces a slow tick on the next Step — set when an
	// immediate SetBudgets arrives before the controller has the state to
	// re-solve the reference on the spot.
	pendingResolve bool
}

// New validates the configuration and builds a controller. Options attach
// observability and test hooks; New(cfg) with no options is the original
// call and behaves identically (its instruments land in a private registry
// readable via Metrics — controllers never share instruments unless
// WithMetrics wires them to the same registry explicitly).
func New(cfg Config, opts ...Option) (*Controller, error) {
	op := defaultOptions()
	for _, o := range opts {
		if o != nil {
			o(&op)
		}
	}
	if op.metrics == nil {
		op.metrics = obs.NewRegistry()
	}
	if cfg.Topology == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadConfig)
	}
	if cfg.Prices == nil {
		return nil, fmt.Errorf("nil price model: %w", ErrBadConfig)
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Ts means "use the default"
	if cfg.Ts == 0 {
		cfg.Ts = 30
	}
	if !(cfg.Ts > 0) || math.IsInf(cfg.Ts, 0) {
		return nil, fmt.Errorf("ts %g: %w", cfg.Ts, ErrBadConfig)
	}
	if cfg.SlowEvery == 0 {
		cfg.SlowEvery = int(3600 / cfg.Ts)
		if cfg.SlowEvery < 1 {
			cfg.SlowEvery = 1
		}
	}
	if cfg.SlowEvery < 1 {
		return nil, fmt.Errorf("slow-loop divisor %d: %w", cfg.SlowEvery, ErrBadConfig)
	}
	n := cfg.Topology.N()
	budgets := make([]float64, n)
	for j := 0; j < n; j++ {
		budgets[j] = cfg.Topology.IDC(j).BudgetWatts
	}
	if cfg.Budgets != nil {
		if len(cfg.Budgets) != n {
			return nil, fmt.Errorf("%d budgets for %d IDCs: %w", len(cfg.Budgets), n, ErrBadConfig)
		}
		for j, b := range cfg.Budgets {
			if !(b >= 0) || math.IsInf(b, 0) {
				return nil, fmt.Errorf("budget[%d] = %g: %w", j, b, ErrBadConfig)
			}
			if b > 0 {
				budgets[j] = b
			}
		}
	}
	//lint:ignore floateq documented sentinel: both weights exactly zero means "unset"
	if cfg.MPC.PowerWeight == 0 && cfg.MPC.CostWeight == 0 {
		cfg.MPC.PowerWeight = 1
	}
	mpc, err := ctrl.NewMPC(cfg.MPC)
	if err != nil {
		return nil, err
	}
	slp, err := sleep.New(cfg.Topology, cfg.Sleep)
	if err != nil {
		return nil, err
	}
	var preds []*forecast.Predictor
	if cfg.UseForecast {
		preds = make([]*forecast.Predictor, cfg.Topology.C())
		for i := range preds {
			p, err := forecast.NewPredictor(cfg.Forecast)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
	}
	c := &Controller{
		cfg:       cfg,
		mpc:       mpc,
		slp:       slp,
		preds:     preds,
		budgets:   budgets,
		refSolver: alloc.NewSolver(),
		state:     make([]float64, n+1),
		instr:     newInstruments(op.metrics, op.sampleEvery),
		metrics:   op.metrics,
		observers: op.observers,
		now:       op.now,
		policy:    op.feedPolicy,
		spikes:    newSpikeDetectors(n, op.feedPolicy),
	}
	if op.trace != nil {
		c.trace = json.NewEncoder(op.trace)
	}
	c.refSolver.SetInstruments(lpInstruments(op.metrics))
	c.mpc.SetInstruments(mpcInstruments(op.metrics))
	return c, nil
}

// Metrics returns the registry this controller's instruments live in —
// a registry private to this controller unless WithMetrics overrode it.
func (c *Controller) Metrics() *obs.Registry { return c.metrics }

// Budgets returns a copy of the active per-IDC budgets (0 = none).
func (c *Controller) Budgets() []float64 {
	cp := make([]float64, len(c.budgets))
	copy(cp, c.budgets)
	return cp
}

// SetBudgets replaces the per-IDC power budgets at runtime — a grid
// demand-response event. Zero entries mean unconstrained. The new budgets
// take effect at the next slow tick; pass immediate=true to re-solve the
// reference now so the very next fast step already tracks them. When
// immediate is requested before the first Step (no observed demand to
// re-solve against yet), the re-solve is recorded as pending and runs at
// the start of the next Step instead of being dropped.
func (c *Controller) SetBudgets(budgets []float64, immediate bool) error {
	n := c.cfg.Topology.N()
	if len(budgets) != n {
		return fmt.Errorf("%d budgets for %d IDCs: %w", len(budgets), n, ErrBadConfig)
	}
	for j, b := range budgets {
		if !(b >= 0) || math.IsInf(b, 0) {
			return fmt.Errorf("budget[%d] = %g: %w", j, b, ErrBadConfig)
		}
	}
	copy(c.budgets, budgets)
	if immediate {
		if c.started && c.lastDemands != nil {
			return c.slowTick(c.hourAt(c.step), c.lastDemands)
		}
		c.pendingResolve = true
	}
	return nil
}

// hourAt maps a step index to the price-trace hour.
func (c *Controller) hourAt(step int) int {
	return c.cfg.StartHour + hourOf(step, c.cfg.Ts)
}

// hourOf maps a 0-based step index at sampling period ts (seconds) to the
// elapsed whole hours. The naive int(float64(step)*ts/3600) truncates wrong
// at exact hour boundaries when step*ts/3600 lands an ulp below an integer
// (e.g. ts = 36 s: 100 steps = exactly 1 h, but 100*36/3600 can evaluate to
// 0.999…). Periods with an exact millisecond representation — every
// practical Ts — use pure integer arithmetic; anything else gets an
// epsilon-guarded truncation.
func hourOf(step int, ts float64) int {
	if ms := math.Round(ts * 1000); ms > 0 && math.Abs(ts*1000-ms) <= 1e-9*ms {
		return int(int64(step) * int64(ms) / 3_600_000)
	}
	h := float64(step) * ts / 3600
	return int(h + 1e-9*(1+math.Abs(h)))
}

// Step advances one fast-loop period with the observed portal demands and
// returns the telemetry record.
func (c *Controller) Step(demands []float64) (*Telemetry, error) {
	// The time.Now pair is the dominant per-step instrumentation cost, so
	// it only runs on the steps the fast-loop sampler selects (§3.9); a
	// decimated-out or unwired step pays one atomic add / nil check.
	sampled := c.instr.fastLoop.Tick()
	var start time.Time
	if sampled {
		start = c.now()
	}
	top := c.cfg.Topology
	if len(demands) != top.C() {
		return nil, fmt.Errorf("%d demands for %d portals: %w", len(demands), top.C(), ErrBadConfig)
	}
	for i, d := range demands {
		if !(d >= 0) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("demand[%d] = %g: %w", i, d, ErrBadConfig)
		}
	}
	if !top.Feasible(demands) {
		return nil, fmt.Errorf("total demand exceeds capacity: %w", ErrInfeasible)
	}
	hour := c.hourAt(c.step)

	// Feed the forecasters every step; they are cheap and the slow loop
	// reads multi-step predictions from them.
	if c.preds != nil {
		for i, p := range c.preds {
			p.Observe(demands[i])
		}
	}

	if !c.started || c.pendingResolve || c.step%c.cfg.SlowEvery == 0 {
		if err := c.slowTick(hour, demands); err != nil {
			return nil, err
		}
	}
	c.lastDemands = append(c.lastDemands[:0], demands...)

	// Fast loop: constrained MPC over ΔU against the clamped reference.
	out, err := c.mpc.Step(ctrl.StepInput{
		Model:        c.model,
		State:        c.state,
		PrevU:        c.u,
		Servers:      c.servers,
		Demands:      demands,
		RefPower:     c.refPower,
		RefPowerTraj: c.refTraj,
	})
	if err != nil {
		return nil, fmt.Errorf("core: fast loop: %w", err)
	}
	newAlloc, err := idc.AllocationFromVector(top, out.U)
	if err != nil {
		return nil, err
	}
	newServers, err := c.slp.Counts(newAlloc, c.servers)
	if err != nil {
		return nil, err
	}

	// Advance the true plant: integrate energy/cost with the applied input.
	newState, err := c.model.Step(c.state, out.U, newServers)
	if err != nil {
		return nil, err
	}
	watts, err := c.model.PowerRates(out.U, newServers)
	if err != nil {
		return nil, err
	}
	lat, err := c.latencies(newAlloc, newServers)
	if err != nil {
		return nil, err
	}
	var costRate float64 // $/h
	violated := false
	for j, w := range watts {
		// c.prices is already floored at zero by slowTick (see the
		// negative-price policy there), so the rate is directly Σ Pr_j·P_j.
		costRate += c.prices[j] * power.WattsToMW(w)
		if b := c.budgets[j]; b > 0 && w > b {
			violated = true
		}
	}
	c.cumCost += costRate * c.cfg.Ts / 3600

	c.state = newState
	// out.U is scratch-backed and overwritten by the next MPC step; c.u
	// outlives it, so copy.
	c.u = append(c.u[:0], out.U...)
	c.servers = newServers

	tel := &Telemetry{
		Step:           c.step,
		Hour:           hour,
		Prices:         append([]float64{}, c.prices...),
		Demands:        append([]float64{}, demands...),
		U:              append([]float64{}, c.u...),
		Servers:        append([]int{}, c.servers...),
		PowerWatts:     watts,
		LatencySeconds: lat,
		RefPowerWatts:  append([]float64{}, c.refPower...),
		BudgetWatts:    c.Budgets(),
		CostRate:       costRate,
		CumulativeCost: c.cumCost,
		QPIterations:   out.QPIterations,
		Mode:           c.mode,
	}
	c.step++

	c.instr.steps.Inc()
	if violated {
		c.instr.bgViolate.Inc()
	}
	c.instr.costRate.Set(costRate)
	c.instr.cumCost.Set(c.cumCost)
	if sampled {
		c.instr.fastLoop.Observe(c.now().Sub(start).Seconds())
	}
	if c.trace != nil {
		if err := c.trace.Encode(tel); err != nil {
			return nil, fmt.Errorf("core: trace: %w", err)
		}
	}
	for _, o := range c.observers {
		o.ObserveStep(tel)
	}
	return tel, nil
}

// slowTick refreshes prices, the model (when the prices changed), the
// reference optimizer and the budget clamp.
func (c *Controller) slowTick(hour int, demands []float64) error {
	start := c.now()
	top := c.cfg.Topology
	n := top.N()

	// Current prices per region; the bid-stack model sees our latest power.
	stale := false
	prices := make([]float64, n)
	for j := 0; j < n; j++ {
		var loadMW float64
		if c.started {
			rates, err := c.model.PowerRates(c.u, c.servers)
			if err == nil {
				loadMW = power.WattsToMW(rates[j])
			}
		}
		p, err := c.cfg.Prices.Price(top.IDC(j).Region, hour, loadMW)
		if err == nil && (math.IsNaN(p) || math.IsInf(p, 0)) {
			// A non-finite price is a feed fault, not a price: it takes
			// the outage path below instead of reaching the model.
			err = fmt.Errorf("price %g: %w", p, feed.ErrBadSample)
		}
		if err != nil {
			// Price-feed outage or bad sample. Under a FeedPolicy hold
			// budget, serve this tick from the last known price vector
			// (whole-vector hold — a half-fresh vector would price IDCs
			// inconsistently) and report ModeStalePrice; once the budget
			// is exhausted, or without a policy, fail the step as before.
			// Holding needs a last known vector, so an outage on the very
			// first tick always fails.
			if c.policy.MaxPriceStaleTicks > 0 && c.started &&
				len(c.prices) == n && c.staleTicks < c.policy.MaxPriceStaleTicks {
				c.staleTicks++
				c.instr.staleHolds.Inc()
				stale = true
				break
			}
			return fmt.Errorf("core: price for idc %d: %w", j, err)
		}
		// Negative-price policy: floor at zero here, at the single point
		// where prices enter the controller. Negative spot prices would
		// otherwise make the cost state C̄ non-monotone and send the
		// reference LP chasing unbounded "paid to consume" allocations; a
		// data center cannot profitably dump power, so the controller
		// treats negative hours as free. Everything downstream — the
		// model's A row, the reference LP, telemetry and the cost rate —
		// sees the same floored vector.
		if p < 0 {
			p = 0
		}
		prices[j] = p
	}
	if stale {
		// Hold: keep c.prices and the price-dependent folded model as-is.
		// The reference LP below still re-solves against fresh demand.
		prices = c.prices
	} else {
		c.staleTicks = 0
		// Anomaly detection sees only genuinely observed prices — held
		// vectors would bias the window toward the outage value.
		if c.spikes != nil {
			for j, d := range c.spikes {
				was := d.Latched()
				if d.Observe(prices[j]) && !was {
					c.instr.spikeLatches.Inc()
				}
			}
		}

		// Rebuild the folded model (eq. 36) only when the floored prices
		// changed. The model depends on nothing else that varies (topology
		// and Ts are fixed), so keeping it on a bitwise-equal vector is
		// exact — and it keeps the MPC's condensed cache, QP workspace and
		// warm-start plan, which a new model identity would discard.
		if c.model == nil || !sameBits(prices, c.prices) {
			model, err := ctrl.NewFoldedModel(top, prices, c.cfg.Ts)
			if err != nil {
				return err
			}
			c.model = model
		}
		c.prices = prices
	}

	// Reference optimizer input: predicted demand when forecasting.
	refDemands := demands
	fcFell := false
	if c.preds != nil {
		predicted := make([]float64, len(demands))
		usable := true
		for i, p := range c.preds {
			f, err := p.Forecast(1)
			if err != nil || f[0] < 0 {
				usable = false
				break
			}
			predicted[i] = f[0]
		}
		if usable && top.Feasible(predicted) {
			refDemands = predicted
		} else {
			fcFell = true
			c.instr.fcFallback.Inc()
		}
	}
	// §IV.D peak shaving: prefer the budget-aware reference LP, which
	// re-routes workload displaced by a binding budget to unconstrained
	// IDCs. When even that is infeasible (budgets too tight for the
	// demand), fall back to the unconstrained optimum with a bare clamp —
	// budgets degrade to soft targets, exactly the paper's formulation.
	relaxed := false
	ref, err := c.refSolver.OptimizeWithBudgets(top, prices, refDemands, c.budgets)
	if err != nil && errors.Is(err, alloc.ErrInfeasible) && anyPositive(c.budgets) {
		relaxed = true
		c.instr.bgRelax.Inc()
		ref, err = alloc.Optimize(top, prices, refDemands)
	}
	if err != nil {
		if errors.Is(err, alloc.ErrInfeasible) {
			return fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return fmt.Errorf("core: reference optimizer: %w", err)
	}
	refPower := make([]float64, n)
	for j := 0; j < n; j++ {
		refPower[j] = ref.PowerWatts[j]
		if b := c.budgets[j]; b > 0 && refPower[j] > b {
			refPower[j] = b
			c.instr.refClamp.Inc()
		}
	}
	c.refPower = refPower

	// With forecasting active, build the eq. (41) reference trajectory
	// Υ(k): one budget-aware LP per prediction step over the multi-step
	// demand forecast. Any unusable step truncates the trajectory (the MPC
	// holds the last usable entry).
	c.refTraj = nil
	if c.preds != nil {
		c.refTraj = c.referenceTrajectory(prices)
	}

	if !c.started {
		// Cold start: adopt the reference allocation outright.
		c.u = ref.Allocation.Vector()
		servers, err := c.slp.Counts(ref.Allocation, nil)
		if err != nil {
			return err
		}
		c.servers = servers
		c.started = true
	}
	// Degraded-mode state machine: the step's mode is the most severe
	// condition active this tick (the Mode constants are severity-ordered).
	// setMode counts the transition, moves the gauge, and emits the
	// mode-transition trace line.
	mode := ModeNominal
	if fcFell {
		mode = ModeForecastFallback
	}
	if relaxed {
		mode = ModeBudgetRelax
	}
	if c.spikeLatched() {
		mode = ModePriceSpike
	}
	if stale {
		mode = ModeStalePrice
	}
	if err := c.setMode(mode, hour); err != nil {
		return err
	}

	c.pendingResolve = false
	c.instr.slowTicks.Inc()
	c.instr.slowTick.Observe(c.now().Sub(start).Seconds())
	return nil
}

// latencies evaluates the achieved eq. (14) latency per IDC.
func (c *Controller) latencies(a *idc.Allocation, servers []int) ([]float64, error) {
	top := c.cfg.Topology
	per := a.PerIDC()
	out := make([]float64, top.N())
	for j := range out {
		d := top.IDC(j)
		l, err := queueing.Latency(servers[j], d.ServiceRate, per[j])
		if err != nil {
			return nil, fmt.Errorf("core: latency idc %d: %w", j, err)
		}
		out[j] = l
	}
	return out, nil
}

// referenceTrajectory predicts demand β1 steps ahead and solves the
// budget-aware reference LP at each step.
func (c *Controller) referenceTrajectory(prices []float64) [][]float64 {
	top := c.cfg.Topology
	h := c.mpc.Config().PredHorizon
	perPortal := make([][]float64, top.C())
	for i, p := range c.preds {
		f, err := p.Forecast(h)
		if err != nil {
			return nil
		}
		perPortal[i] = f
	}
	traj := make([][]float64, 0, h)
	for s := 0; s < h; s++ {
		demands := make([]float64, top.C())
		for i := range demands {
			d := perPortal[i][s]
			if d < 0 {
				d = 0
			}
			demands[i] = d
		}
		if !top.Feasible(demands) {
			break
		}
		ref, err := alloc.OptimizeWithBudgets(top, prices, demands, c.budgets)
		if err != nil {
			if !errors.Is(err, alloc.ErrInfeasible) || !anyPositive(c.budgets) {
				break
			}
			ref, err = alloc.Optimize(top, prices, demands)
			if err != nil {
				break
			}
		}
		stepRef := make([]float64, top.N())
		for j := range stepRef {
			stepRef[j] = ref.PowerWatts[j]
			if b := c.budgets[j]; b > 0 && stepRef[j] > b {
				stepRef[j] = b
			}
		}
		traj = append(traj, stepRef)
	}
	if len(traj) == 0 {
		return nil
	}
	return traj
}

// sameBits reports whether a and b hold bitwise-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// State returns a copy of the current plant state (C̄, E1 … EN).
func (c *Controller) State() []float64 {
	cp := make([]float64, len(c.state))
	copy(cp, c.state)
	return cp
}

// Allocation returns the currently applied allocation, or nil before the
// first step.
func (c *Controller) Allocation() *idc.Allocation {
	if c.u == nil {
		return nil
	}
	a, err := idc.AllocationFromVector(c.cfg.Topology, c.u)
	if err != nil {
		return nil
	}
	return a
}
