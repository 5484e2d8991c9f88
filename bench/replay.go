package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/price"
	"repro/internal/qp"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/sleep"
)

// Span names: one per layer boundary the replay times.
const (
	spanTick = iota
	spanObserve
	spanPrice
	spanModel
	spanPredict
	spanRefLP
	spanTrajLP
	spanMPCHit
	spanMPCMiss
	spanSleep
	spanPlant
	spanLatency
	spanBaseline
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanTick:     "tick",
	spanObserve:  "forecast.observe",
	spanPrice:    "price.query",
	spanModel:    "ctrl.model_build",
	spanPredict:  "forecast.predict",
	spanRefLP:    "alloc.ref_lp",
	spanTrajLP:   "alloc.traj_lp",
	spanMPCHit:   "ctrl.mpc_hit",
	spanMPCMiss:  "ctrl.mpc_miss",
	spanSleep:    "sleep.counts",
	spanPlant:    "ctrl.plant",
	spanLatency:  "queueing.latency",
	spanBaseline: "sim.baseline",
}

// span is one timed call. Spans live in memory until the run ends.
type span struct {
	name   int
	tick   int
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer records spans relative to its base time.
type tracer struct {
	base  time.Time
	tick  int
	spans []span
	open  []int
}

func (t *tracer) begin(name int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, tick: t.tick, parent: parent, start: time.Since(t.base)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.base)
	t.open = t.open[:len(t.open)-1]
}

// replayer re-executes core.Controller.Step through each layer's public
// functions, in the order core calls them, timing every call. It is a copy
// of Step's call sequence, kept in step by hand; trace.replay_mismatches
// shows when core has moved away from it. Once core times its own stages,
// the replay can be checked against those timers and then deleted.
type replayer struct {
	tr        *tracer
	top       *idc.Topology
	prices    price.Model
	ts        float64
	slowEvery int
	startHour int
	budgets   []float64
	mpc       *ctrl.MPC
	slp       *sleep.Controller
	preds     []*forecast.Predictor
	refSolver *alloc.Solver
	misses    *obs.Counter

	step        int
	started     bool
	model       *ctrl.Model
	state       []float64
	u           []float64
	servers     []int
	refPower    []float64
	refTraj     [][]float64
	pr          []float64
	cumCost     float64
	lastDemands []float64

	// builds counts model rebuilds, useful those whose prices differ
	// bitwise from the previous build's.
	builds, useful int
	lastBuild      []float64
	// qpIters[k] is tick k's QP iteration count.
	qpIters []int
}

// replayable reports which scenario setting, if any, the replay does not
// mirror. The replay mirrors the topology, the price model, Ts, StartHour,
// SlowEvery, the MPC, sleep and forecast configurations and the budgets,
// and times the optimal baseline on every tick; anything else would make
// it time a different sequence of calls than the controller makes.
func replayable(sc sim.Scenario) error {
	var bad string
	switch {
	case sc.PriceSource != nil:
		bad = "PriceSource"
	case sc.FeedPolicy != core.FeedPolicy{}:
		bad = "FeedPolicy"
	case sc.SkipBaseline:
		bad = "SkipBaseline"
	case sc.SampleEvery != 0:
		bad = "SampleEvery"
	case sc.TraceWriter != nil:
		bad = "TraceWriter"
	default:
		return nil
	}
	return fmt.Errorf("bench: the replay does not mirror Scenario.%s", bad)
}

func newReplayer(in *Inputs, tr *tracer) (*replayer, error) {
	sc := in.scenario()
	if err := replayable(sc); err != nil {
		return nil, err
	}
	top := sc.Topology
	n := top.N()
	budgets := make([]float64, n)
	for j := range budgets {
		budgets[j] = top.IDC(j).BudgetWatts
		if j < len(sc.Budgets) && sc.Budgets[j] > 0 {
			budgets[j] = sc.Budgets[j]
		}
	}
	slowEvery := sc.SlowEvery
	if slowEvery == 0 {
		slowEvery = max(1, int(3600/sc.Ts))
	}
	cfg := sc.MPC
	//lint:ignore floateq mirrors core.New's unset-weights sentinel
	if cfg.PowerWeight == 0 && cfg.CostWeight == 0 {
		cfg.PowerWeight = 1
	}
	mpc, err := ctrl.NewMPC(cfg)
	if err != nil {
		return nil, err
	}
	slp, err := sleep.New(top, sc.Sleep)
	if err != nil {
		return nil, err
	}
	var preds []*forecast.Predictor
	if sc.UseForecast {
		preds = make([]*forecast.Predictor, top.C())
		for i := range preds {
			if preds[i], err = forecast.NewPredictor(sc.Forecast); err != nil {
				return nil, err
			}
		}
	}
	// The same instruments the controller wires, so the timed calls take
	// the same (instrumented) code paths.
	reg := obs.NewRegistry()
	r := &replayer{
		tr:        tr,
		top:       top,
		prices:    sc.Prices,
		ts:        sc.Ts,
		slowEvery: slowEvery,
		startHour: sc.StartHour,
		budgets:   budgets,
		mpc:       mpc,
		slp:       slp,
		preds:     preds,
		refSolver: alloc.NewSolver(),
		misses:    reg.Counter("mpc_cache_misses", ""),
		state:     make([]float64, n+1),
		qpIters:   make([]int, 0, len(in.Demands)),
	}
	r.refSolver.SetInstruments(lp.Instruments{
		WarmSolves: reg.Counter("lp_warm", ""),
		ColdSolves: reg.Counter("lp_cold", ""),
		Pivots:     reg.Counter("lp_pivots", ""),
	})
	r.mpc.SetInstruments(ctrl.Instruments{
		CacheHits:   reg.Counter("mpc_cache_hits", ""),
		CacheMisses: r.misses,
		ModelSwaps:  reg.Counter("mpc_model_swaps", ""),
		QP: qp.Instruments{
			Iterations:     reg.Counter("qp_iterations", ""),
			Factorizations: reg.Counter("qp_factorizations", ""),
			FactorReuse:    reg.Counter("qp_factor_reuse", ""),
		},
	})
	return r, nil
}

// hourAt maps a step to the price-trace hour exactly as core does.
func (r *replayer) hourAt(step int) int {
	if ms := math.Round(r.ts * 1000); ms > 0 && math.Abs(r.ts*1000-ms) <= 1e-9*ms {
		return r.startHour + int(int64(step)*int64(ms)/3_600_000)
	}
	h := float64(step) * r.ts / 3600
	return r.startHour + int(h+1e-9*(1+math.Abs(h)))
}

// stepTick replays one Controller.Step and returns its telemetry.
func (r *replayer) stepTick(demands []float64) (*core.Telemetry, error) {
	r.tr.tick = r.step
	root := r.tr.begin(spanTick)
	tel, err := r.stepBody(demands)
	r.tr.end(root)
	return tel, err
}

func (r *replayer) stepBody(demands []float64) (*core.Telemetry, error) {
	top := r.top
	if len(demands) != top.C() {
		return nil, fmt.Errorf("%d demands for %d portals", len(demands), top.C())
	}
	for i, d := range demands {
		if d < 0 {
			return nil, fmt.Errorf("demand[%d] = %g", i, d)
		}
	}
	if !top.Feasible(demands) {
		return nil, errors.New("total demand exceeds capacity")
	}
	hour := r.hourAt(r.step)
	if r.preds != nil {
		s := r.tr.begin(spanObserve)
		for i, p := range r.preds {
			p.Observe(demands[i])
		}
		r.tr.end(s)
	}
	if !r.started || r.step%r.slowEvery == 0 {
		if err := r.slowTick(hour, demands); err != nil {
			return nil, err
		}
	}
	r.lastDemands = append(r.lastDemands[:0], demands...)

	misses := r.misses.Value()
	s := r.tr.begin(spanMPCHit)
	out, err := r.mpc.Step(ctrl.StepInput{
		Model:        r.model,
		State:        r.state,
		PrevU:        r.u,
		Servers:      r.servers,
		Demands:      demands,
		RefPower:     r.refPower,
		RefPowerTraj: r.refTraj,
	})
	r.tr.end(s)
	if r.misses.Value() != misses {
		r.tr.spans[s].name = spanMPCMiss
	}
	if err != nil {
		return nil, err
	}
	r.qpIters = append(r.qpIters, out.QPIterations)
	newAlloc, err := idc.AllocationFromVector(top, out.U)
	if err != nil {
		return nil, err
	}
	s = r.tr.begin(spanSleep)
	newServers, err := r.slp.Counts(newAlloc, r.servers)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = r.tr.begin(spanPlant)
	newState, err := r.model.Step(r.state, out.U, newServers)
	var watts []float64
	if err == nil {
		watts, err = r.model.PowerRates(out.U, newServers)
	}
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = r.tr.begin(spanLatency)
	lat, err := latencies(top, newAlloc, newServers)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	var costRate float64
	for j, w := range watts {
		costRate += r.pr[j] * power.WattsToMW(w)
	}
	r.cumCost += costRate * r.ts / 3600
	r.state = newState
	r.u = append(r.u[:0], out.U...)
	r.servers = newServers

	// The controller's telemetry record, with the same copies.
	tel := &core.Telemetry{
		Step:           r.step,
		Hour:           hour,
		Prices:         append([]float64{}, r.pr...),
		Demands:        append([]float64{}, demands...),
		U:              append([]float64{}, r.u...),
		Servers:        append([]int{}, r.servers...),
		PowerWatts:     watts,
		LatencySeconds: lat,
		RefPowerWatts:  append([]float64{}, r.refPower...),
		BudgetWatts:    append([]float64{}, r.budgets...),
		CostRate:       costRate,
		CumulativeCost: r.cumCost,
		QPIterations:   out.QPIterations,
	}
	r.step++
	return tel, nil
}

// slowTick mirrors the controller's slow loop: prices, model rebuild,
// forecast, reference LP and trajectory, and the cold start.
func (r *replayer) slowTick(hour int, demands []float64) error {
	top := r.top
	n := top.N()
	s := r.tr.begin(spanPrice)
	prices := make([]float64, n)
	for j := 0; j < n; j++ {
		var loadMW float64
		if r.started {
			rates, err := r.model.PowerRates(r.u, r.servers)
			if err == nil {
				loadMW = power.WattsToMW(rates[j])
			}
		}
		p, err := r.prices.Price(top.IDC(j).Region, hour, loadMW)
		if err != nil {
			r.tr.end(s)
			return fmt.Errorf("price for idc %d: %w", j, err)
		}
		prices[j] = max(p, 0)
	}
	r.tr.end(s)
	r.pr = prices
	r.builds++
	if !sameBits(prices, r.lastBuild) {
		r.useful++
	}
	r.lastBuild = prices

	s = r.tr.begin(spanModel)
	model, err := ctrl.NewFoldedModel(top, prices, r.ts)
	r.tr.end(s)
	if err != nil {
		return err
	}
	r.model = model

	refDemands := demands
	if r.preds != nil {
		s = r.tr.begin(spanPredict)
		predicted := make([]float64, len(demands))
		usable := true
		for i, p := range r.preds {
			f, err := p.Forecast(1)
			if err != nil || f[0] < 0 {
				usable = false
				break
			}
			predicted[i] = f[0]
		}
		r.tr.end(s)
		if usable && top.Feasible(predicted) {
			refDemands = predicted
		}
	}
	s = r.tr.begin(spanRefLP)
	ref, err := r.refSolver.OptimizeWithBudgets(top, prices, refDemands, r.budgets)
	if err != nil && errors.Is(err, alloc.ErrInfeasible) && anyPositive(r.budgets) {
		ref, err = alloc.Optimize(top, prices, refDemands)
	}
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("reference optimizer: %w", err)
	}
	refPower := make([]float64, n)
	for j := range refPower {
		refPower[j] = ref.PowerWatts[j]
		if b := r.budgets[j]; b > 0 && refPower[j] > b {
			refPower[j] = b
		}
	}
	r.refPower = refPower
	r.refTraj = nil
	if r.preds != nil {
		s = r.tr.begin(spanTrajLP)
		r.refTraj = r.referenceTrajectory(prices)
		r.tr.end(s)
	}
	if !r.started {
		r.u = ref.Allocation.Vector()
		s = r.tr.begin(spanSleep)
		servers, err := r.slp.Counts(ref.Allocation, nil)
		r.tr.end(s)
		if err != nil {
			return err
		}
		r.servers = servers
		r.started = true
	}
	return nil
}

// forecastAll returns every portal's h-step forecast, nil if any fails.
func (r *replayer) forecastAll(h int) [][]float64 {
	s := r.tr.begin(spanPredict)
	defer r.tr.end(s)
	perPortal := make([][]float64, r.top.C())
	for i, p := range r.preds {
		f, err := p.Forecast(h)
		if err != nil {
			return nil
		}
		perPortal[i] = f
	}
	return perPortal
}

// referenceTrajectory mirrors the controller's eq. (41) trajectory: one
// budget-aware reference LP per prediction step.
func (r *replayer) referenceTrajectory(prices []float64) [][]float64 {
	top := r.top
	h := r.mpc.Config().PredHorizon
	perPortal := r.forecastAll(h)
	if perPortal == nil {
		return nil
	}
	traj := make([][]float64, 0, h)
	for s := 0; s < h; s++ {
		demands := make([]float64, top.C())
		for i := range demands {
			demands[i] = max(perPortal[i][s], 0)
		}
		if !top.Feasible(demands) {
			break
		}
		ref, err := alloc.OptimizeWithBudgets(top, prices, demands, r.budgets)
		if err != nil {
			if !errors.Is(err, alloc.ErrInfeasible) || !anyPositive(r.budgets) {
				break
			}
			if ref, err = alloc.Optimize(top, prices, demands); err != nil {
				break
			}
		}
		stepRef := make([]float64, top.N())
		for j := range stepRef {
			stepRef[j] = ref.PowerWatts[j]
			if b := r.budgets[j]; b > 0 && stepRef[j] > b {
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

// latencies evaluates each IDC's eq. (14) latency as the controller does.
func latencies(top *idc.Topology, a *idc.Allocation, servers []int) ([]float64, error) {
	per := a.PerIDC()
	out := make([]float64, top.N())
	for j := range out {
		d := top.IDC(j)
		l, err := queueing.Latency(servers[j], d.ServiceRate, per[j])
		if err != nil {
			return nil, fmt.Errorf("latency idc %d: %w", j, err)
		}
		out[j] = l
	}
	return out, nil
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

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

// replayRun is one replayed episode.
type replayRun struct {
	spans []span
	// mismatches counts ticks whose U, server counts or power differ
	// bitwise from the recorded telemetry.
	mismatches     int
	builds, useful int
	qpIters        []int
}

// replay re-executes the episode whose telemetry was recorded, timing
// each layer call and the optimal baseline's per-tick solve.
func replay(in *Inputs, recorded []*core.Telemetry) (*replayRun, error) {
	tr := &tracer{spans: make([]span, 0, 16*len(in.Demands)), open: make([]int, 0, 8)}
	r, err := newReplayer(in, tr)
	if err != nil {
		return nil, err
	}
	out := &replayRun{}
	tr.base = time.Now()
	for k, d := range in.Demands {
		tel, err := r.stepTick(d)
		if err != nil {
			return nil, fmt.Errorf("bench: replay tick %d: %w", k, err)
		}
		if k >= len(recorded) || !sameTick(tel, recorded[k]) {
			out.mismatches++
		}
		s := tr.begin(spanBaseline)
		_, err = alloc.PriceOrdered(r.top, tel.Prices, tel.Demands)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("bench: replay baseline %d: %w", k, err)
		}
	}
	out.spans = tr.spans
	out.builds, out.useful = r.builds, r.useful
	out.qpIters = r.qpIters
	return out, nil
}

// sameTick compares the replayed and recorded allocation, server counts
// and power bit for bit.
func sameTick(a, b *core.Telemetry) bool {
	if !sameBits(a.U, b.U) || !sameBits(a.PowerWatts, b.PowerWatts) || len(a.Servers) != len(b.Servers) {
		return false
	}
	for j := range a.Servers {
		if a.Servers[j] != b.Servers[j] {
			return false
		}
	}
	return true
}
