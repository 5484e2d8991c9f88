package core

import (
	"io"
	"time"

	"repro/internal/ctrl"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/qp"
)

// Observer receives the controller's per-step telemetry — the hook through
// which downstream users plug their own sinks (dashboards, loggers, test
// probes) into a running Controller. ObserveStep is called synchronously at
// the end of every successful Step, after the controller's own instruments
// and trace writer; the *Telemetry is freshly allocated per step with
// copied slices, so observers may retain it. Observers run on the control
// goroutine: a slow observer slows the loop.
type Observer interface {
	ObserveStep(*Telemetry)
}

// ObserverFunc adapts an ordinary function to the Observer interface.
type ObserverFunc func(*Telemetry)

// ObserveStep calls f.
func (f ObserverFunc) ObserveStep(tel *Telemetry) { f(tel) }

// Option customizes a Controller beyond its Config. The split is
// deliberate: Config describes the controlled system (topology, prices,
// horizons, budgets — what the paper parameterizes), Options attach
// cross-cutting runtime concerns (observability sinks, trace output, test
// clocks) that leave the control behavior untouched — with one declared
// exception: WithFeedPolicy, whose whole point is to change what happens
// when an input feed fails (see mode.go). New(cfg) with no options behaves
// exactly as it always has.
type Option func(*options)

type options struct {
	metrics     *obs.Registry
	sampleEvery int
	observers   []Observer
	trace       io.Writer
	now         func() time.Time
	feedPolicy  FeedPolicy
}

// DefaultSampleEvery is the default 1-in-N decimation of the fast-loop
// wall-time histogram (idc_fast_loop_seconds). The fast loop solves in tens
// of microseconds, so an always-on time.Now pair is a measurable tax on the
// very latency being measured; 1-in-16 keeps the histogram statistically
// useful while amortizing the clock reads to noise. WithSampleEvery(1)
// restores exact per-step timing.
const DefaultSampleEvery = 16

// defaultOptions leaves metrics nil; New replaces a nil registry with a
// fresh isolated one, so controllers never share instruments implicitly.
func defaultOptions() options {
	return options{sampleEvery: DefaultSampleEvery, now: time.Now}
}

// WithObserver registers an Observer for per-step telemetry. May be given
// multiple times; observers are called in registration order.
func WithObserver(o Observer) Option {
	return func(op *options) {
		if o != nil {
			op.observers = append(op.observers, o)
		}
	}
}

// WithTrace streams one JSON object per step (the Telemetry record) to w —
// a JSONL trace of the whole run. The controller does not buffer: wrap w
// in a bufio.Writer and flush it on shutdown for cheap writes. A write
// failure fails the Step that produced it.
func WithTrace(w io.Writer) Option {
	return func(op *options) { op.trace = w }
}

// WithMetrics directs the controller's instruments into reg instead of the
// controller's own private registry — the explicit way to aggregate several
// controllers into one endpoint, or to read a controller's numbers from
// outside (Controller.Metrics returns the active registry either way).
func WithMetrics(reg *obs.Registry) Option {
	return func(op *options) {
		if reg != nil {
			op.metrics = reg
		}
	}
}

// WithSampleEvery sets the 1-in-n decimation of the fast-loop wall-time
// histogram (default DefaultSampleEvery). n = 1 times every step exactly;
// n < 1 is ignored. Counters, gauges and the slow-tick histogram are never
// decimated — only the per-step clock reads are sampled.
func WithSampleEvery(n int) Option {
	return func(op *options) {
		if n >= 1 {
			op.sampleEvery = n
		}
	}
}

// WithClock substitutes the wall clock used for the latency instruments —
// deterministic tests pass a fake. It does not affect control timing:
// the controller is stepped externally and never reads the clock for
// anything but instrumentation.
func WithClock(now func() time.Time) Option {
	return func(op *options) {
		if now != nil {
			op.now = now
		}
	}
}

// instruments bundles the controller's own observability hooks; see
// DESIGN.md §3.8 for the firing contract.
type instruments struct {
	steps      *obs.Counter
	slowTicks  *obs.Counter
	fastLoop   *obs.SampledHistogram
	slowTick   *obs.Histogram
	refClamp   *obs.Counter
	fcFallback *obs.Counter
	bgRelax    *obs.Counter
	bgViolate  *obs.Counter
	costRate   *obs.Gauge
	cumCost    *obs.Gauge

	// Degraded-mode instruments (mode.go, DESIGN.md §3.13).
	modeGauge       *obs.Gauge
	modeTransitions *obs.Counter
	staleHolds      *obs.Counter
	spikeLatches    *obs.Counter
}

// newInstruments registers (or re-attaches to) the controller instrument
// set in reg. Controllers sharing a registry (explicit WithMetrics) share
// instruments by name and aggregate — the Prometheus default-registerer
// model; by default each controller gets its own registry. The fast-loop
// wall-time histogram is wrapped in a 1-in-sampleEvery decimator (§3.9).
func newInstruments(reg *obs.Registry, sampleEvery int) instruments {
	return instruments{
		steps:     reg.Counter("idc_steps_total", "fast-loop control steps executed"),
		slowTicks: reg.Counter("idc_slow_ticks_total", "slow-loop ticks (price/model/reference refreshes)"),
		fastLoop: obs.Sampled(
			reg.Histogram("idc_fast_loop_seconds", "wall time of one fast-loop Step (sampled)", obs.LatencyBuckets()),
			sampleEvery),
		slowTick:   reg.Histogram("idc_slow_tick_seconds", "wall time of one slow tick", obs.LatencyBuckets()),
		refClamp:   reg.Counter("idc_ref_clamp_total", "per-IDC soft clamps of the power reference to its budget (§IV.D)"),
		fcFallback: reg.Counter("idc_forecast_fallback_total", "slow ticks that fell back from predicted to observed demand"),
		bgRelax:    reg.Counter("idc_budget_relax_total", "budget-infeasible reference solves relaxed to the unconstrained LP"),
		bgViolate:  reg.Counter("idc_budget_violation_steps_total", "steps with at least one IDC above its power budget"),
		costRate:   reg.Gauge("idc_cost_rate_dollars_per_hour", "instantaneous electricity spend"),
		cumCost:    reg.Gauge("idc_cost_dollars_total", "integrated electricity spend since step 0"),

		modeGauge:       reg.Gauge("idc_mode", "current operating mode ordinal (0 nominal … 4 stale-price; see core.Mode)"),
		modeTransitions: reg.Counter("idc_mode_transitions_total", "degraded-mode state changes"),
		staleHolds:      reg.Counter("idc_price_stale_holds_total", "slow ticks served from held prices during a price-feed outage"),
		spikeLatches:    reg.Counter("idc_price_spike_latches_total", "price-spike detector latch events across IDCs"),
	}
}

// lpInstruments registers the reference-LP solver's hooks in reg.
func lpInstruments(reg *obs.Registry) lp.Instruments {
	return lp.Instruments{
		WarmSolves: reg.Counter("idc_lp_warm_solves_total", "reference-LP resolves that warm-started from the retained basis"),
		ColdSolves: reg.Counter("idc_lp_cold_solves_total", "reference-LP solves that ran the full two-phase method"),
		Pivots:     reg.Counter("idc_lp_pivots_total", "simplex pivot iterations across reference-LP solves"),
	}
}

// mpcInstruments registers the fast-loop MPC and QP hooks in reg.
func mpcInstruments(reg *obs.Registry) ctrl.Instruments {
	return ctrl.Instruments{
		CacheHits:   reg.Counter("idc_mpc_cache_hits_total", "MPC steps served from the condensed-matrix cache"),
		CacheMisses: reg.Counter("idc_mpc_cache_misses_total", "MPC steps that rebuilt the condensed matrices"),
		ModelSwaps:  reg.Counter("idc_mpc_model_swaps_total", "condensed-cache invalidations from a new or bumped Model"),
		QP: qp.Instruments{
			Iterations:     reg.Counter("idc_qp_iterations_total", "active-set iterations across fast-loop QP solves"),
			Factorizations: reg.Counter("idc_qp_factorizations_total", "Cholesky factorizations of the QP Hessian"),
			FactorReuse:    reg.Counter("idc_qp_factor_reuse_total", "QP solves that reused the cached Hessian factorization"),
		},
	}
}
