// Package repro is the public API of this reproduction of "Dynamic Control
// of Electricity Cost with Power Demand Smoothing and Peak Shaving for
// Distributed Internet Data Centers" (Yao, Liu, He, Rahman — ICDCS 2012).
//
// The implementation lives in internal packages; this package re-exports
// the surface a downstream user needs:
//
//   - Controller (New) — the paper's contribution: a two-time-scale MPC
//     that minimizes electricity cost while smoothing power demand and
//     shaving peaks against per-IDC budgets.
//   - Topology / IDC / PaperTopology — the portal→IDC system model.
//   - PriceModel / NewEmbeddedPrices / NewBidStackPrices — real-time
//     electricity prices (eq. 9).
//   - Scenario / RunScenario — closed-loop simulation against the per-step
//     optimal baseline.
//   - Experiments — regenerate every table and figure of the paper.
//   - Observer / WithObserver / Metrics — zero-allocation observability
//     hooks into a running controller (internal/obs).
//   - DemandSource / PriceSource / FeedPolicy — streaming input feeds
//     (internal/feed) with online anomaly detection and explicit degraded
//     modes (Telemetry.Mode) when a feed stalls, gaps, or spikes.
//
// Quickstart:
//
//	controller, err := repro.New(repro.Config{
//		Topology: repro.PaperTopology(),
//		Prices:   repro.NewEmbeddedPrices(),
//		MPC:      repro.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
//	})
//	...
//	tel, err := controller.Step(demands) // one 30 s control period
//
// Config describes the controlled system — the knobs the paper
// parameterizes. Cross-cutting runtime concerns (metrics registries,
// telemetry observers, JSONL traces, test clocks) attach as variadic
// Options instead:
//
//	reg := repro.NewMetrics()
//	controller, err := repro.New(cfg,
//		repro.WithMetrics(reg),
//		repro.WithObserver(repro.ObserverFunc(func(t *repro.Telemetry) { ... })),
//	)
//	http.Handle("/metrics", repro.MetricsHandler(reg))
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package repro

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/feed"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/sim"
	"repro/internal/sleep"
	"repro/internal/workload"
)

// Controller is the paper's dynamic electricity-cost controller (§IV).
type Controller = core.Controller

// Config parameterizes New.
type Config = core.Config

// Telemetry is the per-step record emitted by Controller.Step.
type Telemetry = core.Telemetry

// MPCConfig tunes the fast control loop (horizons and Q/R weights).
type MPCConfig = ctrl.MPCConfig

// SleepConfig tunes the slow server ON/OFF loop (eq. 35 plus guards).
type SleepConfig = sleep.Config

// ForecastConfig tunes the AR/RLS workload predictor (§III.D).
type ForecastConfig = forecast.PredictorConfig

// Topology is the C-portal, N-IDC system of §III.A.
type Topology = idc.Topology

// IDC describes one data center (a Table II row).
type IDC = idc.IDC

// Allocation is a portal→IDC workload assignment λ.
type Allocation = idc.Allocation

// PriceModel supplies real-time electricity prices (eq. 9).
type PriceModel = price.Model

// Region identifies an electricity-market region.
type Region = price.Region

// Scenario describes a closed-loop simulation experiment.
type Scenario = sim.Scenario

// ScenarioResult bundles the control and baseline series of a run.
type ScenarioResult = sim.Result

// Series holds one method's per-step records.
type Series = sim.Series

// AllocResult is a solution of the per-step optimal allocation (eq. 46).
type AllocResult = alloc.Result

// Experiment regenerates one of the paper's tables or figures.
type Experiment = experiments.Experiment

// The three regions of the paper's evaluation.
const (
	Michigan  = price.Michigan
	Minnesota = price.Minnesota
	Wisconsin = price.Wisconsin
)

// New builds a Controller; see core.New. Options are optional — New(cfg)
// alone is the original API and behaves identically.
func New(cfg Config, opts ...Option) (*Controller, error) { return core.New(cfg, opts...) }

// Option attaches a cross-cutting runtime concern (observability, trace
// output, test clock) to New. Config describes the controlled system;
// Options describe how to watch it.
type Option = core.Option

// Observer receives the controller's per-step telemetry; see core.Observer
// for the calling contract.
type Observer = core.Observer

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// Metrics is a registry of zero-allocation runtime instruments (counters,
// gauges, latency histograms); see internal/obs.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of every instrument in a Metrics
// registry, sorted by name.
type MetricsSnapshot = obs.Snapshot

// WithObserver registers an Observer for per-step telemetry; it may be
// given multiple times.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// WithTrace streams one JSON Telemetry object per step to w (a JSONL
// trace). The caller owns buffering and flushing.
func WithTrace(w io.Writer) Option { return core.WithTrace(w) }

// WithMetrics directs the controller's instruments into reg, sharing one
// registry across controllers (or with an HTTP exporter). Without it each
// controller instruments a private registry, readable via Metrics().
func WithMetrics(reg *Metrics) Option { return core.WithMetrics(reg) }

// WithSampleEvery sets the 1-in-n sampling rate of the fast-loop latency
// histogram (default core.DefaultSampleEvery). 1 times every step; larger
// n cheapens the hot loop. Counters, gauges and slow-loop timings are
// always exact.
func WithSampleEvery(n int) Option { return core.WithSampleEvery(n) }

// WithClock substitutes the wall clock behind the latency instruments
// (deterministic tests); control behavior is unaffected.
func WithClock(now func() time.Time) Option { return core.WithClock(now) }

// NewMetrics returns an empty, independent instrument registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide rendezvous registry. Controllers
// do NOT instrument into it implicitly — each gets a private registry
// unless WithMetrics passes one in; pass DefaultMetrics() explicitly to
// aggregate controllers process-wide.
func DefaultMetrics() *Metrics { return obs.Default() }

// MetricsHandler serves reg in Prometheus text exposition format. A nil
// reg serves the default registry.
func MetricsHandler(reg *Metrics) http.Handler {
	if reg == nil {
		reg = obs.Default()
	}
	return reg.Handler()
}

// NewTopology validates and builds a custom topology.
func NewTopology(portals int, idcs []IDC) (*Topology, error) {
	return idc.NewTopology(portals, idcs)
}

// PaperTopology returns the §V experimental setup (five portals, three
// IDCs; see the note on M₁ in EXPERIMENTS.md).
func PaperTopology() *Topology { return idc.PaperTopology() }

// TableIDemands returns the paper's Table I portal demand vector (req/s).
func TableIDemands() []float64 { return workload.TableI() }

// NewEmbeddedPrices returns the load-independent price model over the
// embedded Fig. 2 trace reconstructions.
func NewEmbeddedPrices() PriceModel { return price.NewEmbeddedModel() }

// NewBidStackPrices wraps the embedded traces with the bid-based stochastic
// model: convex load coupling plus an OU disturbance.
func NewBidStackPrices(cfg price.BidStackConfig) PriceModel {
	return price.NewBidStackModel(price.NewEmbeddedModel(), cfg)
}

// BidStackConfig parameterizes NewBidStackPrices.
type BidStackConfig = price.BidStackConfig

// Sample is one observation pulled from a feed source: a sequence number
// (the fast-loop step for demand, the price-trace hour for prices), an
// optional wall-clock timestamp, and the observation vector.
type Sample = feed.Sample

// DemandSource streams per-step portal demand vectors into a Scenario
// (Scenario.DemandSource) or any other consumer: Next(ctx) blocks until a
// sample is available, returns ErrFeedEnd after the final one, or ctx's
// error on cancellation. Sample k carries one non-negative rate per
// portal. Build one with FromFunc, FromTrace, FromChannel, ReplaySamples,
// or FromJSONL, and interpose NewFeedBuffer when the producer can outrun
// the control period. See DESIGN.md §3.13 for the feed contract.
type DemandSource = feed.Source

// PriceSource streams hourly price vectors (Scenario.PriceSource): sample
// Seq is the price-trace hour and Values holds one $/MWh price per
// distinct topology region in IDC order. The same adapters build it; pair
// it with a FeedPolicy so outages degrade to held prices (ModeStalePrice)
// instead of failing the run.
type PriceSource = feed.Source

// ErrFeedEnd is the clean end-of-stream sentinel returned by feed sources
// after their final sample.
var ErrFeedEnd = feed.ErrEnd

// FromFunc adapts a step-indexed callback to a feed source; the feed path
// is bit-identical to calling the function directly.
func FromFunc(fn func(step int) []float64) DemandSource { return feed.FromFunc(fn) }

// FromTrace adapts a materialized trace (rows are not copied): sample k
// carries rows[k], then the stream ends.
func FromTrace(rows [][]float64) DemandSource { return feed.FromTrace(rows) }

// FromChannel adapts a producer-fed channel — the live-feed shape. The
// stream ends when the channel is closed and drained.
func FromChannel(ch <-chan Sample) DemandSource { return feed.FromChannel(ch) }

// FromJSONL decodes one JSON sample object per line, e.g.
// {"seq":0,"values":[1200,900,650,820,950]} — the format behind
// `idcsim -feed`.
func FromJSONL(r io.Reader) DemandSource { return feed.FromJSONL(r) }

// ReplaySamples replays recorded samples on their recorded timeline,
// scaled by 1/speed (speed <= 0 replays back-to-back).
func ReplaySamples(samples []Sample, speed float64) DemandSource {
	return feed.Replay(samples, speed)
}

// FeedBuffer is a bounded ring between a fast source and the fixed-Ts
// control loop: Start spawns a pump that pulls the source, the consumer
// drains at its own pace, and the overflow policy decides between
// decimation (drop-oldest, counted) and backpressure (block the producer).
// A FeedBuffer is itself a source, so it composes.
type FeedBuffer = feed.Buffer

// FeedOverflow selects the FeedBuffer's full-ring policy.
type FeedOverflow = feed.Overflow

// The two FeedBuffer overflow policies.
const (
	FeedDropOldest = feed.OverflowDropOldest
	FeedBlock      = feed.OverflowBlock
)

// NewFeedBuffer builds a ring of the given size over src; call Start(ctx)
// to begin pumping.
func NewFeedBuffer(src DemandSource, size int, pol FeedOverflow) *FeedBuffer {
	return feed.NewBuffer(src, size, pol)
}

// Mode is the controller's operating state — nominal or one of the
// explicit degraded modes (stale prices, forecast fallback, budget relax,
// price spike). Telemetry.Mode carries it per step; it JSON-encodes by
// name ("stale-price").
type Mode = core.Mode

// The degraded-mode states, ordered by severity.
const (
	ModeNominal          = core.ModeNominal
	ModeForecastFallback = core.ModeForecastFallback
	ModeBudgetRelax      = core.ModeBudgetRelax
	ModePriceSpike       = core.ModePriceSpike
	ModeStalePrice       = core.ModeStalePrice
)

// FeedPolicy configures how a controller degrades when its input feeds
// misbehave (held prices under outage, price-spike detection). The zero
// value is the legacy fail-fast behavior. Attach with WithFeedPolicy or
// Scenario.FeedPolicy.
type FeedPolicy = core.FeedPolicy

// WithFeedPolicy sets the controller's degraded-mode policy; see
// core.WithFeedPolicy.
func WithFeedPolicy(p FeedPolicy) Option { return core.WithFeedPolicy(p) }

// RunScenario executes a closed-loop simulation; see sim.Run.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return sim.Run(sc) }

// RunScenarioContext is RunScenario with cancellation; on a canceled ctx
// it returns the partial result recorded so far together with ctx's error.
func RunScenarioContext(ctx context.Context, sc Scenario) (*ScenarioResult, error) {
	return sim.RunContext(ctx, sc)
}

// OptimalAllocation solves the Rao-style per-step LP (eq. 46).
func OptimalAllocation(top *Topology, prices, demands []float64) (*AllocResult, error) {
	return alloc.Optimize(top, prices, demands)
}

// OptimalAllocationWithBudgets solves eq. (46) with per-IDC power caps, the
// budget-aware reference optimizer behind peak shaving.
func OptimalAllocationWithBudgets(top *Topology, prices, demands, budgets []float64) (*AllocResult, error) {
	return alloc.OptimizeWithBudgets(top, prices, demands, budgets)
}

// ReferenceSolver is a stateful eq. (46) optimizer that warm-starts the LP
// across calls with unchanged constraints (same topology, demands and
// budgets) — the hourly price-update pattern of the slow loop. See
// alloc.Solver for the warm-start and fallback contract.
type ReferenceSolver = alloc.Solver

// NewReferenceSolver returns a ready ReferenceSolver.
func NewReferenceSolver() *ReferenceSolver { return alloc.NewSolver() }

// BaselineAllocation is the paper's published "optimal method" behaviour:
// price-ordered filling with peak-power accounting.
func BaselineAllocation(top *Topology, prices, demands []float64) (*AllocResult, error) {
	return alloc.PriceOrdered(top, prices, demands)
}

// Experiments returns every paper table/figure regenerator.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment (e.g. "fig4").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }
