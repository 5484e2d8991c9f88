// Package sim runs closed-loop scenario simulations of the paper's §V
// experiments: the MPC "control method" (internal/core) and the per-step
// "optimal method" baseline side by side over a shared price model and
// demand process, recording per-step series for the figures and metrics.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/price"
	"repro/internal/sleep"
	"repro/internal/workload"
)

// ErrBadScenario is returned for invalid scenario parameters.
var ErrBadScenario = errors.New("sim: invalid scenario")

// Scenario describes one closed-loop experiment.
type Scenario struct {
	// Name labels the run in outputs.
	Name string
	// Topology is the portal/IDC system (required).
	Topology *idc.Topology
	// Prices is the shared price model (required unless PriceSource is
	// set, which supersedes it).
	Prices price.Model
	// DemandSource streams the portal demand vector per step
	// (DESIGN.md §3.13); nil uses the paper's constant Table I demands.
	// Each pulled sample must carry one rate per portal; the run ends
	// early (cleanly, with the partial series and a nil error) when the
	// source returns feed.ErrEnd before Steps samples. A run consumes its
	// source, so a Scenario whose DemandSource is set runs once; build a
	// fresh source, e.g. feed.FromFunc of a step-indexed callback, for
	// each run.
	DemandSource feed.Source
	// PriceSource, when non-nil, streams hourly price vectors and
	// supersedes Prices: each sample's Seq is the price-trace hour and
	// Values holds one price per distinct topology region in IDC order
	// (see feedPrices for the full stream contract). Pair it with a
	// FeedPolicy so gaps and outages degrade to held prices instead of
	// failing the run.
	PriceSource feed.Source
	// FeedPolicy configures the controller's degraded modes (passed
	// through as core.WithFeedPolicy). The zero value is the legacy
	// fail-fast behavior.
	FeedPolicy core.FeedPolicy
	// Steps is the number of fast-loop steps to simulate (required > 0).
	Steps int
	// Ts is the sampling period in seconds (default 30).
	Ts float64
	// StartHour offsets the price-trace hour of step 0.
	StartHour int
	// SlowEvery is the slow-loop divisor (default: hourly).
	SlowEvery int
	// MPC configures the controller's fast loop.
	MPC ctrl.MPCConfig
	// Sleep configures the slow-loop server controller.
	Sleep sleep.Config
	// Budgets is the per-IDC peak-shaving budget in watts (nil = none).
	Budgets []float64
	// UseForecast enables AR/RLS demand prediction in the controller.
	UseForecast bool
	// Forecast configures the predictors when UseForecast is set.
	Forecast forecast.PredictorConfig
	// SkipBaseline disables the optimal-method run (saves time when only
	// the control series is needed).
	SkipBaseline bool
	// Observer, when non-nil, receives the controller's per-step telemetry
	// (passed through as core.WithObserver).
	Observer core.Observer
	// Metrics, when non-nil, shares the controller's instruments through
	// this registry (passed through as core.WithMetrics). When nil the
	// controller keeps its own private registry.
	Metrics *obs.Registry
	// SampleEvery, when > 0, overrides the controller's fast-loop latency
	// sampling rate (passed through as core.WithSampleEvery). Zero keeps
	// core.DefaultSampleEvery.
	SampleEvery int
	// TraceWriter, when non-nil, receives a JSONL telemetry trace
	// (passed through as core.WithTrace). The caller owns buffering.
	TraceWriter io.Writer
}

// Series holds per-step records for one method.
type Series struct {
	// TimeMin is the elapsed time of each step in minutes.
	TimeMin []float64
	// Hours is the price-trace hour of each step.
	Hours []int
	// PowerWatts[j][k] is IDC j's power at step k.
	PowerWatts [][]float64
	// Servers[j][k] is IDC j's active-server count at step k.
	Servers [][]int
	// RefPowerWatts[j][k] is the tracked reference (control method only).
	RefPowerWatts [][]float64
	// Prices[j][k] is the $/MWh price seen at step k.
	Prices [][]float64
	// CostRate[k] is the $/h spend at step k.
	CostRate []float64
	// CumulativeCost[k] is the integrated spend in dollars.
	CumulativeCost []float64
	// QPIterations[k] is the fast-loop solver effort (control method only).
	QPIterations []int
	// Modes[k] is the controller's operating mode at step k (control
	// method only; see core.Mode).
	Modes []core.Mode
}

func newSeries(n, steps int) *Series {
	s := &Series{
		TimeMin:        make([]float64, 0, steps),
		Hours:          make([]int, 0, steps),
		PowerWatts:     make([][]float64, n),
		Servers:        make([][]int, n),
		RefPowerWatts:  make([][]float64, n),
		Prices:         make([][]float64, n),
		CostRate:       make([]float64, 0, steps),
		CumulativeCost: make([]float64, 0, steps),
		QPIterations:   make([]int, 0, steps),
		Modes:          make([]core.Mode, 0, steps),
	}
	for j := 0; j < n; j++ {
		s.PowerWatts[j] = make([]float64, 0, steps)
		s.Servers[j] = make([]int, 0, steps)
		s.RefPowerWatts[j] = make([]float64, 0, steps)
		s.Prices[j] = make([]float64, 0, steps)
	}
	return s
}

// Steps returns the number of recorded steps.
func (s *Series) Steps() int { return len(s.TimeMin) }

// Slice returns a copy of the series restricted to steps [from, to).
func (s *Series) Slice(from, to int) *Series {
	n := len(s.PowerWatts)
	out := newSeries(n, to-from)
	out.TimeMin = append(out.TimeMin, s.TimeMin[from:to]...)
	out.Hours = append(out.Hours, s.Hours[from:to]...)
	out.CostRate = append(out.CostRate, s.CostRate[from:to]...)
	out.CumulativeCost = append(out.CumulativeCost, s.CumulativeCost[from:to]...)
	if len(s.QPIterations) >= to {
		out.QPIterations = append(out.QPIterations, s.QPIterations[from:to]...)
	}
	if len(s.Modes) >= to {
		out.Modes = append(out.Modes, s.Modes[from:to]...)
	}
	for j := 0; j < n; j++ {
		out.PowerWatts[j] = append(out.PowerWatts[j], s.PowerWatts[j][from:to]...)
		out.Servers[j] = append(out.Servers[j], s.Servers[j][from:to]...)
		out.RefPowerWatts[j] = append(out.RefPowerWatts[j], s.RefPowerWatts[j][from:to]...)
		out.Prices[j] = append(out.Prices[j], s.Prices[j][from:to]...)
	}
	return out
}

// Result bundles both methods' series for a scenario.
type Result struct {
	Scenario Scenario
	// Control is the MPC method's record.
	Control *Series
	// Optimal is the per-step optimal baseline's record (nil when skipped).
	Optimal *Series
}

// Run executes the scenario.
func Run(sc Scenario) (*Result, error) {
	return RunContext(context.Background(), sc)
}

// RunContext executes the scenario, stopping early when ctx is canceled.
// On cancellation it returns the partial Result recorded so far alongside
// ctx's error, so callers can flush what they have — the only case where
// both return values are non-nil.
func RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	if sc.Topology == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadScenario)
	}
	prices := sc.Prices
	if sc.PriceSource != nil {
		prices = newFeedPrices(ctx, sc.PriceSource, sc.Topology)
	}
	if prices == nil {
		return nil, fmt.Errorf("nil price model: %w", ErrBadScenario)
	}
	if sc.Steps <= 0 {
		return nil, fmt.Errorf("steps %d: %w", sc.Steps, ErrBadScenario)
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Ts means "use the default"
	if sc.Ts == 0 {
		sc.Ts = 30
	}
	if !(sc.Ts > 0) || math.IsInf(sc.Ts, 0) {
		return nil, fmt.Errorf("ts %g: %w", sc.Ts, ErrBadScenario)
	}
	demandSrc := sc.DemandSource
	if demandSrc == nil {
		table := workload.TableI()
		if sc.Topology.C() != len(table) {
			return nil, fmt.Errorf("default demands need %d portals, topology has %d: %w",
				len(table), sc.Topology.C(), ErrBadScenario)
		}
		demandSrc = feed.FromFunc(func(int) []float64 { return table })
	}

	var opts []core.Option
	if sc.FeedPolicy != (core.FeedPolicy{}) {
		opts = append(opts, core.WithFeedPolicy(sc.FeedPolicy))
	}
	if sc.Observer != nil {
		opts = append(opts, core.WithObserver(sc.Observer))
	}
	if sc.Metrics != nil {
		opts = append(opts, core.WithMetrics(sc.Metrics))
	}
	if sc.SampleEvery > 0 {
		opts = append(opts, core.WithSampleEvery(sc.SampleEvery))
	}
	if sc.TraceWriter != nil {
		opts = append(opts, core.WithTrace(sc.TraceWriter))
	}
	controller, err := core.New(core.Config{
		Topology:    sc.Topology,
		Prices:      prices,
		MPC:         sc.MPC,
		Ts:          sc.Ts,
		SlowEvery:   sc.SlowEvery,
		Budgets:     sc.Budgets,
		Sleep:       sc.Sleep,
		UseForecast: sc.UseForecast,
		Forecast:    sc.Forecast,
		StartHour:   sc.StartHour,
	}, opts...)
	if err != nil {
		return nil, fmt.Errorf("sim: controller: %w", err)
	}

	n := sc.Topology.N()
	res := &Result{Scenario: sc, Control: newSeries(n, sc.Steps)}
	if !sc.SkipBaseline {
		res.Optimal = newSeries(n, sc.Steps)
	}

	// The optimal-method baseline is independent of the control loop (it
	// only consumes each step's telemetry), so it runs pipelined on its own
	// goroutine: a single ordered worker consumes steps as the controller
	// produces them, preserving the sequential accumulation order — the
	// recorded series are value-identical to an inline baseline.
	var baseErr error
	var baseCh chan *core.Telemetry
	baseDone := make(chan struct{})
	if res.Optimal != nil {
		baseCh = make(chan *core.Telemetry, 64)
		go func(ch <-chan *core.Telemetry) {
			defer close(baseDone)
			var baseCum float64
			for tel := range ch {
				if baseErr != nil {
					continue // drain after first failure
				}
				// The baseline sees the same prices (and demand copy) the
				// controller saw; core floors negative prices at the
				// source, so no per-step clamp is needed here.
				opt, err := alloc.PriceOrdered(sc.Topology, tel.Prices, tel.Demands)
				if err != nil {
					baseErr = fmt.Errorf("sim: baseline step %d: %w", tel.Step, err)
					continue
				}
				var rate float64
				for j := 0; j < n; j++ {
					rate += tel.Prices[j] * power.WattsToMW(opt.PowerWatts[j])
				}
				baseCum += rate * sc.Ts / 3600
				res.Optimal.TimeMin = append(res.Optimal.TimeMin, float64(tel.Step)*sc.Ts/60)
				res.Optimal.Hours = append(res.Optimal.Hours, tel.Hour)
				res.Optimal.CostRate = append(res.Optimal.CostRate, rate)
				res.Optimal.CumulativeCost = append(res.Optimal.CumulativeCost, baseCum)
				for j := 0; j < n; j++ {
					res.Optimal.PowerWatts[j] = append(res.Optimal.PowerWatts[j], opt.PowerWatts[j])
					res.Optimal.Servers[j] = append(res.Optimal.Servers[j], opt.Servers[j])
					res.Optimal.RefPowerWatts[j] = append(res.Optimal.RefPowerWatts[j], opt.PowerWatts[j])
					res.Optimal.Prices[j] = append(res.Optimal.Prices[j], tel.Prices[j])
				}
			}
		}(baseCh)
	} else {
		close(baseDone)
	}
	finishBaseline := func() error {
		if baseCh != nil {
			close(baseCh)
			baseCh = nil
		}
		<-baseDone
		return baseErr
	}
	// The explicit finishBaseline calls below handle the error paths; this
	// deferred join (idempotent: baseCh is nilled on first close, baseDone
	// stays closed) covers panics out of the demand source, Step, or
	// recordControl, which would otherwise strand the baseline worker
	// parked on baseCh forever.
	defer finishBaseline() //nolint:errcheck // the panic in flight takes precedence

	for k := 0; k < sc.Steps; k++ {
		if err := ctx.Err(); err != nil {
			if berr := finishBaseline(); berr != nil {
				return nil, berr
			}
			return res, err
		}
		smp, err := demandSrc.Next(ctx)
		if err != nil {
			if errors.Is(err, feed.ErrEnd) {
				// The stream ended before Steps samples: a clean partial
				// run, same as stopping the loop here.
				break
			}
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				// The source surfaced our own cancellation: the partial-
				// result contract applies, same as the ctx check above.
				if berr := finishBaseline(); berr != nil {
					return nil, berr
				}
				return res, err
			}
			finishBaseline() //nolint:errcheck // feed error takes precedence
			return nil, fmt.Errorf("sim: demand feed step %d: %w", k, err)
		}
		demands := smp.Values
		tel, err := controller.Step(demands)
		if err != nil {
			finishBaseline() //nolint:errcheck // control error takes precedence
			return nil, fmt.Errorf("sim: control step %d: %w", k, err)
		}
		recordControl(res.Control, tel, float64(k)*sc.Ts/60)
		if baseCh != nil {
			baseCh <- tel
		}
	}
	if err := finishBaseline(); err != nil {
		return nil, err
	}
	return res, nil
}

func recordControl(s *Series, tel *core.Telemetry, minute float64) {
	s.TimeMin = append(s.TimeMin, minute)
	s.Hours = append(s.Hours, tel.Hour)
	s.CostRate = append(s.CostRate, tel.CostRate)
	s.CumulativeCost = append(s.CumulativeCost, tel.CumulativeCost)
	s.QPIterations = append(s.QPIterations, tel.QPIterations)
	s.Modes = append(s.Modes, tel.Mode)
	for j := range s.PowerWatts {
		s.PowerWatts[j] = append(s.PowerWatts[j], tel.PowerWatts[j])
		s.Servers[j] = append(s.Servers[j], tel.Servers[j])
		s.RefPowerWatts[j] = append(s.RefPowerWatts[j], tel.RefPowerWatts[j])
		s.Prices[j] = append(s.Prices[j], tel.Prices[j])
	}
}
