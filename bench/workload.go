// Package bench is the repository's closed-loop tick benchmark. It drives
// the real user path, sim.Run, over four named workloads, times every
// core.Controller.Step from outside the program (through the scenario's
// demand source and observer), checks the controller's outputs, and — in a
// separate traced run — replays one episode through each layer's public
// functions to attribute a tick's time to the layers. See README.md.
package bench

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/idc"
	"repro/internal/price"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Workload is one named set of benchmark inputs.
type Workload struct {
	// Name is the workload's identifier on the command line.
	Name string
	// Why records what the workload exercises and what it bypasses.
	Why string
	// Ticks is the episode length in fast-loop steps.
	Ticks int
	// SeedFree marks a workload whose inputs do not depend on the seed.
	SeedFree bool
	build    func(seed int64, ticks int) (*Inputs, error)
}

// Inputs is one generated workload instance: the scenario template and the
// per-tick demand vectors the program receives.
type Inputs struct {
	// Workload is the name of the workload the inputs were built for.
	Workload string
	// Seed is the seed of the inputs' demand path.
	Seed int64
	// Scenario is the sim.Run template; Prices, DemandSource, Observer and
	// Metrics are filled per episode.
	Scenario sim.Scenario
	// Demands[k] is the portal demand vector of tick k.
	Demands [][]float64
	// newPrices builds a fresh price model per episode: a stateful model
	// (the bid stack's OU path) must restart for the episode to repeat.
	newPrices func() price.Model
}

// referenceSeed is the seed of the reference path: the seed of the daily
// experiment's demand. The quality metrics are measured on it alone. They
// are deterministic functions of the inputs, so a fixed path makes them
// exact across runs with any --seed, and a bound of 1e-6 catches any change
// to the control result.
const referenceSeed = 7

// Build generates the workload's timed inputs for seed: the workload's
// scenario with demand seed 1000·seed, so that portal i's noise is seeded
// 1000·seed+i and no two seeds share a portal's noise. ticks overrides the
// episode length when positive (tests use short episodes).
func (w *Workload) Build(seed int64, ticks int) (*Inputs, error) {
	return w.instance(1000*seed, ticks)
}

// Reference generates the inputs of the reference path.
func (w *Workload) Reference(ticks int) (*Inputs, error) {
	return w.instance(referenceSeed, ticks)
}

func (w *Workload) instance(seed int64, ticks int) (*Inputs, error) {
	if ticks <= 0 {
		ticks = w.Ticks
	}
	in, err := w.build(seed, ticks)
	if err != nil {
		return nil, fmt.Errorf("bench: workload %s: %w", w.Name, err)
	}
	in.Workload = w.Name
	in.Seed = seed
	in.Scenario.Name = w.Name
	in.Scenario.Steps = ticks
	return in, nil
}

// scenario returns the episode's scenario with a fresh price model.
func (in *Inputs) scenario() sim.Scenario {
	sc := in.Scenario
	sc.Prices = in.newPrices()
	return sc
}

// fig6Budgets are the §V.C per-IDC power budgets in watts.
var fig6Budgets = []float64{5.13e6, 10.26e6, 4.275e6}

// Workloads returns the benchmark's workloads in their canonical order.
func Workloads() []*Workload {
	return []*Workload{
		{
			Name:     "fig4-smooth",
			Why:      "the paper's Fig. 4 run: warm single-iteration fast ticks and hourly prices, so model and condensed-cache reuse and per-tick overhead dominate",
			Ticks:    140,
			SeedFree: true,
			build:    buildFig4,
		},
		{
			Name:  "diurnal-track",
			Why:   "the daily experiment's synthetic day: moving demand defeats the shifted warm start, so fast ticks run several active-set QP iterations",
			Ticks: dailySteps,
			build: buildDiurnalTrack,
		},
		{
			Name:  "volatile-shave",
			Why:   "the daily day with every tick a slow tick: new bid-stack prices, forecasting and budgets, so model rebuilds, cache misses, reference and trajectory LPs",
			Ticks: dailySteps,
			build: buildVolatileShave,
		},
		{
			Name:     "grid-c8n6",
			Why:      "TestScaleBeyondPaper's C8×N6 grid: its 144 QP variables cross the 128-variable threshold of the blocked Cholesky and row-streaming back-solve, which paper-scale problems never reach",
			Ticks:    140,
			SeedFree: true,
			build:    buildGridC8N6,
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

func embeddedPrices() price.Model { return price.NewEmbeddedModel() }

// buildFig4 is BenchmarkFig4Smoothing's scenario: constant Table I demand,
// embedded prices from 6 a.m., a slow tick every fourth step.
func buildFig4(_ int64, ticks int) (*Inputs, error) {
	table := workload.TableI()
	rows := make([][]float64, ticks)
	for k := range rows {
		rows[k] = append([]float64(nil), table...)
	}
	return &Inputs{
		Scenario: sim.Scenario{
			Topology:  idc.PaperTopology(),
			Ts:        30,
			StartHour: 6,
			SlowEvery: 4,
			MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
		},
		Demands:   rows,
		newPrices: embeddedPrices,
	}, nil
}

// The seeded workloads take their traffic from the daily experiment (internal/experiments/daily.go), the repository's synthetic
// day: 5-minute steps, hourly slow ticks, and per-portal diurnal demand.
const (
	dailySteps     = 288
	dailyTs        = 300
	dailySlowEvery = 12
)

// dailyDemand generates the daily experiment's demand around the constant
// per-portal levels (Table I there): portal i follows a workload.Diurnal
// with base levels[i]/3, peak boost 1, 4% AR(1) noise, 288 steps per day
// and seed seed+i, sampled at steps 0 … ticks−1.
func dailyDemand(levels []float64, seed int64, ticks int) ([][]float64, error) {
	gens := make([]workload.Generator, len(levels))
	for i, level := range levels {
		g, err := workload.NewDiurnal(workload.DiurnalConfig{
			Base: level / 3, PeakBoost: 1.0, NoiseFrac: 0.04,
			StepsPerDay: dailySteps, Seed: seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	portals, err := workload.NewPortals(gens...)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, ticks)
	for k := range rows {
		rows[k] = portals.Demands(k)
	}
	return rows, nil
}

// buildDiurnalTrack is the daily experiment's scenario: the paper topology
// over one synthetic day of embedded prices.
func buildDiurnalTrack(seed int64, ticks int) (*Inputs, error) {
	rows, err := dailyDemand(workload.TableI(), seed, ticks)
	if err != nil {
		return nil, err
	}
	return &Inputs{
		Scenario: sim.Scenario{
			Topology:  idc.PaperTopology(),
			Ts:        dailyTs,
			SlowEvery: dailySlowEvery,
			MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
		},
		Demands:   rows,
		newPrices: embeddedPrices,
	}, nil
}

// buildVolatileShave is the daily experiment's scenario with idcsim's
// -stochastic-prices model (bid stack, OU σ = 2 $/MWh, seeded like the
// demand), the §V.C budgets of the Fig. 6 shaving run, forecasting on, and
// a slow tick on every step.
func buildVolatileShave(seed int64, ticks int) (*Inputs, error) {
	rows, err := dailyDemand(workload.TableI(), seed, ticks)
	if err != nil {
		return nil, err
	}
	return &Inputs{
		Scenario: sim.Scenario{
			Topology:    idc.PaperTopology(),
			Ts:          dailyTs,
			SlowEvery:   1,
			MPC:         ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
			Budgets:     append([]float64(nil), fig6Budgets...),
			UseForecast: true,
		},
		Demands: rows,
		newPrices: func() price.Model {
			return price.NewBidStackModel(price.NewEmbeddedModel(), price.BidStackConfig{Sigma: 2, Seed: seed})
		},
	}, nil
}

// buildGridC8N6 is TestScaleBeyondPaper's scenario (internal/sim): an
// 8-portal, 6-IDC synthetic system at a constant 9000 req/s per portal (60%
// of its capacity), Ts 30 s, embedded prices from 6 a.m. and its MPC
// settings. Run for fig4-smooth's 140 ticks, it crosses the 7 a.m. price
// change at tick 120. The slow loop runs at sim's default, hourly, rather
// than the test's every fourth step: those 35 slow ticks of ~6 ms each per
// episode kept the per-index minimum from settling within a run on a busy
// machine (tick_mean_us spread 26–48% over ten runs). It has no noise, so
// it ignores the seed.
func buildGridC8N6(_ int64, ticks int) (*Inputs, error) {
	top, err := idc.SyntheticTopology(8, 6, 20000)
	if err != nil {
		return nil, err
	}
	demands := make([]float64, top.C())
	for i := range demands {
		demands[i] = 9000
	}
	rows := make([][]float64, ticks)
	for k := range rows {
		rows[k] = append([]float64(nil), demands...)
	}
	return &Inputs{
		Scenario: sim.Scenario{
			Topology:  top,
			Ts:        30,
			StartHour: 6,
			MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 4, PredHorizon: 6, CtrlHorizon: 3},
		},
		Demands:   rows,
		newPrices: embeddedPrices,
	}, nil
}
