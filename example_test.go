package repro_test

import (
	"bytes"
	"fmt"
	"log"

	"repro"
)

// ExampleNew shows the minimal control loop: the paper's topology, embedded
// prices and one control step.
func ExampleNew() {
	controller, err := repro.New(repro.Config{
		Topology:  repro.PaperTopology(),
		Prices:    repro.NewEmbeddedPrices(),
		Ts:        30,
		StartHour: 6,
		MPC:       repro.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
	})
	if err != nil {
		log.Fatal(err)
	}
	tel, err := controller.Step(repro.TableIDemands())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hour %d, total %.3f MW\n", tel.Hour,
		(tel.PowerWatts[0]+tel.PowerWatts[1]+tel.PowerWatts[2])/1e6)
	// Output: hour 6, total 17.531 MW
}

// ExampleNew_options wires the observability hooks: an isolated metrics
// registry, a per-step telemetry observer, and a JSONL trace — all attached
// as options, leaving the Config (and the control behavior) untouched.
func ExampleNew_options() {
	reg := repro.NewMetrics()
	var traced bytes.Buffer
	steps := 0
	controller, err := repro.New(repro.Config{
		Topology:  repro.PaperTopology(),
		Prices:    repro.NewEmbeddedPrices(),
		Ts:        30,
		StartHour: 6,
		MPC:       repro.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
	},
		repro.WithMetrics(reg),
		repro.WithTrace(&traced),
		repro.WithObserver(repro.ObserverFunc(func(*repro.Telemetry) { steps++ })),
	)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := controller.Step(repro.TableIDemands()); err != nil {
			log.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	total, _ := snap.Counter("idc_steps_total")
	cold, _ := snap.Counter("idc_lp_cold_solves_total")
	fmt.Printf("observed %d steps, counted %d, reference LP cold solves %d\n", steps, total, cold)
	fmt.Printf("trace lines: %d\n", bytes.Count(traced.Bytes(), []byte("\n")))
	// Output:
	// observed 4 steps, counted 4, reference LP cold solves 1
	// trace lines: 4
}

// ExampleOptimalAllocation solves the Rao-style per-step LP (eq. 46) for
// the paper's 6H prices.
func ExampleOptimalAllocation() {
	res, err := repro.OptimalAllocation(
		repro.PaperTopology(),
		[]float64{43.26, 30.26, 19.06},
		repro.TableIDemands(),
	)
	if err != nil {
		log.Fatal(err)
	}
	per := res.Allocation.PerIDC()
	fmt.Printf("loads: %.0f %.0f %.0f req/s\n", per[0], per[1], per[2])
	// Output: loads: 39000 27000 34000 req/s
}

// ExampleBaselineAllocation reproduces the paper's published §V.B numbers
// at the 7H prices exactly.
func ExampleBaselineAllocation() {
	res, err := repro.BaselineAllocation(
		repro.PaperTopology(),
		[]float64{49.90, 29.47, 77.97},
		repro.TableIDemands(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("servers: %d %d %d\n", res.Servers[0], res.Servers[1], res.Servers[2])
	fmt.Printf("power: %.4f %.4f %.6f MW\n",
		res.PowerWatts[0]/1e6, res.PowerWatts[1]/1e6, res.PowerWatts[2]/1e6)
	// Output:
	// servers: 20000 40000 5715
	// power: 5.7000 11.4000 1.628775 MW
}

// ExampleOptimalAllocationWithBudgets shows the budget-aware reference
// optimizer behind peak shaving: the displaced load is re-routed.
func ExampleOptimalAllocationWithBudgets() {
	res, err := repro.OptimalAllocationWithBudgets(
		repro.PaperTopology(),
		[]float64{49.90, 29.47, 77.97},
		repro.TableIDemands(),
		[]float64{5.13e6, 10.26e6, 4.275e6},
	)
	if err != nil {
		log.Fatal(err)
	}
	for j, w := range res.PowerWatts {
		fmt.Printf("idc %d: %.3f MW\n", j, w/1e6)
	}
	// Output:
	// idc 0: 5.130 MW
	// idc 1: 10.260 MW
	// idc 2: 3.352 MW
}

// ExampleExperimentByID regenerates one of the paper's artifacts.
func ExampleExperimentByID() {
	e, err := repro.ExperimentByID("table3")
	if err != nil {
		log.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Tables[0].Rows[0][1], out.Tables[0].Rows[1][3])
	// Output: 43.26 77.97
}

// ExampleRunScenario runs a short closed-loop comparison of the control
// method against the per-step optimal baseline.
func ExampleRunScenario() {
	res, err := repro.RunScenario(repro.Scenario{
		Name:      "demo",
		Topology:  repro.PaperTopology(),
		Prices:    repro.NewEmbeddedPrices(),
		Steps:     4,
		Ts:        30,
		StartHour: 6,
		MPC:       repro.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control steps: %d, baseline steps: %d\n",
		res.Control.Steps(), res.Optimal.Steps())
	fmt.Printf("hour: %d\n", res.Control.Hours[0])
	// Output:
	// control steps: 4, baseline steps: 4
	// hour: 6
}

// ExampleRunScenario_feed drives the same closed loop from a streaming
// demand source instead of a callback — the live-feed input path. The trace
// ends after three samples, so the run stops cleanly with a partial series;
// the recorded per-step mode shows the controller stayed nominal.
func ExampleRunScenario_feed() {
	demandTrace := [][]float64{
		{30000, 15000, 15000, 20000, 20000},
		{29000, 15500, 14800, 20200, 19900},
		{28000, 16000, 14600, 20400, 19800},
	}
	res, err := repro.RunScenario(repro.Scenario{
		Name:         "feed-demo",
		Topology:     repro.PaperTopology(),
		Prices:       repro.NewEmbeddedPrices(),
		DemandSource: repro.FromTrace(demandTrace),
		FeedPolicy:   repro.FeedPolicy{MaxPriceStaleTicks: 2},
		Steps:        10, // the stream ends first: a clean partial run
		Ts:           30,
		StartHour:    6,
		SkipBaseline: true,
		MPC:          repro.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed steps: %d, mode: %s\n",
		res.Control.Steps(), res.Control.Modes[res.Control.Steps()-1])
	// Output: streamed steps: 3, mode: nominal
}
