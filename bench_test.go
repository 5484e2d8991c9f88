// Benchmarks: one per paper table/figure (the regeneration cost of each
// §V artifact) plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each figure bench reports a checksum of the produced series via b.ReportMetric
// so regressions in the *content* (not just the speed) are visible.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/feed"
	"repro/internal/idc"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/qp"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var checksum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		checksum = 0
		for _, f := range out.Figures {
			for _, s := range f.Series {
				for _, v := range s.Y {
					checksum += v
				}
			}
		}
		for _, t := range out.Tables {
			checksum += float64(len(t.Rows))
		}
	}
	b.ReportMetric(checksum, "series-sum")
}

// BenchmarkTable1Setup regenerates Table I (portal workloads).
func BenchmarkTable1Setup(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Setup regenerates Table II (IDC configuration).
func BenchmarkTable2Setup(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Prices regenerates Table III (price anchors).
func BenchmarkTable3Prices(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig2Prices regenerates Fig. 2 (24 h regional price traces).
func BenchmarkFig2Prices(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3Forecast regenerates Fig. 3 (AR/RLS workload prediction).
func BenchmarkFig3Forecast(b *testing.B) { benchExperiment(b, "fig3") }

// The fig4/5 and fig6/7 pairs share one closed-loop run behind a sync.Once;
// for honest per-figure numbers the benches below run the scenario directly.

func flipScenario(budgets []float64) sim.Scenario {
	return sim.Scenario{
		Name:      "bench-flip",
		Topology:  idc.PaperTopology(),
		Prices:    price.NewEmbeddedModel(),
		Steps:     140,
		Ts:        30,
		StartHour: 6,
		SlowEvery: 4,
		MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
		Budgets:   budgets,
	}
}

// benchScenario runs the closed loop scenario() builds, once per
// iteration, and reports the sum of its per-IDC power series. A scenario
// with a demand source consumes it, so scenario must build a fresh one.
func benchScenario(b *testing.B, scenario func() sim.Scenario) {
	b.Helper()
	var checksum float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(scenario())
		if err != nil {
			b.Fatal(err)
		}
		checksum = 0
		for j := range res.Control.PowerWatts {
			for _, v := range res.Control.PowerWatts[j] {
				checksum += v
			}
		}
	}
	b.ReportMetric(checksum/1e6, "MW-sum")
}

// BenchmarkFig4Smoothing runs the full §V.B smoothing experiment
// (also covers Fig. 5's server series — same closed-loop run).
func BenchmarkFig4Smoothing(b *testing.B) {
	benchScenario(b, func() sim.Scenario { return flipScenario(nil) })
}

// BenchmarkFig6PeakShaving runs the full §V.C budget experiment
// (also covers Fig. 7's server series — same closed-loop run).
func BenchmarkFig6PeakShaving(b *testing.B) {
	benchScenario(b, func() sim.Scenario { return flipScenario([]float64{5.13e6, 10.26e6, 4.275e6}) })
}

// BenchmarkGridC8N6 runs the closed loop of the grid-c8n6 tick-benchmark
// workload: the C8×N6 synthetic grid (144 QP variables) at 9000 req/s per
// portal, 140 steps of 30 s from 6 a.m. with the hourly slow loop, so the
// 7 a.m. price change re-plans the MPC once, on a rebuilt condensed cache.
func BenchmarkGridC8N6(b *testing.B) {
	top, err := idc.SyntheticTopology(8, 6, 20000)
	if err != nil {
		b.Fatal(err)
	}
	benchScenario(b, func() sim.Scenario {
		return sim.Scenario{
			Name:     "bench-grid-c8n6",
			Topology: top,
			Prices:   price.NewEmbeddedModel(),
			DemandSource: feed.FromFunc(func(int) []float64 {
				demands := make([]float64, top.C())
				for i := range demands {
					demands[i] = 9000
				}
				return demands
			}),
			Steps:     140,
			Ts:        30,
			StartHour: 6,
			MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 4, PredHorizon: 6, CtrlHorizon: 3},
		}
	})
}

// BenchmarkVolatileShave runs the closed loop of the volatile-shave
// tick-benchmark workload: the paper topology over one synthetic day of
// 288 five-minute steps (workload.DailyPortals, seed 7) under bid-stack
// real-time prices, with the Fig. 6 budgets, forecasting on and a slow
// tick on every step. Every tick brings new prices and so a model swap:
// the one pinned line that rebuilds the condensed cache each tick.
func BenchmarkVolatileShave(b *testing.B) {
	benchScenario(b, func() sim.Scenario {
		portals, err := workload.DailyPortals(288, 7)
		if err != nil {
			b.Fatal(err)
		}
		return sim.Scenario{
			Name:         "bench-volatile-shave",
			Topology:     idc.PaperTopology(),
			Prices:       price.NewBidStackModel(price.NewEmbeddedModel(), price.BidStackConfig{Sigma: 2, Seed: 7}),
			DemandSource: feed.FromFunc(portals.Demands),
			Steps:        288,
			Ts:           300,
			SlowEvery:    1,
			MPC:          ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
			Budgets:      []float64{5.13e6, 10.26e6, 4.275e6},
			UseForecast:  true,
		}
	})
}

// BenchmarkAllExperiments measures the full `idcexp -exp all` sweep on the
// worker-pool runner at GOMAXPROCS parallelism — the wall-clock cost of
// regenerating every paper artifact at once. The checksum covers every
// figure series so content regressions in any experiment are visible.
func BenchmarkAllExperiments(b *testing.B) {
	exps := experiments.All()
	var checksum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksum = 0
		for _, r := range experiments.RunAllContext(context.Background(), exps, 0) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Experiment.ID, r.Err)
			}
			for _, f := range r.Output.Figures {
				for _, s := range f.Series {
					for _, v := range s.Y {
						checksum += v
					}
				}
			}
			for _, t := range r.Output.Tables {
				checksum += float64(len(t.Rows))
			}
		}
	}
	b.ReportMetric(checksum, "series-sum")
}

// BenchmarkAblationSmoothing sweeps the Q/R trade-off.
func BenchmarkAblationSmoothing(b *testing.B) { benchExperiment(b, "ablation-smoothing") }

// BenchmarkAblationHorizon sweeps the MPC horizons.
func BenchmarkAblationHorizon(b *testing.B) { benchExperiment(b, "ablation-horizon") }

// BenchmarkMPCStep measures one fast-loop MPC solve at the paper's scale
// (N=3, C=5, β1=8, β2=3 → 45 decision variables).
func BenchmarkMPCStep(b *testing.B) {
	top := idc.PaperTopology()
	model, err := ctrl.NewFoldedModel(top, []float64{49.90, 29.47, 77.97}, 30)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := repro.OptimalAllocation(top, []float64{43.26, 30.26, 19.06}, repro.TableIDemands())
	if err != nil {
		b.Fatal(err)
	}
	u := ref.Allocation.Vector()
	target, err := repro.OptimalAllocation(top, []float64{49.90, 29.47, 77.97}, repro.TableIDemands())
	if err != nil {
		b.Fatal(err)
	}
	mpc, err := ctrl.NewMPC(ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		b.Fatal(err)
	}
	// Benchmark the instrumented path — the one a wired Controller runs —
	// so the recorded ns/op carries the observability overhead.
	reg := obs.NewRegistry()
	mpc.SetInstruments(ctrl.Instruments{
		CacheHits:   reg.Counter("bench_mpc_cache_hits_total", ""),
		CacheMisses: reg.Counter("bench_mpc_cache_misses_total", ""),
		ModelSwaps:  reg.Counter("bench_mpc_model_swaps_total", ""),
		QP: qp.Instruments{
			Iterations:     reg.Counter("bench_qp_iterations_total", ""),
			Factorizations: reg.Counter("bench_qp_factorizations_total", ""),
			FactorReuse:    reg.Counter("bench_qp_factor_reuse_total", ""),
		},
	})
	in := ctrl.StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u,
		Demands:  repro.TableIDemands(),
		RefPower: target.PowerWatts,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpc.Step(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceLP measures the eq. (46) reference optimizer over the
// paper's 24 embedded hourly price vectors — the slow loop's real access
// pattern, where only prices change between solves. Cold runs the stateless
// two-phase simplex each hour; Warm carries one repro.ReferenceSolver across
// the sweep so every re-solve starts from the previous optimal basis.
func BenchmarkReferenceLP(b *testing.B) {
	top := idc.PaperTopology()
	demands := repro.TableIDemands()
	pm := price.NewEmbeddedModel()
	hourly := make([][]float64, 24)
	for h := range hourly {
		prices := make([]float64, top.N())
		for j := range prices {
			p, err := pm.Price(top.IDC(j).Region, h, 0)
			if err != nil {
				b.Fatal(err)
			}
			prices[j] = p
		}
		hourly[h] = prices
	}
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.OptimalAllocation(top, hourly[i%24], demands); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		s := repro.NewReferenceSolver()
		reg := obs.NewRegistry()
		s.SetInstruments(lp.Instruments{
			WarmSolves: reg.Counter("bench_lp_warm_solves_total", ""),
			ColdSolves: reg.Counter("bench_lp_cold_solves_total", ""),
			Pivots:     reg.Counter("bench_lp_pivots_total", ""),
		})
		for i := 0; i < b.N; i++ {
			if _, err := s.Optimize(top, hourly[i%24], demands); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimplexScaling measures the LP solver's cold two-phase solve on
// growing synthetic transportation problems (N IDC columns × C portal
// rows), from paper scale (15 variables) to C100×N20 (2000 variables), all
// on the one support-restricted tableau. The two largest sizes are pinned
// by make bench: they keep the tableau's cost at planet scale measured.
func BenchmarkSimplexScaling(b *testing.B) {
	for _, size := range []struct{ c, n int }{{5, 3}, {10, 6}, {20, 12}, {50, 20}, {100, 20}} {
		b.Run(sizeName(size.c, size.n), func(b *testing.B) {
			p := transportLP(size.c, size.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := lp.Solve(p)
				if err != nil || res.Status != lp.Optimal {
					b.Fatalf("solve: %v / %v", err, res)
				}
			}
		})
	}
}

func sizeName(c, n int) string {
	return "C" + itoa(c) + "xN" + itoa(n)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// transportLP builds a feasible transportation LP with c supplies and n
// demand columns (variables x_{ij} ≥ 0).
func transportLP(c, n int) *lp.Problem {
	nv := c * n
	cost := make([]float64, nv)
	for i := range cost {
		cost[i] = float64((i*7)%13 + 1)
	}
	aeq := mat.Zeros(c, nv)
	beq := make([]float64, c)
	for i := 0; i < c; i++ {
		for j := 0; j < n; j++ {
			aeq.Set(i, i*n+j, 1)
		}
		beq[i] = float64(10 + i)
	}
	aub := mat.Zeros(n, nv)
	bub := make([]float64, n)
	var total float64
	for _, v := range beq {
		total += v
	}
	for j := 0; j < n; j++ {
		for i := 0; i < c; i++ {
			aub.Set(j, i*n+j, 1)
		}
		bub[j] = total // loose caps keep it feasible
	}
	return &lp.Problem{C: cost, Aeq: mat.SparseRowsFrom(aeq), Beq: beq, Aub: mat.SparseRowsFrom(aub), Bub: bub}
}

// BenchmarkQPActiveSet measures the active-set QP on a box-constrained
// problem at the MPC's variable count.
func BenchmarkQPActiveSet(b *testing.B) {
	n := 45
	h := mat.Scale(2, mat.Identity(n))
	q := make([]float64, n)
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	ain := mat.Zeros(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 1
		ain.Set(n+i, i, -1)
		bin[n+i] = 1
	}
	p := &qp.Problem{H: h, Q: q, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: make([]float64, n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.SolveWith(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscretize measures one whole NewFoldedModel build at paper
// scale (C5×N3, Ts 30 s), the model rebuild every price change runs: the
// A, B and F fill, the Van Loan ZOH discretization of eqs. (21)–(25) over
// the (3N+1)-square block of one input column per IDC plus F, the copy of
// each G column to its IDC's portal columns, and the finiteness check.
func BenchmarkDiscretize(b *testing.B) {
	top := idc.PaperTopology()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.NewFoldedModel(top, []float64{43.26, 30.26, 19.06}, 30); err != nil {
			b.Fatal(err)
		}
	}
}
