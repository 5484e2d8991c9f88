package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/price"
	"repro/internal/queueing"
	"repro/internal/tariff"
	"repro/internal/workload"
)

// BenchmarkRLSUpdate measures one recursive-least-squares update at the
// predictor's default order.
func BenchmarkRLSUpdate(b *testing.B) {
	r, err := forecast.NewRLS(6, 0.995, 1e4)
	if err != nil {
		b.Fatal(err)
	}
	phi := []float64{1, 2, 3, 4, 5, 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Update(phi, 3.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorObserveForecast measures the full per-step forecasting
// cost: one observation plus an 8-step-ahead prediction.
func BenchmarkPredictorObserveForecast(b *testing.B) {
	p, err := forecast.NewPredictor(forecast.PredictorConfig{Order: 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Observe(float64(100 + i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(float64(100 + i%7))
		if _, err := p.Forecast(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiurnalRate measures the synthetic workload generator.
func BenchmarkDiurnalRate(b *testing.B) {
	g, err := workload.NewDiurnal(workload.DiurnalConfig{Base: 1000, NoiseFrac: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Rate(i)
	}
}

// BenchmarkMMPP2Rate measures the bursty generator including the Poisson
// sampling path.
func BenchmarkMMPP2Rate(b *testing.B) {
	g, err := workload.NewMMPP2(workload.MMPP2Config{Rate1: 100, Rate2: 400, P12: 0.05, P21: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Rate(i)
	}
}

// BenchmarkErlangC measures the waiting-probability computation at fleet
// scale (20000 servers).
func BenchmarkErlangC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := queueing.ErlangC(20000, 19000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBidStackPrice measures one stochastic price query.
func BenchmarkBidStackPrice(b *testing.B) {
	m := price.NewBidStackModel(price.NewEmbeddedModel(), price.BidStackConfig{Sigma: 2, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Price(price.Wisconsin, i%24, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContraction measures the §IV.E closed-loop contraction estimate
// (20 MPC solves plus plant propagation).
func BenchmarkContraction(b *testing.B) {
	top := idc.PaperTopology()
	model, err := ctrl.NewFoldedModel(top, []float64{49.90, 29.47, 77.97}, 30)
	if err != nil {
		b.Fatal(err)
	}
	mpc, err := ctrl.NewMPC(ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 4})
	if err != nil {
		b.Fatal(err)
	}
	start, err := alloc.Optimize(top, []float64{43.26, 30.26, 19.06}, workload.TableI())
	if err != nil {
		b.Fatal(err)
	}
	target, err := alloc.Optimize(top, []float64{49.90, 29.47, 77.97}, workload.TableI())
	if err != nil {
		b.Fatal(err)
	}
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.EstimateContraction(model, mpc,
			start.Allocation.Vector(), servers,
			workload.TableI(), target.PowerWatts, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTariffPrice measures billing a day-long fleet series.
func BenchmarkTariffPrice(b *testing.B) {
	n := 2880
	watts := make([]float64, n)
	prices := make([]float64, n)
	for i := range watts {
		watts[i] = 5e6 + float64(i%7)*1e5
		prices[i] = 40
	}
	tr := &tariff.Tariff{DemandChargePerMW: 1e4, PeakLimitWatts: 5.3e6, PenaltyPerMWh: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Price(watts, prices, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpm measures the matrix exponential at the model's size.
func BenchmarkExpm(b *testing.B) {
	a := mat.Zeros(4, 4)
	a.Set(0, 1, 43.26)
	a.Set(0, 2, 30.26)
	a.Set(0, 3, 19.06)
	scaled := mat.Scale(30, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.Expm(scaled); err != nil {
			b.Fatal(err)
		}
	}
}

// mpcScalingRig is a controller warmed past its cold first solve, cached
// across b.N escalations: the benchmark harness re-runs each sub-benchmark
// closure with growing b.N (the parent function body runs once), and at
// planet scale the one-time condensed build plus cold active-set solve
// costs minutes — re-paying it per escalation would make the steady-state
// measurement unaffordable. The cache lives in the parent benchmark's
// scope, NOT at package level: the warmed rigs pin hundreds of megabytes
// of solver caches, and keeping them alive past the parent would tax every
// later benchmark in the process with the GC scan of a heap it never uses.
// releaseScalingRigs drops them and forces a collection on the way out.
type mpcScalingRig struct {
	mpc *ctrl.MPC
	in  ctrl.StepInput
}

func releaseScalingRigs(rigs map[string]*mpcScalingRig) {
	for k := range rigs {
		delete(rigs, k)
	}
	runtime.GC()
}

func mpcScalingRigFor(b *testing.B, rigs map[string]*mpcScalingRig, c, n int, forceDense bool) *mpcScalingRig {
	b.Helper()
	key := sizeName(c, n)
	if forceDense {
		key += "-dense"
	}
	if rig, ok := rigs[key]; ok {
		return rig
	}
	top, err := idc.SyntheticTopology(c, n, 20000)
	if err != nil {
		b.Fatal(err)
	}
	prices := make([]float64, n)
	for j := range prices {
		prices[j] = 20 + float64(j*7%40)
	}
	model, err := ctrl.NewFoldedModel(top, prices, 30)
	if err != nil {
		b.Fatal(err)
	}
	demands := make([]float64, c)
	for i := range demands {
		demands[i] = 8000
	}
	ref, err := alloc.Optimize(top, prices, demands)
	if err != nil {
		b.Fatal(err)
	}
	servers := make([]int, n)
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	mpc, err := ctrl.NewMPC(ctrl.MPCConfig{
		PowerWeight: 1, SmoothWeight: 4,
		PredHorizon: 6, CtrlHorizon: 3,
		ForceDense: forceDense,
	})
	if err != nil {
		b.Fatal(err)
	}
	rig := &mpcScalingRig{
		mpc: mpc,
		in: ctrl.StepInput{
			Model:    model,
			State:    make([]float64, model.StateDim()),
			PrevU:    ref.Allocation.Vector(),
			Servers:  servers,
			Demands:  demands,
			RefPower: ref.PowerWatts,
		},
	}
	// Warm past the cold solve and grow every scratch buffer to steady size.
	for k := 0; k < 2; k++ {
		if _, err := rig.mpc.Step(rig.in); err != nil {
			b.Fatal(err)
		}
	}
	rigs[key] = rig
	return rig
}

// BenchmarkMPCStepScaling measures one steady-state MPC solve as the
// topology grows (decision variables = portals × IDCs × β2). The sizes
// from C20×N10 up cross qp.StructuredMinVars and take the structured
// (Woodbury + sparse-constraint-row) solver path.
func BenchmarkMPCStepScaling(b *testing.B) {
	rigs := map[string]*mpcScalingRig{}
	defer releaseScalingRigs(rigs)
	for _, size := range []struct{ c, n int }{{5, 3}, {8, 6}, {10, 8}, {20, 10}, {50, 20}} {
		b.Run(sizeName(size.c, size.n), func(b *testing.B) {
			rig := mpcScalingRigFor(b, rigs, size.c, size.n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rig.mpc.Step(rig.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPCStepScalingDense forces the dense lowered-Hessian path at the
// planet-scale topology — the structured path's control. The ratio between
// MPCStepScalingDense/C50xN20 and MPCStepScaling/C50xN20 is the measured
// payoff of the structure-exploiting solver (BENCH_PR7.json records both).
// Only the one comparison size runs dense: larger dense topologies spend
// minutes in the one-time Hessian factorization for no extra information.
func BenchmarkMPCStepScalingDense(b *testing.B) {
	rigs := map[string]*mpcScalingRig{}
	defer releaseScalingRigs(rigs)
	b.Run(sizeName(50, 20), func(b *testing.B) {
		if testing.Short() {
			// The dense control pays a multi-minute one-time factorization
			// and only exists for the local perf-ratio snapshot; CI's
			// bench-smoke (checksums only) runs with -short and skips it.
			b.Skip("dense C50xN20 control skipped in -short mode")
		}
		rig := mpcScalingRigFor(b, rigs, 50, 20, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rig.mpc.Step(rig.in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
