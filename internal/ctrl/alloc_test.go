package ctrl

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/testenv"
	"repro/internal/workload"
)

// TestMPCStepSteadyStateAllocFree pins the tentpole property at the ctrl
// layer: with the condensed cache warm and the step scratch grown to its
// steady size, MPC.Step performs zero heap allocations.
func TestMPCStepSteadyStateAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	model := newTestModel(t, testPrices6H, 30)
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Demands:  workload.TableI(),
		RefPower: refPower,
	}
	for i := 0; i < 3; i++ { // build condensed cache, grow scratch, warm QP caches
		if _, err := mpc.Step(in); err != nil {
			t.Fatalf("warmup Step: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mpc.Step(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state MPC.Step allocated %v allocs/run, want 0", allocs)
	}
}

// TestMPCStepInstrumentedAllocFree pins the observability contract: with
// live obs instruments attached (the configuration every wired Controller
// runs), steady-state MPC.Step still performs zero heap allocations —
// counters and histograms are pure atomic ops.
func TestMPCStepInstrumentedAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	model := newTestModel(t, testPrices6H, 30)
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	reg := obs.NewRegistry()
	instr := Instruments{
		CacheHits:   reg.Counter("mpc_cache_hits_total", ""),
		CacheMisses: reg.Counter("mpc_cache_misses_total", ""),
		ModelSwaps:  reg.Counter("mpc_model_swaps_total", ""),
		QP: qp.Instruments{
			Iterations:     reg.Counter("qp_iterations_total", ""),
			Factorizations: reg.Counter("qp_factorizations_total", ""),
			FactorReuse:    reg.Counter("qp_factor_reuse_total", ""),
		},
	}
	mpc.SetInstruments(instr)
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Demands:  workload.TableI(),
		RefPower: refPower,
	}
	for i := 0; i < 3; i++ { // build condensed cache, grow scratch, warm QP caches
		if _, err := mpc.Step(in); err != nil {
			t.Fatalf("warmup Step: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mpc.Step(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented steady-state MPC.Step allocated %v allocs/run, want 0", allocs)
	}
	// The instruments actually fired: 3 warmups + 21 AllocsPerRun runs, all
	// cache hits after the first miss, each reusing the QP factorization.
	if v := instr.CacheHits.Value(); v == 0 {
		t.Error("cache-hit counter never fired")
	}
	if v := instr.CacheMisses.Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}
	if v := instr.QP.Iterations.Value(); v == 0 {
		t.Error("QP iteration counter never fired")
	}
	if v := instr.QP.FactorReuse.Value(); v == 0 {
		t.Error("QP factor-reuse counter never fired")
	}
}
