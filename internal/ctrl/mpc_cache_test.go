package ctrl

import (
	"testing"

	"repro/internal/idc"
	"repro/internal/workload"
)

// newFlipTestModel builds the folded model the core controller uses.
func newFlipTestModel(t *testing.T, prices []float64, ts float64) *Model {
	t.Helper()
	m, err := NewFoldedModel(idc.PaperTopology(), prices, ts)
	if err != nil {
		t.Fatalf("NewFoldedModel: %v", err)
	}
	return m
}

// TestCondensedCacheBitIdentical drives a cached and an uncached MPC in
// lockstep through a closed loop that crosses both kinds of invalidation
// the controller sees in production: a same-price slow-tick rebuild (new
// Model pointer/version, identical matrices) and the 6H→7H price flip. The
// outputs must match bit for bit — the condensed cache and the QP workspace
// may only ever reuse values the cold path computes with identical
// arithmetic.
func TestCondensedCacheBitIdentical(t *testing.T) {
	top := idc.PaperTopology()
	ts := 30.0
	demands := workload.TableI()
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}

	// Model schedule mimicking hourly slow ticks: steps 0–9 on the 6H
	// model, a same-price rebuild at step 10 (fresh version), the price
	// flip to 7H at step 20.
	m6 := newFlipTestModel(t, testPrices6H, ts)
	m6b := newFlipTestModel(t, testPrices6H, ts)
	m7 := newFlipTestModel(t, testPrices7H, ts)
	modelAt := func(k int) *Model {
		switch {
		case k < 10:
			return m6
		case k < 20:
			return m6b
		default:
			return m7
		}
	}

	cfg := MPCConfig{PowerWeight: 1, SmoothWeight: 6}
	cached, err := NewMPC(cfg)
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	uncached, err := NewMPC(cfg)
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	uncached.nocache = true

	u, _ := feasibleStart(t, testPrices6H)
	state := make([]float64, top.N()+1)
	for k := 0; k < 30; k++ {
		model := modelAt(k)
		refPower, err := model.PowerRates(u, servers)
		if err != nil {
			t.Fatalf("PowerRates: %v", err)
		}
		in := StepInput{
			Model:    model,
			State:    state,
			PrevU:    u,
			Servers:  servers,
			Demands:  demands,
			RefPower: refPower,
		}
		outC, err := cached.Step(in)
		if err != nil {
			t.Fatalf("cached Step %d: %v", k, err)
		}
		outU, err := uncached.Step(in)
		if err != nil {
			t.Fatalf("uncached Step %d: %v", k, err)
		}
		for i := range outC.DeltaU {
			if outC.DeltaU[i] != outU.DeltaU[i] {
				t.Fatalf("step %d: DeltaU[%d] cached %v != uncached %v", k, i, outC.DeltaU[i], outU.DeltaU[i])
			}
			if outC.U[i] != outU.U[i] {
				t.Fatalf("step %d: U[%d] cached %v != uncached %v", k, i, outC.U[i], outU.U[i])
			}
		}
		for s := range outC.PredictedStates {
			for i := range outC.PredictedStates[s] {
				if outC.PredictedStates[s][i] != outU.PredictedStates[s][i] {
					t.Fatalf("step %d: PredictedStates[%d][%d] cached %v != uncached %v",
						k, s, i, outC.PredictedStates[s][i], outU.PredictedStates[s][i])
				}
			}
		}
		// Advance the shared closed loop with the (identical) move.
		// outC.U is scratch-backed and overwritten by cached's next Step,
		// so copy it into the test-owned buffer.
		u = append(u[:0], outC.U...)
		state, err = model.Step(state, u, servers)
		if err != nil {
			t.Fatalf("model.Step: %v", err)
		}
	}
	// The flip exercised reuse, not just rebuilds.
	if cached.cache == nil || cached.cache.model != m7 {
		t.Fatalf("cached MPC did not end holding the 7H condensed cache")
	}
	if uncached.cache != nil {
		t.Fatalf("nocache MPC retained a cache")
	}
}

// TestWarmStartInvalidatedOnModelChange pins the staleness fix: a plan from
// the previous price hour must not seed the first solve against a rebuilt
// model.
func TestWarmStartInvalidatedOnModelChange(t *testing.T) {
	top := idc.PaperTopology()
	m6 := newFlipTestModel(t, testPrices6H, 30)
	m7 := newFlipTestModel(t, testPrices7H, 30)
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	u, _ := feasibleStart(t, testPrices6H)
	refPower, err := m6.PowerRates(u, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	if _, err := mpc.Step(StepInput{
		Model: m6, State: make([]float64, top.N()+1), PrevU: u,
		Servers: servers, Demands: workload.TableI(), RefPower: refPower,
	}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if mpc.prevZ == nil {
		t.Fatalf("no warm-start plan recorded after a solve")
	}
	if _, err := mpc.condensedFor(m7); err != nil {
		t.Fatalf("condensedFor: %v", err)
	}
	if mpc.prevZ != nil {
		t.Fatalf("warm-start plan survived a model change")
	}
	// A same-model call must keep controller state intact.
	cd, err := mpc.condensedFor(m7)
	if err != nil {
		t.Fatalf("condensedFor: %v", err)
	}
	if cd != mpc.cache {
		t.Fatalf("repeat condensedFor rebuilt instead of reusing the cache")
	}
}

// TestModelVersionsUnique pins the invalidation signal: every construction
// yields a distinct version.
func TestModelVersionsUnique(t *testing.T) {
	a := newFlipTestModel(t, testPrices6H, 30)
	b := newFlipTestModel(t, testPrices6H, 30)
	if a.Version() == b.Version() {
		t.Fatalf("two models share version %d", a.Version())
	}
	c := newTestModel(t, testPrices6H, 30)
	if c.Version() == a.Version() || c.Version() == b.Version() {
		t.Fatalf("NewModel reused a version")
	}
}
