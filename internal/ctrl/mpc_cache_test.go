package ctrl

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/workload"
)

// TestCondensedCacheBitIdentical drives a cached and an uncached MPC in
// lockstep through a closed loop that crosses both kinds of invalidation
// the controller sees in production: a same-price slow-tick rebuild (new
// Model pointer, identical matrices) and the 6H→7H price flip. The
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
	// model, a same-price rebuild at step 10 (a new pointer), the price
	// flip to 7H at step 20.
	m6 := newTestModel(t, testPrices6H, ts)
	m6b := newTestModel(t, testPrices6H, ts)
	m7 := newTestModel(t, testPrices7H, ts)
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

// sameStepBits reports the first output of a that differs from b's bits,
// or "" when DeltaU and U both match bit for bit.
func sameStepBits(a, b *StepOutput) string {
	switch {
	case !mat.SameBits(a.DeltaU, b.DeltaU):
		return "DeltaU"
	case !mat.SameBits(a.U, b.U):
		return "U"
	}
	return ""
}

// sameDenseBits reports whether a and b have one shape and the same bits.
func sameDenseBits(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !mat.SameBits(a.RowView(i), b.RowView(i)) {
			return false
		}
	}
	return true
}

// TestPriceSwapsCarryWorkspace drives a cached and an uncached MPC in
// lockstep through a model swap on every step, each step at new prices
// drawn from 0–200 $/MWh (the volatile-shave bench workload's setting),
// with one IDC's price exactly 0 on some steps and the previous vector
// repeated once. The outputs must match bit for bit. With CostWeight 0,
// prices reach only Θ's zero-weight C̄ rows, so every swap carries the
// Hessian and the workspace, and H is factored once in all; with
// CostWeight 1 they reach the Hessian, and only the repeated vector, whose
// Θ repeats bit for bit, carries. Every swap's Hessian, shared or not,
// must equal a fresh lowering of the new cache bit for bit.
func TestPriceSwapsCarryWorkspace(t *testing.T) {
	top := idc.PaperTopology()
	const ts, steps, repeatAt = 300.0, 36, 20
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	rng := rand.New(rand.NewSource(23))
	prices := make([][]float64, steps)
	for k := range prices {
		prices[k] = make([]float64, top.N())
		for j := range prices[k] {
			prices[k][j] = 200 * rng.Float64()
		}
		if k%7 == 3 {
			prices[k][k%top.N()] = 0
		}
	}
	prices[repeatAt] = append([]float64(nil), prices[repeatAt-1]...)
	demandAt := func(k int) []float64 {
		d := workload.TableI()
		for i := range d {
			d[i] *= 0.95 + 0.05*math.Sin(0.5*float64(k)+float64(i))
		}
		return d
	}

	for _, run := range []struct {
		costWeight float64
		// carryAll: every swap keeps the workspace, not just the repeat.
		carryAll bool
	}{{0, true}, {1, false}} {
		costWeight := run.costWeight
		cfg := MPCConfig{CostWeight: costWeight, PowerWeight: 1, SmoothWeight: 6}
		cached, err := NewMPC(cfg)
		if err != nil {
			t.Fatalf("NewMPC: %v", err)
		}
		uncached, err := NewMPC(cfg)
		if err != nil {
			t.Fatalf("NewMPC: %v", err)
		}
		uncached.nocache = true
		factorizations := obs.NewRegistry().Counter("qp_factorizations_total", "")
		cached.SetInstruments(Instruments{QP: qp.Instruments{Factorizations: factorizations}})

		u, _ := feasibleStart(t, prices[0])
		state := make([]float64, top.N()+1)
		var prevWS *qp.Workspace
		wantFactorizations := uint64(0)
		for k := 0; k < steps; k++ {
			model := newTestModel(t, prices[k], ts)
			ref, err := alloc.Optimize(top, prices[k], demandAt(k))
			if err != nil {
				t.Fatalf("step %d: Optimize: %v", k, err)
			}
			in := StepInput{
				Model:    model,
				State:    state,
				PrevU:    u,
				Demands:  demandAt(k),
				RefPower: ref.PowerWatts,
			}
			outC, err := cached.Step(in)
			if err != nil {
				t.Fatalf("CostWeight %g step %d: cached Step: %v", costWeight, k, err)
			}
			outU, err := uncached.Step(in)
			if err != nil {
				t.Fatalf("CostWeight %g step %d: uncached Step: %v", costWeight, k, err)
			}
			if what := sameStepBits(outC, outU); what != "" {
				t.Fatalf("CostWeight %g step %d: cached %s differs from uncached", costWeight, k, what)
			}

			cd := cached.cache
			fresh, err := qp.NewLSForm(cd.theta, cd.wq, cd.wr)
			if err != nil {
				t.Fatalf("NewLSForm: %v", err)
			}
			if !sameDenseBits(cd.form.Hessian(), fresh.Hessian()) {
				t.Fatalf("CostWeight %g step %d: the cache's Hessian differs from a fresh lowering", costWeight, k)
			}
			wantCarry := k > 0 && (run.carryAll || k == repeatAt)
			if carried := cd.ws == prevWS; carried != wantCarry {
				t.Fatalf("CostWeight %g step %d: workspace carried = %v, want %v", costWeight, k, carried, wantCarry)
			}
			if !wantCarry {
				wantFactorizations++
			}
			prevWS = cd.ws

			// The MPC outputs alias its scratch: copy what the loop keeps.
			u = append(u[:0], outC.U...)
			if state, err = model.Step(state, u, servers); err != nil {
				t.Fatalf("model.Step: %v", err)
			}
		}
		if got := factorizations.Value(); got != wantFactorizations {
			t.Errorf("CostWeight %g: %d factorizations of H, want %d", costWeight, got, wantFactorizations)
		}
	}
}

// FuzzPriceSwapMatchesUncached checks the Hessian and workspace carry
// against the uncached MPC over fuzzed price-only swaps: a synthetic
// topology with C ≤ 4 and N ≤ 3, β1 ≤ 6, β2 ≤ 3, CostWeight 0 or a fuzzed
// finite value, and 4–12 steps, each on a new model whose prices are
// fuzzed float64s (negative, zero, huge or repeating the previous step's
// vector) and with demands inside capacity. A step whose prices are too
// large for NewFoldedModel to represent is skipped. The cached and the
// uncached MPC must agree bit for bit on DeltaU and U, and on the error
// when a step fails. The checked-in seeds, one per weight
// mode, repeat a vector and set prices to 0 and below 0.
func FuzzPriceSwapMatchesUncached(f *testing.F) {
	f.Fuzz(func(t *testing.T, c, n, b1, b2, steps, smooth uint8, weighted bool, costWeight float64,
		demand, priceBits []byte) {
		nc, nn := 1+int(c%4), 1+int(n%3)
		cfg := MPCConfig{
			PredHorizon:  1 + int(b1%6),
			PowerWeight:  1,
			SmoothWeight: float64(smooth % 10),
		}
		cfg.CtrlHorizon = 1 + int(b2)%min(3, cfg.PredHorizon)
		if weighted {
			cfg.CostWeight = math.Abs(costWeight)
		}
		if math.IsNaN(cfg.CostWeight) || math.IsInf(cfg.CostWeight, 0) {
			t.Skip("CostWeight not finite")
		}
		top, err := idc.SyntheticTopology(nc, nn, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var capacity float64
		for _, v := range top.Capacities() {
			capacity += v
		}
		demands := make([]float64, nc)
		for i := range demands {
			var b byte
			if i < len(demand) {
				b = demand[i]
			}
			demands[i] = 0.9 * capacity / float64(nc) * float64(b) / 255
		}
		servers := make([]int, nn)
		for j := range servers {
			servers[j] = top.IDC(j).TotalServers
		}

		cached, err := NewMPC(cfg)
		if err != nil {
			t.Fatalf("NewMPC: %v", err)
		}
		uncached, err := NewMPC(cfg)
		if err != nil {
			t.Fatalf("NewMPC: %v", err)
		}
		uncached.nocache = true

		// priceBits holds, per step, a byte whose low bit repeats the
		// previous vector, then N little-endian float64s; missing bytes read
		// as 0 and a non-finite value as 0.
		next := func(k int) byte {
			if k < len(priceBits) {
				return priceBits[k]
			}
			return 0
		}
		pos := 0
		prices := make([]float64, nn)
		state := make([]float64, nn+1)
		u := make([]float64, top.NU())
		for k := 0; k < 4+int(steps%9); k++ {
			ctl := next(pos)
			pos++
			if k == 0 || ctl&1 == 0 {
				for j := range prices {
					var raw [8]byte
					for i := range raw {
						raw[i] = next(pos)
						pos++
					}
					p := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
					if math.IsNaN(p) || math.IsInf(p, 0) {
						p = 0
					}
					prices[j] = p
				}
			}
			model, err := NewFoldedModel(top, prices, 300)
			if errors.Is(err, ErrBadModel) {
				continue
			}
			if err != nil {
				t.Fatalf("NewFoldedModel(%v): %v", prices, err)
			}
			ref, err := model.PowerRates(u, servers)
			if err != nil {
				t.Fatal(err)
			}
			in := StepInput{
				Model: model, State: state, PrevU: u,
				Demands: demands, RefPower: ref,
			}
			outC, errC := cached.Step(in)
			outU, errU := uncached.Step(in)
			if (errC == nil) != (errU == nil) || (errC != nil && errC.Error() != errU.Error()) {
				t.Fatalf("step %d at prices %v: cached err %v, uncached err %v", k, prices, errC, errU)
			}
			if errC != nil {
				continue
			}
			if what := sameStepBits(outC, outU); what != "" {
				t.Fatalf("step %d at prices %v: cached %s differs from uncached", k, prices, what)
			}
			u = append(u[:0], outC.U...)
			if state, err = model.Step(state, u, servers); err != nil {
				t.Fatal(err)
			}
			if !finite(state) {
				clear(state)
			}
		}
	})
}

// finite reports whether every entry of xs is finite.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestWarmStartInvalidatedOnModelChange pins the staleness fix: a plan from
// the previous price hour must not seed the first solve against a rebuilt
// model. Every build is a new identity, so a second build at the same
// prices drops the plan and rebuilds the cache as well.
func TestWarmStartInvalidatedOnModelChange(t *testing.T) {
	top := idc.PaperTopology()
	m6 := newTestModel(t, testPrices6H, 30)
	m7 := newTestModel(t, testPrices7H, 30)
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
	step := func(model *Model) {
		t.Helper()
		if _, err := mpc.Step(StepInput{
			Model: model, State: make([]float64, top.N()+1), PrevU: u,
			Demands: workload.TableI(), RefPower: refPower,
		}); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if mpc.prevZ == nil {
			t.Fatalf("no warm-start plan recorded after a solve")
		}
	}
	step(m6)
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
	step(m7)
	m7b := newTestModel(t, testPrices7H, 30)
	rebuilt, err := mpc.condensedFor(m7b)
	if err != nil {
		t.Fatalf("condensedFor: %v", err)
	}
	if mpc.prevZ != nil {
		t.Fatalf("warm-start plan survived a second build at the same prices")
	}
	if rebuilt == cd || rebuilt.model != m7b {
		t.Fatalf("a second build at the same prices reused the first build's cache")
	}
}
