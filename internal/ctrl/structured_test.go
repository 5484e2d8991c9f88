package ctrl

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/idc"
	"repro/internal/qp"
)

// structuredTestMPC builds a controller and step input over a topology large
// enough (nu·β2 ≥ qp.StructuredMinVars) that the default configuration
// selects the structured solver path.
func structuredTestMPC(t *testing.T, forceDense bool) (*MPC, StepInput) {
	t.Helper()
	// The smallest topology/horizon pair that crosses StructuredMinVars
	// (8·8 inputs × β2 = 4 → 256 vars): the cold first solve costs
	// O(iterations · k²n) and grows fast with nu, so staying at the
	// threshold keeps the dense reference side affordable.
	const c, n = 8, 8
	top, err := idc.SyntheticTopology(c, n, 20000)
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, n)
	for j := range prices {
		prices[j] = 20 + float64(j*7%40)
	}
	model, err := NewFoldedModel(top, prices, 30)
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]float64, c)
	for i := range demands {
		demands[i] = 8000
	}
	ref, err := alloc.Optimize(top, prices, demands)
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := NewMPC(MPCConfig{
		PowerWeight: 1, SmoothWeight: 4,
		PredHorizon: 6, CtrlHorizon: 4,
		ForceDense: forceDense,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nu := model.InputDim() * mpc.cfg.CtrlHorizon; nu < qp.StructuredMinVars {
		t.Fatalf("topology too small to exercise the structured path: %d vars < %d", nu, qp.StructuredMinVars)
	}
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    ref.Allocation.Vector(),
		Demands:  demands,
		RefPower: ref.PowerWatts,
	}
	return mpc, in
}

// TestMPCStructuredMatchesDense pins the structured solver path against the
// dense one across a short closed-loop run with varying demands: same
// constraints, same warm starts, solutions equal to solver tolerance. The
// structured path changes the linear algebra (Woodbury through the
// capacitance matrix instead of a materialized Hessian), not the problem,
// so disagreement beyond round-off is a solver bug.
func TestMPCStructuredMatchesDense(t *testing.T) {
	ms, ins := structuredTestMPC(t, false)
	md, ind := structuredTestMPC(t, true)

	baseRef := append([]float64(nil), ins.RefPower...)
	for step := 0; step < 4; step++ {
		// Vary the power reference so later steps re-solve a genuinely
		// different problem (different residual d, hence different H⁻¹
		// applications) while the constraints — and with them the shifted-plan
		// warm start — stay feasible. Perturbing the demands instead would
		// invalidate the equality RHS every step and drive both paths through
		// hundreds of cold active-set iterations, slowing the test ~100×
		// without covering any additional code.
		for j := range baseRef {
			bump := 1 + 0.02*float64(step)*math.Sin(float64(step*5+j))
			ins.RefPower[j] = baseRef[j] * bump
			ind.RefPower[j] = baseRef[j] * bump
		}
		outS, err := ms.Step(ins)
		if err != nil {
			t.Fatalf("structured step %d: %v", step, err)
		}
		outD, err := md.Step(ind)
		if err != nil {
			t.Fatalf("dense step %d: %v", step, err)
		}
		var maxU float64
		for _, v := range outD.U {
			if a := math.Abs(v); a > maxU {
				maxU = a
			}
		}
		tol := 1e-6 * (1 + maxU)
		for i := range outD.U {
			if d := math.Abs(outS.U[i] - outD.U[i]); d > tol {
				t.Fatalf("step %d: U[%d] structured %g dense %g (|Δ|=%g > %g)",
					step, i, outS.U[i], outD.U[i], d, tol)
			}
		}
		// Feed each controller its own move back (copies: outputs alias scratch).
		ins.PrevU = append([]float64(nil), outS.U...)
		ind.PrevU = append([]float64(nil), outD.U...)
	}

	// The dispatch actually diverged: the structured form never materializes
	// the Hessian, the ForceDense one must.
	if ms.cache.form.Hessian() != nil {
		t.Fatal("structured controller did not take the structured path")
	}
	if md.cache.form.Hessian() == nil {
		t.Fatal("ForceDense controller took the structured path")
	}
}

// TestMPCSmallTopologyStaysDense pins the dispatch threshold: the paper-scale
// checksummed topologies must keep the legacy dense path (bit-identity of
// recorded benchmark series depends on it).
func TestMPCSmallTopologyStaysDense(t *testing.T) {
	top, err := idc.SyntheticTopology(5, 3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	prices := []float64{20, 27, 34}
	model, err := NewFoldedModel(top, prices, 30)
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 4, PredHorizon: 6, CtrlHorizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := newCondensed(model, mpc.cfg, newConstraints(top, mpc.cfg.CtrlHorizon), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd.form.Hessian() == nil {
		t.Fatal("small topology took the structured path")
	}
}
