package ctrl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/qp"
	"repro/internal/workload"
)

var (
	testPrices6H = []float64{43.26, 30.26, 19.06}
	testPrices7H = []float64{49.90, 29.47, 77.97}
)

func newTestModel(t *testing.T, prices []float64, ts float64) *Model {
	t.Helper()
	m, err := NewFoldedModel(idc.PaperTopology(), prices, ts)
	if err != nil {
		t.Fatalf("NewFoldedModel: %v", err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	top := idc.PaperTopology()
	if _, err := NewFoldedModel(nil, testPrices6H, 1); !errors.Is(err, ErrBadModel) {
		t.Fatalf("nil topology: %v", err)
	}
	if _, err := NewFoldedModel(top, []float64{1}, 1); !errors.Is(err, ErrBadModel) {
		t.Fatalf("short prices: %v", err)
	}
	if _, err := NewFoldedModel(top, testPrices6H, 0); !errors.Is(err, ErrBadModel) {
		t.Fatalf("ts=0: %v", err)
	}
}

// TestUnrepresentablePriceIsBadModel pins prices too large for the model
// to represent as a model error, not a malformed QP: NewFoldedModel
// rejects those that overflow Φ, G or Γ, and MPC.Step those that leave the
// model finite but overflow the condensed cache (1e297–1e299, whose Ω C̄
// entries are not finite, and 1e300, whose Θ C̄ rows are not finite
// either).
func TestUnrepresentablePriceIsBadModel(t *testing.T) {
	top, err := idc.SyntheticTopology(4, 3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]float64, top.C())
	for i := range demands {
		demands[i] = 5000
	}
	for _, bad := range []float64{1e297, 1e298, 1e299, 1e300, 5e301, 1e302, 1e303, 1e305, math.MaxFloat64} {
		prices := []float64{40, bad, 30}
		model, err := NewFoldedModel(top, prices, 300)
		if bad <= 1e300 && err != nil {
			t.Fatalf("price %g: NewFoldedModel: %v; want a finite model", bad, err)
		}
		if err == nil {
			mpc, merr := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1})
			if merr != nil {
				t.Fatal(merr)
			}
			_, err = mpc.Step(StepInput{
				Model:    model,
				State:    make([]float64, model.StateDim()),
				PrevU:    make([]float64, model.InputDim()),
				Demands:  demands,
				RefPower: make([]float64, top.N()),
			})
		}
		if !errors.Is(err, ErrBadModel) || errors.Is(err, qp.ErrBadProblem) {
			t.Errorf("price %g: err = %v, want ErrBadModel", bad, err)
		}
	}
}

func TestModelMatrixShapes(t *testing.T) {
	m := newTestModel(t, testPrices6H, 30)
	if m.StateDim() != 4 || m.InputDim() != 15 {
		t.Fatalf("dims = %d, %d; want 4, 15", m.StateDim(), m.InputDim())
	}
	for _, p := range []struct {
		name       string
		d          *mat.Dense
		rows, cols int
	}{{"Φ", m.phi, 4, 4}, {"G", m.g, 4, 15}, {"Γ", m.gamma, 4, 3}} {
		if p.d.Rows() != p.rows || p.d.Cols() != p.cols {
			t.Fatalf("%s is %dx%d, want %dx%d", p.name, p.d.Rows(), p.d.Cols(), p.rows, p.cols)
		}
	}
}

func TestModelDiscretizationClosedForm(t *testing.T) {
	// A is nilpotent (A² = 0) so Φ = I + A·Ts and G = B·Ts + A·B·Ts²/2,
	// Γ = F·Ts + A·F·Ts²/2 exactly. A, B and F are the full block's.
	ts := 30.0
	m := newTestModel(t, testPrices6H, ts)
	fb, err := fullBlockModel(m.Topology(), testPrices6H, ts)
	if err != nil {
		t.Fatal(err)
	}
	wantPhi, _ := mat.Add(mat.Identity(4), mat.Scale(ts, fb.a))
	if !mat.Equalish(m.phi, wantPhi, 1e-8) {
		t.Fatalf("Φ mismatch:\n%v\nwant\n%v", m.phi, wantPhi)
	}
	ab, _ := mat.Mul(fb.a, fb.b)
	wantG, _ := mat.Add(mat.Scale(ts, fb.b), mat.Scale(ts*ts/2, ab))
	if !mat.Equalish(m.g, wantG, 1e-5) {
		t.Fatal("G mismatch with closed form")
	}
	af, _ := mat.Mul(fb.a, fb.f)
	wantGam, _ := mat.Add(mat.Scale(ts, fb.f), mat.Scale(ts*ts/2, af))
	if !mat.Equalish(m.gamma, wantGam, 1e-5) {
		t.Fatal("Γ mismatch with closed form")
	}
}

// controllabilityRank returns the rank of the controllability matrix
// [B AB … A^N B] of m's continuous-time plant, with A and B from the full
// block. The paper's Workload Loop Controllability Condition holds when
// this equals N+1, which is guaranteed for Pr_j > 0 and b1 > 0.
func controllabilityRank(m *Model) (int, error) {
	fb, err := fullBlockModel(m.Topology(), m.Prices(), m.Ts())
	if err != nil {
		return 0, err
	}
	ns := m.StateDim()
	blocks := make([]*mat.Dense, 0, ns)
	cur := fb.b
	for i := 0; i < ns; i++ {
		blocks = append(blocks, cur)
		next, err := mat.Mul(fb.a, cur)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	cm := mat.Zeros(ns, ns*m.InputDim())
	for i, blk := range blocks {
		cm.SetBlock(0, i*m.InputDim(), blk)
	}
	return mat.Rank(cm, 1e-12)
}

func TestControllability(t *testing.T) {
	// Positive prices and b1 > 0 → completely controllable (paper's
	// Workload Loop Controllability Condition).
	m := newTestModel(t, testPrices6H, 30)
	if r, err := controllabilityRank(m); err != nil || r != m.StateDim() {
		t.Fatalf("rank = %d (err %v), want %d", r, err, m.StateDim())
	}
	// Zero prices break the cost row's reachability.
	m0 := newTestModel(t, []float64{0, 0, 0}, 30)
	if r, err := controllabilityRank(m0); err == nil && r == m0.StateDim() {
		t.Fatal("zero-price system reported controllable")
	}
}

func TestModelStepIntegratesEnergy(t *testing.T) {
	ts := 10.0
	m := newTestModel(t, testPrices6H, ts)
	top := m.Topology()
	// Constant allocation: 1000 req/s from portal 0 to each IDC.
	u := make([]float64, m.InputDim())
	for j := 0; j < top.N(); j++ {
		u[top.Index(0, j)] = 1000
	}
	servers := []int{1000, 1000, 1000}
	x := make([]float64, m.StateDim())
	var err error
	for k := 0; k < 6; k++ { // one minute
		x, err = m.Step(x, u, servers)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	// E_j after 60 s of constant power P_j = b1·1000 + 1000·b0.
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		wantP := d.Power.FleetPower(1000, 1000)
		if got := x[1+j] / 60; math.Abs(got-wantP) > 1e-6*wantP {
			t.Fatalf("idc %d mean power %g, want %g", j, got, wantP)
		}
	}
	// C̄ = Σ Pr_j · ∫E_j: with E linear in t, ∫E dt = P·t²/2.
	var wantC float64
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		wantC += testPrices6H[j] * d.Power.FleetPower(1000, 1000) * 60 * 60 / 2
	}
	if math.Abs(x[0]-wantC) > 1e-6*wantC {
		t.Fatalf("C̄ = %g, want %g", x[0], wantC)
	}
}

func TestModelStepValidation(t *testing.T) {
	m := newTestModel(t, testPrices6H, 10)
	if _, err := m.Step([]float64{1}, make([]float64, 15), []int{1, 1, 1}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("short state: %v", err)
	}
	if _, err := m.Step(make([]float64, 4), []float64{1}, []int{1, 1, 1}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("short input: %v", err)
	}
	if _, err := m.Step(make([]float64, 4), make([]float64, 15), []int{1}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("short servers: %v", err)
	}
	if _, err := m.PowerRates([]float64{1}, []int{1, 1, 1}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("PowerRates short input: %v", err)
	}
	if _, err := m.PowerRates(make([]float64, 15), []int{1}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("PowerRates short servers: %v", err)
	}
}

func TestPowerRates(t *testing.T) {
	m := newTestModel(t, testPrices6H, 10)
	top := m.Topology()
	u := make([]float64, m.InputDim())
	u[top.Index(0, 0)] = 2000
	rates, err := m.PowerRates(u, []int{1500, 0, 0})
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	want := top.IDC(0).Power.FleetPower(1500, 2000)
	if math.Abs(rates[0]-want) > 1e-9 {
		t.Fatalf("rate[0] = %g, want %g", rates[0], want)
	}
	if rates[1] != 0 || rates[2] != 0 {
		t.Fatalf("idle IDCs draw power: %v", rates)
	}
}

func TestNewMPCValidation(t *testing.T) {
	bad := []MPCConfig{
		{PredHorizon: 2, CtrlHorizon: 3}, // β2 > β1
		{PredHorizon: -1},                // negative
		{CostWeight: -1},                 // negative weight
		{CostWeight: 0, PowerWeight: 0, SmoothWeight: 1, PredHorizon: 4, CtrlHorizon: 2}, // no tracking
		// Non-finite weights: NaN passes a "< 0" check.
		{CostWeight: math.NaN(), PowerWeight: 1},
		{CostWeight: math.Inf(1), PowerWeight: 1},
		{PowerWeight: math.NaN()},
		{PowerWeight: math.Inf(1)},
		{PowerWeight: 1, SmoothWeight: math.NaN()},
		{PowerWeight: 1, SmoothWeight: math.Inf(1)},
		{PowerWeight: 1, SmoothWeight: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if _, err := NewMPC(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: %v, want ErrBadConfig", i, err)
		}
	}
	m, err := NewMPC(MPCConfig{PowerWeight: 1})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if c := m.Config(); c.PredHorizon != 8 || c.CtrlHorizon != 3 {
		t.Fatalf("defaults = %+v", c)
	}
}

// feasibleStart returns the price-ordered allocation as (U, servers) so
// tests begin from a realistic operating point.
func feasibleStart(t *testing.T, prices []float64) ([]float64, []int) {
	t.Helper()
	top := idc.PaperTopology()
	// The LP optimum respects the latency reserve, so the eq. (35) server
	// counts below never clamp and the start point satisfies the MPC caps.
	res, err := alloc.Optimize(top, prices, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	per := res.Allocation.PerIDC()
	servers := make([]int, top.N())
	for j := range servers {
		m, err := top.IDC(j).MinServersFor(per[j])
		if err != nil {
			t.Fatalf("MinServersFor: %v", err)
		}
		servers[j] = m
	}
	return res.Allocation.Vector(), servers
}

func TestMPCStepHoldsAtReference(t *testing.T) {
	// Start at the optimal allocation with references equal to current
	// powers: the controller should stay put (ΔU ≈ 0).
	model := newTestModel(t, testPrices6H, 30)
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	out, err := mpc.Step(StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Demands:  workload.TableI(),
		RefPower: refPower,
	})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	perStep := mat.NormInfVec(out.DeltaU)
	total := mat.NormInfVec(u0)
	if perStep > 0.01*total {
		t.Fatalf("ΔU norm %g vs allocation scale %g; want ≈ 0", perStep, total)
	}
}

func TestMPCStepMovesTowardNewReference(t *testing.T) {
	// Reference = 7H optimal powers while sitting at the 6H allocation:
	// the first move must head toward the new reference at every IDC.
	model := newTestModel(t, testPrices7H, 30)
	top := model.Topology()
	u6, servers6 := feasibleStart(t, testPrices6H)
	u7, servers7 := feasibleStart(t, testPrices7H)
	refPower, err := model.PowerRates(u7, servers7)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-5})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	out, err := mpc.Step(StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u6,
		Demands:  workload.TableI(),
		RefPower: refPower,
	})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	before, _ := model.PowerRates(u6, servers6)
	servers, err := effectiveServers(model, out.U)
	if err != nil {
		t.Fatalf("effectiveServers: %v", err)
	}
	after, err := model.PowerRates(out.U, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	var improved bool
	for j := range refPower {
		d0 := math.Abs(before[j] - refPower[j])
		d1 := math.Abs(after[j] - refPower[j])
		// Tolerance relative to the multi-MW power scale: conservation
		// coupling wiggles already-converged IDCs by a few hundred watts
		// while load moves between the others, and the folded model's
		// power is the plant's to within one server's idle draw.
		if d1 > d0+1e-4*(refPower[j]+1)+top.IDC(j).Power.B0 {
			t.Fatalf("idc %d moved away from reference: |err| %g → %g", j, d0, d1)
		}
		if d1 < d0-1 {
			improved = true
		}
	}
	if !improved {
		t.Fatal("no IDC moved toward the new reference")
	}
}

func TestMPCSmoothingWeightSlowsMoves(t *testing.T) {
	// Higher R ⇒ smaller first move toward the same far-away reference.
	model := newTestModel(t, testPrices7H, 30)
	u6, _ := feasibleStart(t, testPrices6H)
	u7, _ := feasibleStart(t, testPrices7H)
	top := model.Topology()
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	refPower, err := model.PowerRates(u7, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	move := func(smooth float64) float64 {
		mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: smooth})
		if err != nil {
			t.Fatalf("NewMPC: %v", err)
		}
		out, err := mpc.Step(StepInput{
			Model:    model,
			State:    make([]float64, model.StateDim()),
			PrevU:    u6,
			Demands:  workload.TableI(),
			RefPower: refPower,
		})
		if err != nil {
			t.Fatalf("Step(smooth=%g): %v", smooth, err)
		}
		return mat.NormVec(out.DeltaU)
	}
	gentle := move(20)
	aggressive := move(1e-4)
	if !(gentle < 0.8*aggressive) {
		t.Fatalf("smoothing did not damp the move: R-heavy %g vs R-light %g", gentle, aggressive)
	}
}

func TestMPCRespectsConstraintsEveryStep(t *testing.T) {
	// Drive a few closed-loop steps and assert conservation, latency caps
	// and nonnegativity hold for every applied U.
	model := newTestModel(t, testPrices7H, 30)
	top := model.Topology()
	u, _ := feasibleStart(t, testPrices6H)
	u7, _ := feasibleStart(t, testPrices7H)
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	refPower, err := model.PowerRates(u7, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	state := make([]float64, model.StateDim())
	demands := workload.TableI()
	for k := 0; k < 10; k++ {
		out, err := mpc.Step(StepInput{
			Model:    model,
			State:    state,
			PrevU:    u,
			Demands:  demands,
			RefPower: refPower,
		})
		if err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
		u = out.U
		a, err := idc.AllocationFromVector(top, u)
		if err != nil {
			t.Fatalf("AllocationFromVector: %v", err)
		}
		per := a.PerPortal()
		for i := range demands {
			if math.Abs(per[i]-demands[i]) > 1e-3 {
				t.Fatalf("step %d portal %d: served %g, want %g", k, i, per[i], demands[i])
			}
		}
		perIDC := a.PerIDC()
		for j := 0; j < top.N(); j++ {
			d := top.IDC(j)
			capj := float64(servers[j])*d.ServiceRate - 1/d.DelayBound
			if perIDC[j] > capj+1e-3 {
				t.Fatalf("step %d idc %d: load %g exceeds cap %g", k, j, perIDC[j], capj)
			}
		}
		for _, v := range u {
			if v < -1e-6 {
				t.Fatalf("step %d: negative allocation %g", k, v)
			}
		}
		state, err = model.Step(state, u, servers)
		if err != nil {
			t.Fatalf("model.Step: %v", err)
		}
	}
}

func TestMPCConvergesToReference(t *testing.T) {
	// Closed loop from 6H allocation toward 7H reference: per-IDC power
	// must approach the reference monotonically-ish and land close.
	model := newTestModel(t, testPrices7H, 30)
	top := model.Topology()
	u, _ := feasibleStart(t, testPrices6H)
	u7, servers7 := feasibleStart(t, testPrices7H)
	refPower, err := model.PowerRates(u7, servers7)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	state := make([]float64, model.StateDim())
	for k := 0; k < 40; k++ {
		out, err := mpc.Step(StepInput{
			Model:    model,
			State:    state,
			PrevU:    u,
			Demands:  workload.TableI(),
			RefPower: refPower,
		})
		if err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
		u = out.U
		servers, err := effectiveServers(model, u)
		if err != nil {
			t.Fatalf("effectiveServers: %v", err)
		}
		if state, err = model.Step(state, u, servers); err != nil {
			t.Fatalf("model.Step: %v", err)
		}
	}
	servers, err := effectiveServers(model, u)
	if err != nil {
		t.Fatalf("effectiveServers: %v", err)
	}
	got, err := model.PowerRates(u, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	for j := range refPower {
		// The folded model's power is the plant's to within one server's
		// idle draw.
		diff := math.Abs(got[j] - refPower[j])
		if diff > 0.05*(refPower[j]+1)+top.IDC(j).Power.B0 {
			t.Fatalf("idc %d power %g did not converge to %g (diff %g)", j, got[j], refPower[j], diff)
		}
	}
}

func TestMPCInfeasibleDemand(t *testing.T) {
	model := newTestModel(t, testPrices6H, 30)
	u0 := make([]float64, model.InputDim())
	demands := []float64{1e6, 0, 0, 0, 0} // beyond total capacity
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	_, err = mpc.Step(StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Demands:  demands,
		RefPower: []float64{1e6, 1e6, 1e6},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Step = %v, want ErrInfeasible", err)
	}
}

func TestMPCStepInputValidation(t *testing.T) {
	model := newTestModel(t, testPrices6H, 30)
	mpc, _ := NewMPC(MPCConfig{PowerWeight: 1})
	base := StepInput{
		Model:    model,
		State:    make([]float64, 4),
		PrevU:    make([]float64, 15),
		Demands:  make([]float64, 5),
		RefPower: make([]float64, 3),
	}
	// traj is a full-horizon trajectory of zero references.
	traj := func() [][]float64 {
		tr := make([][]float64, mpc.Config().PredHorizon)
		for s := range tr {
			tr[s] = make([]float64, 3)
		}
		return tr
	}
	// set returns a copy of xs with entry i set to v.
	set := func(xs []float64, i int, v float64) []float64 {
		xs = append([]float64(nil), xs...)
		xs[i] = v
		return xs
	}
	mutations := map[string]func(*StepInput){
		"nil model":     func(s *StepInput) { s.Model = nil },
		"short state":   func(s *StepInput) { s.State = []float64{1} },
		"short prevU":   func(s *StepInput) { s.PrevU = []float64{1} },
		"short demands": func(s *StepInput) { s.Demands = []float64{1} },
		"short refs":    func(s *StepInput) { s.RefPower = []float64{1} },
		"short trajectory entry": func(s *StepInput) {
			s.RefPowerTraj = traj()
			s.RefPowerTraj[2] = []float64{1}
		},
		"NaN state":       func(s *StepInput) { s.State = set(s.State, 1, math.NaN()) },
		"Inf prevU":       func(s *StepInput) { s.PrevU = set(s.PrevU, 4, math.Inf(1)) },
		"NaN demand":      func(s *StepInput) { s.Demands = set(s.Demands, 2, math.NaN()) },
		"negative demand": func(s *StepInput) { s.Demands = set(s.Demands, 0, -1) },
		"Inf ref":         func(s *StepInput) { s.RefPower = set(s.RefPower, 2, math.Inf(-1)) },
		"NaN trajectory": func(s *StepInput) {
			s.RefPowerTraj = traj()
			s.RefPowerTraj[5][1] = math.NaN()
		},
	}
	for name, mutate := range mutations {
		in := base
		mutate(&in)
		if _, err := mpc.Step(in); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestMPCReferenceTrajectory(t *testing.T) {
	// A trajectory that climbs toward the target should produce a smaller
	// first move than jumping straight to the final reference — the
	// controller sees it does not need to be there yet.
	model := newTestModel(t, testPrices7H, 30)
	u6, _ := feasibleStart(t, testPrices6H)
	u7, _ := feasibleStart(t, testPrices7H)
	top := model.Topology()
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	start, err := model.PowerRates(u6, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	target, err := model.PowerRates(u7, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	base := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u6,
		Demands:  workload.TableI(),
		RefPower: target,
	}
	flat, err := mpc.Step(base)
	if err != nil {
		t.Fatalf("Step flat: %v", err)
	}
	// StepOutput slices are scratch-backed; copy before the next Step.
	flatDeltaU := append([]float64(nil), flat.DeltaU...)
	// Gradual trajectory: linear interpolation over the horizon.
	h := mpc.Config().PredHorizon
	traj := make([][]float64, h)
	for s := 0; s < h; s++ {
		frac := float64(s+1) / float64(h)
		row := make([]float64, top.N())
		for j := range row {
			row[j] = start[j] + frac*(target[j]-start[j])
		}
		traj[s] = row
	}
	in := base
	in.RefPowerTraj = traj
	gradual, err := mpc.Step(in)
	if err != nil {
		t.Fatalf("Step trajectory: %v", err)
	}
	if !(mat.NormVec(gradual.DeltaU) < 0.8*mat.NormVec(flatDeltaU)) {
		t.Fatalf("trajectory first move %g not smaller than flat %g",
			mat.NormVec(gradual.DeltaU), mat.NormVec(flatDeltaU))
	}
}

func TestMPCTrajectoryShorterThanHorizonHeld(t *testing.T) {
	model := newTestModel(t, testPrices7H, 30)
	u6, _ := feasibleStart(t, testPrices6H)
	top := model.Topology()
	servers := make([]int, top.N())
	for j := range servers {
		servers[j] = top.IDC(j).TotalServers
	}
	ref, err := model.PowerRates(u6, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 1e-4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	// One-entry trajectory = constant reference; result must match the
	// RefPower path closely.
	a, err := mpc.Step(StepInput{
		Model: model, State: make([]float64, 4), PrevU: u6,
		Demands: workload.TableI(), RefPower: ref,
	})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	// StepOutput slices are scratch-backed; copy before the next Step.
	aU := append([]float64(nil), a.U...)
	b, err := mpc.Step(StepInput{
		Model: model, State: make([]float64, 4), PrevU: u6,
		Demands: workload.TableI(), RefPower: ref,
		RefPowerTraj: [][]float64{ref},
	})
	if err != nil {
		t.Fatalf("Step traj: %v", err)
	}
	if mat.NormInfVec(mat.SubVec(aU, b.U)) > 1e-6*(1+mat.NormInfVec(aU)) {
		t.Fatal("single-entry trajectory diverges from constant reference")
	}
}

// standby returns the folded model's constant disturbance
// V̄_j = 1/(µ_j·D_j).
func standby(top *idc.Topology) []float64 {
	v := make([]float64, top.N())
	for j := range v {
		d := top.IDC(j)
		v[j] = 1 / (d.ServiceRate * d.DelayBound)
	}
	return v
}

// predictedStates returns X(k+s|k) for s = 1…β1 under the moves m's last
// Step planned (m.prevZ), from m's condensed cache; in is that Step's
// input, with in.PrevU not yet overwritten. Each state sums the free
// response (Φ^s·X + Ξ_s·U(k−1)) + cumPhi[s−1]·Γ·V̄, then adds the block
// of Θz, in that order.
func predictedStates(t *testing.T, m *MPC, in StepInput) [][]float64 {
	t.Helper()
	cd, model := m.cache, in.Model
	if cd == nil || cd.model != model {
		t.Fatal("predictedStates: the MPC holds no cache for the step's model")
	}
	ns := model.StateDim()
	mul := func(a *mat.Dense, x []float64) []float64 {
		y, err := mat.MulVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	gamV := mul(model.gamma, standby(model.Topology()))
	thz := mul(cd.theta, m.prevZ)
	preds := make([][]float64, m.cfg.PredHorizon)
	for s := 1; s <= len(preds); s++ {
		free := mul(cd.phiPow[s], in.State)
		xiU := mul(cd.cumG[s-1], in.PrevU)
		omega := mul(cd.cumPhi[s-1], gamV)
		x := make([]float64, ns)
		for i := range x {
			x[i] = free[i] + xiU[i] + omega[i]
			x[i] += thz[(s-1)*ns+i]
		}
		preds[s-1] = x
	}
	return preds
}

// TestPredictedStatesMatchPlantPropagation validates the condensed
// prediction matrices: X(k+s|k) from the condensed cache under the moves
// the MPC planned must equal propagating X ← Φ·X + G·U + Γ·V̄ step by step
// with the planned inputs. This pins down the Θ/Ξ/Ω construction against
// an independent computation.
func TestPredictedStatesMatchPlantPropagation(t *testing.T) {
	model := newTestModel(t, testPrices7H, 30)
	u6, _ := feasibleStart(t, testPrices6H)
	u7, servers7 := feasibleStart(t, testPrices7H)
	refPower, err := model.PowerRates(u7, servers7)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 2, PredHorizon: 5, CtrlHorizon: 2})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	in := StepInput{
		Model:    model,
		State:    []float64{1e9, 2e8, 3e8, 4e8}, // arbitrary nonzero start
		PrevU:    u6,
		Demands:  workload.TableI(),
		RefPower: refPower,
	}
	out, err := mpc.Step(in)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	preds := predictedStates(t, mpc, in)
	if len(preds) != 5 {
		t.Fatalf("predicted %d steps, want β1=5", len(preds))
	}
	// The plant runs U(k) = out.U, then U(k+s) = U(k+s−1) + ΔU(k+s|k)
	// within the control horizon and the last U after it.
	nu := model.InputDim()
	gamV, err := mat.MulVec(model.gamma, standby(model.Topology()))
	if err != nil {
		t.Fatal(err)
	}
	x, u := in.State, append([]float64(nil), out.U...)
	for s, got := range preds {
		if s > 0 && s < mpc.cfg.CtrlHorizon {
			mat.AddVecInto(u, u, mpc.prevZ[s*nu:(s+1)*nu])
		}
		px, err := mat.MulVec(model.phi, x)
		if err != nil {
			t.Fatal(err)
		}
		gu, err := mat.MulVec(model.g, u)
		if err != nil {
			t.Fatal(err)
		}
		x = mat.AddVec(mat.AddVec(px, gu), gamV)
		for i := range x {
			scale := math.Abs(x[i]) + 1
			if math.Abs(got[i]-x[i])/scale > 1e-9 {
				t.Fatalf("predicted X(k+%d)[%d] = %g, plant gives %g", s+1, i, got[i], x[i])
			}
		}
	}
}

// TestFoldedModelMatchesPlantWithSleepLaw: the folded model's power
// prediction (b1+b0/µ)λ + b0/(µD) must match the true plant evaluated with
// the continuous eq. (35) server count (up to the integer ceil quantum).
func TestFoldedModelMatchesPlantWithSleepLaw(t *testing.T) {
	top := idc.PaperTopology()
	const ts = 30.0
	folded := newTestModel(t, testPrices6H, ts)
	loads := []float64{20000, 30000, 15000}
	// Folded prediction: Ė = B·u + Γ-term. A's energy rows are zero, so G's
	// energy rows are B's times Ts: read the gain off G.
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		eff := folded.g.At(1+j, top.Index(0, j)) / ts
		wantEff := d.Power.B1 + d.Power.B0/d.ServiceRate
		if math.Abs(eff-wantEff) > 1e-12*wantEff {
			t.Fatalf("idc %d folded gain %g, want %g", j, eff, wantEff)
		}
		predicted := eff*loads[j] + d.Power.B0/(d.ServiceRate*d.DelayBound)
		// True plant with the integer eq. (35) servers.
		m, err := d.MinServersFor(loads[j])
		if err != nil {
			t.Fatalf("MinServersFor: %v", err)
		}
		actual := d.Power.FleetPower(m, loads[j])
		// The ceil adds at most one server's idle draw.
		if diff := math.Abs(predicted - actual); diff > d.Power.B0+1e-9 {
			t.Fatalf("idc %d: folded %g vs plant %g (diff %g)", j, predicted, actual, diff)
		}
	}
}
