package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ctrl"
	"repro/internal/idc"
	"repro/internal/price"
	"repro/internal/workload"
)

// flipModel serves 6H prices for hour 6 and 7H prices for hour 7+,
// mirroring the paper's §V scenario without the full embedded trace.
type flipModel struct{}

func (flipModel) Price(r price.Region, h int, _ float64) (float64, error) {
	t6 := map[price.Region]float64{price.Michigan: 43.26, price.Minnesota: 30.26, price.Wisconsin: 19.06}
	t7 := map[price.Region]float64{price.Michigan: 49.90, price.Minnesota: 29.47, price.Wisconsin: 77.97}
	src := t6
	if h >= 7 {
		src = t7
	}
	p, ok := src[r]
	if !ok {
		return 0, price.ErrUnknownRegion
	}
	return p, nil
}

func baseConfig() Config {
	return Config{
		Topology: idc.PaperTopology(),
		Prices:   flipModel{},
		Ts:       30,
		MPC:      ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 2},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Prices: flipModel{}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil topology: %v", err)
	}
	if _, err := New(Config{Topology: idc.PaperTopology()}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil prices: %v", err)
	}
	cfg := baseConfig()
	cfg.Ts = -1
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative ts: %v", err)
	}
	cfg = baseConfig()
	cfg.Budgets = []float64{1}
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short budgets: %v", err)
	}
	cfg = baseConfig()
	cfg.Budgets = []float64{-1, 0, 0}
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative budget: %v", err)
	}
}

func TestStepValidation(t *testing.T) {
	c, err := New(baseConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Step([]float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short demands: %v", err)
	}
	if _, err := c.Step([]float64{-1, 0, 0, 0, 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative demand: %v", err)
	}
	if _, err := c.Step([]float64{1e6, 0, 0, 0, 0}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible demand: %v", err)
	}
}

// TestNonFiniteInputsRejected pins the controller boundary: a NaN or
// infinite Ts, budget or demand is ErrBadConfig, the error a negative value
// gets. A NaN demand is not ErrInfeasible, and a rejected budget never
// reaches the next slow tick.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	newWith := func(mutate func(*Config)) func(*testing.T) error {
		return func(*testing.T) error {
			cfg := baseConfig()
			mutate(&cfg)
			_, err := New(cfg)
			return err
		}
	}
	setBudgets := func(budgets []float64) func(*testing.T) error {
		return func(t *testing.T) error {
			c, err := New(baseConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			err = c.SetBudgets(budgets, false)
			// The rejected budgets must not reach the next slow tick.
			if _, serr := c.Step(workload.TableI()); serr != nil {
				t.Fatalf("Step after rejected budgets: %v", serr)
			}
			return err
		}
	}
	step := func(demands []float64) func(*testing.T) error {
		return func(t *testing.T) error {
			c, err := New(baseConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			_, err = c.Step(demands)
			return err
		}
	}
	cases := map[string]func(*testing.T) error{
		"NaN Ts":          newWith(func(c *Config) { c.Ts = nan }),
		"+Inf Ts":         newWith(func(c *Config) { c.Ts = inf }),
		"NaN budget":      newWith(func(c *Config) { c.Budgets = []float64{nan, 0, 0} }),
		"+Inf budget":     newWith(func(c *Config) { c.Budgets = []float64{0, inf, 0} }),
		"SetBudgets NaN":  setBudgets([]float64{nan, 0, 0}),
		"SetBudgets +Inf": setBudgets([]float64{0, 0, inf}),
		"NaN demand":      step([]float64{nan, 0, 0, 0, 0}),
		"+Inf demand":     step([]float64{inf, 0, 0, 0, 0}),
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(t); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestColdStartAdoptsReference(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tel, err := c.Step(workload.TableI())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	// The applied power must be near the 6H LP reference from step one.
	ref, err := alloc.Optimize(idc.PaperTopology(), tel.Prices, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for j := range tel.PowerWatts {
		rel := math.Abs(tel.PowerWatts[j]-ref.PowerWatts[j]) / ref.PowerWatts[j]
		if rel > 0.02 {
			t.Fatalf("idc %d power %g vs reference %g", j, tel.PowerWatts[j], ref.PowerWatts[j])
		}
	}
	if tel.Hour != 6 {
		t.Fatalf("hour = %d, want 6", tel.Hour)
	}
}

// runScenario drives the paper's 6H→7H flip: warm at hour 6 then cross into
// hour 7, returning the telemetry from every step.
func runScenario(t *testing.T, cfg Config, steps int) []*Telemetry {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	demands := workload.TableI()
	out := make([]*Telemetry, 0, steps)
	for k := 0; k < steps; k++ {
		tel, err := c.Step(demands)
		if err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
		out = append(out, tel)
	}
	return out
}

func TestPriceFlipSmoothing(t *testing.T) {
	// Ts=30 s, SlowEvery=4: hour 6 occupies steps 0..119. Run 20 steps of
	// hour 6 is enough warmup if we re-tick the slow loop frequently; then
	// cross into hour 7 and watch the ramp.
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.Ts = 30
	cfg.SlowEvery = 4
	steps := 160 // 120 at hour 6 + 40 at hour 7
	tels := runScenario(t, cfg, steps)

	// Baseline jumps: per-step |ΔP| of the optimal method at the flip.
	top := idc.PaperTopology()
	opt6, err := alloc.PriceOrdered(top, tels[0].Prices, workload.TableI())
	if err != nil {
		t.Fatalf("PriceOrdered: %v", err)
	}
	opt7, err := alloc.PriceOrdered(top, tels[len(tels)-1].Prices, workload.TableI())
	if err != nil {
		t.Fatalf("PriceOrdered: %v", err)
	}

	for j := 0; j < top.N(); j++ {
		baselineJump := math.Abs(opt7.PowerWatts[j] - opt6.PowerWatts[j])
		if baselineJump < 1e5 {
			continue // this IDC barely moves; no smoothing story to check
		}
		var maxStep float64
		for k := 1; k < len(tels); k++ {
			d := math.Abs(tels[k].PowerWatts[j] - tels[k-1].PowerWatts[j])
			if d > maxStep {
				maxStep = d
			}
		}
		if maxStep > 0.5*baselineJump {
			t.Errorf("idc %d: MPC max per-step ΔP %.3g not ≪ baseline jump %.3g",
				j, maxStep, baselineJump)
		}
	}

	// Terminal power approaches the 7H reference.
	last := tels[len(tels)-1]
	ref7, err := alloc.Optimize(top, last.Prices, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for j := range last.PowerWatts {
		rel := math.Abs(last.PowerWatts[j]-ref7.PowerWatts[j]) / (ref7.PowerWatts[j] + 1)
		if rel > 0.1 {
			t.Errorf("idc %d terminal power %g vs 7H reference %g (rel %.3f)",
				j, last.PowerWatts[j], ref7.PowerWatts[j], rel)
		}
	}
}

func TestPriceFlipConservationAndLatencyInvariants(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	tels := runScenario(t, cfg, 140)
	top := idc.PaperTopology()
	demands := workload.TableI()
	for _, tel := range tels {
		a, err := idc.AllocationFromVector(top, tel.U)
		if err != nil {
			t.Fatalf("AllocationFromVector: %v", err)
		}
		per := a.PerPortal()
		for i := range demands {
			if math.Abs(per[i]-demands[i]) > 1e-2 {
				t.Fatalf("step %d portal %d: served %g, want %g", tel.Step, i, per[i], demands[i])
			}
		}
		perIDC := a.PerIDC()
		for j := 0; j < top.N(); j++ {
			d := top.IDC(j)
			capj := float64(tel.Servers[j])*d.ServiceRate - 1/d.DelayBound
			if perIDC[j] > capj+1e-2 {
				t.Fatalf("step %d idc %d: load %g exceeds latency cap %g", tel.Step, j, perIDC[j], capj)
			}
			if tel.Servers[j] > d.TotalServers {
				t.Fatalf("step %d idc %d: %d servers exceed fleet %d", tel.Step, j, tel.Servers[j], d.TotalServers)
			}
		}
		for _, v := range tel.U {
			if v < 0 {
				t.Fatalf("step %d: negative allocation %g", tel.Step, v)
			}
		}
	}
}

func TestPeakShavingHoldsBudget(t *testing.T) {
	// Budgets from §V.C: 5.13 / 10.26 / 4.275 MW. After the flip the
	// unclamped 7H optimum violates at least one of them; the controller
	// must keep every IDC at or below budget (within one server quantum).
	budgets := []float64{5.13e6, 10.26e6, 4.275e6}
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	cfg.Budgets = budgets
	tels := runScenario(t, cfg, 200)

	top := idc.PaperTopology()
	quantum := make([]float64, top.N())
	for j := range quantum {
		d := top.IDC(j)
		quantum[j] = d.Power.B0 + d.Power.B1*d.ServiceRate // one server's full draw
	}
	// Skip the transition window: budget tracking is asymptotic. Check the
	// final quarter of the run.
	for _, tel := range tels[3*len(tels)/4:] {
		for j, w := range tel.PowerWatts {
			if w > budgets[j]+2*quantum[j] {
				t.Errorf("step %d idc %d: power %.4g exceeds budget %.4g", tel.Step, j, w, budgets[j])
			}
		}
	}

	// The baseline violates: sanity-check the scenario is actually binding.
	opt7, err := alloc.PriceOrdered(top, tels[len(tels)-1].Prices, workload.TableI())
	if err != nil {
		t.Fatalf("PriceOrdered: %v", err)
	}
	var binding bool
	for j := range budgets {
		if opt7.PowerWatts[j] > budgets[j] {
			binding = true
		}
	}
	if !binding {
		t.Fatal("scenario not binding: baseline violates no budget")
	}
}

func TestBudgetsFromTopologyAndOverride(t *testing.T) {
	top := idc.PaperTopology()
	ids := top.IDCs()
	ids[0].BudgetWatts = 123
	top2, err := idc.NewTopology(top.C(), ids)
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	cfg := baseConfig()
	cfg.Topology = top2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Budgets(); got[0] != 123 {
		t.Fatalf("budget[0] = %g, want 123 from topology", got[0])
	}
	cfg.Budgets = []float64{456, 0, 0}
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c2.Budgets(); got[0] != 456 {
		t.Fatalf("budget[0] = %g, want override 456", got[0])
	}
}

func TestCumulativeCostGrows(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	tels := runScenario(t, cfg, 10)
	var prev float64
	for _, tel := range tels {
		if tel.CumulativeCost < prev {
			t.Fatalf("cumulative cost decreased: %g after %g", tel.CumulativeCost, prev)
		}
		if tel.CostRate <= 0 {
			t.Fatalf("cost rate %g, want > 0", tel.CostRate)
		}
		prev = tel.CumulativeCost
	}
	// Rough magnitude: ~19 MW total at ~$30/MWh ≈ $600/h.
	if last := tels[len(tels)-1]; last.CostRate < 100 || last.CostRate > 5000 {
		t.Fatalf("cost rate %g $/h out of plausible range", last.CostRate)
	}
}

func TestForecastingControllerRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.UseForecast = true
	cfg.SlowEvery = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gen, err := workload.NewDiurnal(workload.DiurnalConfig{Base: 15000, NoiseFrac: 0.03, Seed: 2})
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	for k := 0; k < 30; k++ {
		d := gen.Rate(k)
		demands := []float64{d, d / 2, d / 2, d, d}
		if _, err := c.Step(demands); err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
	}
	if c.Allocation() == nil {
		t.Fatal("no allocation after steps")
	}
	if len(c.State()) != 4 {
		t.Fatalf("state dim = %d", len(c.State()))
	}
}

func TestStateAccessorsBeforeStart(t *testing.T) {
	c, err := New(baseConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Allocation() != nil {
		t.Fatal("Allocation before first step should be nil")
	}
	st := c.State()
	for _, v := range st {
		if v != 0 {
			t.Fatal("state not zero before first step")
		}
	}
}

func TestLatencyBoundHeldEveryStep(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	tels := runScenario(t, cfg, 130) // crosses the price flip
	top := cfg.Topology
	for _, tel := range tels {
		for j, l := range tel.LatencySeconds {
			if l <= 0 {
				t.Fatalf("step %d idc %d: latency %g", tel.Step, j, l)
			}
			if l > top.IDC(j).DelayBound*(1+1e-9) {
				t.Fatalf("step %d idc %d: latency %.6f s exceeds bound %.6f",
					tel.Step, j, l, top.IDC(j).DelayBound)
			}
		}
	}
}

func TestForecastBuildsReferenceTrajectory(t *testing.T) {
	cfg := baseConfig()
	cfg.UseForecast = true
	cfg.SlowEvery = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Feed enough steps to warm the forecasters, crossing slow ticks.
	for k := 0; k < 8; k++ {
		if _, err := c.Step(workload.TableI()); err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
	}
	if c.refTraj == nil {
		t.Fatal("no reference trajectory despite active forecasting")
	}
	if len(c.refTraj) > c.mpc.Config().PredHorizon {
		t.Fatalf("trajectory length %d exceeds horizon", len(c.refTraj))
	}
	for s, row := range c.refTraj {
		if len(row) != cfg.Topology.N() {
			t.Fatalf("trajectory step %d has %d entries", s, len(row))
		}
	}
}

func TestTelemetryFieldsAreCopies(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tel, err := c.Step(workload.TableI())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	// Mutating the telemetry must not corrupt the controller.
	tel.U[0] = -1
	tel.Servers[0] = -1
	tel.Prices[0] = -1
	tel.RefPowerWatts[0] = -1
	tel2, err := c.Step(workload.TableI())
	if err != nil {
		t.Fatalf("Step after mutation: %v", err)
	}
	if tel2.U[0] < 0 || tel2.Servers[0] < 0 || tel2.Prices[0] < 0 {
		t.Fatal("telemetry aliased controller state")
	}
}
