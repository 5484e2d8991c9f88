package alloc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/idc"
	"repro/internal/price"
	"repro/internal/workload"
)

func prices6H() []float64 { return []float64{43.26, 30.26, 19.06} }
func prices7H() []float64 { return []float64{49.90, 29.47, 77.97} }

func TestInputValidation(t *testing.T) {
	top := idc.PaperTopology()
	if _, err := Optimize(nil, prices6H(), workload.TableI()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil topology: %v", err)
	}
	if _, err := Optimize(top, []float64{1}, workload.TableI()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short prices: %v", err)
	}
	if _, err := Optimize(top, prices6H(), []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short demands: %v", err)
	}
	if _, err := Optimize(top, prices6H(), []float64{-1, 0, 0, 0, 0}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative demand: %v", err)
	}
	if _, err := Greedy(nil, prices6H(), workload.TableI()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("greedy nil topology: %v", err)
	}
	if _, err := PriceOrdered(top, []float64{1}, workload.TableI()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("price-ordered short prices: %v", err)
	}
}

// TestNonFiniteInputsRejected pins the input boundary: a NaN or infinite
// demand or budget is ErrBadInput, never ErrInfeasible or a panic (a NaN
// budget is neither > 0 nor <= 0, which breaks the budget-row count).
func TestNonFiniteInputsRejected(t *testing.T) {
	top := idc.PaperTopology()
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]struct{ demands, budgets []float64 }{
		"NaN demand":  {[]float64{nan, 0, 0, 0, 0}, nil},
		"+Inf demand": {[]float64{inf, 0, 0, 0, 0}, nil},
		"NaN budget":  {workload.TableI(), []float64{nan, 0, 0}},
		"+Inf budget": {workload.TableI(), []float64{0, inf, 0}},
		"-Inf budget": {workload.TableI(), []float64{0, 0, -inf}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OptimizeWithBudgets(top, prices7H(), tc.demands, tc.budgets); !errors.Is(err, ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
		})
	}
}

func TestInfeasibleDemand(t *testing.T) {
	top := idc.PaperTopology()
	demands := []float64{1e6, 0, 0, 0, 0}
	if _, err := Optimize(top, prices6H(), demands); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Optimize: %v, want ErrInfeasible", err)
	}
	if _, err := Greedy(top, prices6H(), demands); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Greedy: %v, want ErrInfeasible", err)
	}
	if _, err := PriceOrdered(top, prices6H(), demands); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("PriceOrdered: %v, want ErrInfeasible", err)
	}
}

// TestPriceOrderedReproducesPaper6H checks the exact §V.B numbers at 6H:
// power 2.1375 / 11.4 / 5.7 MW and servers 7500 / 40000 / 20000.
func TestPriceOrderedReproducesPaper6H(t *testing.T) {
	top := idc.PaperTopology()
	res, err := PriceOrdered(top, prices6H(), workload.TableI())
	if err != nil {
		t.Fatalf("PriceOrdered: %v", err)
	}
	wantServers := []int{7500, 40000, 20000}
	wantMW := []float64{2.1375, 11.4, 5.7}
	for j := range wantServers {
		if res.Servers[j] != wantServers[j] {
			t.Errorf("servers[%d] = %d, want %d", j, res.Servers[j], wantServers[j])
		}
		if got := res.PowerWatts[j] / 1e6; math.Abs(got-wantMW[j]) > 1e-9 {
			t.Errorf("power[%d] = %g MW, want %g", j, got, wantMW[j])
		}
	}
}

// TestPriceOrderedReproducesPaper7H checks the §V.B jump targets at 7H:
// power 5.7 / 11.4 / 1.628775 MW and servers 20000 / 40000 / 5715.
func TestPriceOrderedReproducesPaper7H(t *testing.T) {
	top := idc.PaperTopology()
	res, err := PriceOrdered(top, prices7H(), workload.TableI())
	if err != nil {
		t.Fatalf("PriceOrdered: %v", err)
	}
	wantServers := []int{20000, 40000, 5715}
	wantMW := []float64{5.7, 11.4, 1.628775}
	for j := range wantServers {
		if res.Servers[j] != wantServers[j] {
			t.Errorf("servers[%d] = %d, want %d", j, res.Servers[j], wantServers[j])
		}
		if got := res.PowerWatts[j] / 1e6; math.Abs(got-wantMW[j]) > 1e-6 {
			t.Errorf("power[%d] = %g MW, want %g", j, got, wantMW[j])
		}
	}
}

func TestOptimizeConservation(t *testing.T) {
	top := idc.PaperTopology()
	demands := workload.TableI()
	res, err := Optimize(top, prices6H(), demands)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	per := res.Allocation.PerPortal()
	for i := range demands {
		if math.Abs(per[i]-demands[i]) > 1e-5 {
			t.Fatalf("portal %d served %g, want %g", i, per[i], demands[i])
		}
	}
	// Latency constraint with LP servers.
	perIDC := res.Allocation.PerIDC()
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		cap := res.ServersLP[j]*d.ServiceRate - 1/d.DelayBound
		if perIDC[j] > cap+1e-4 {
			t.Fatalf("idc %d: load %g exceeds LP capacity %g", j, perIDC[j], cap)
		}
		if res.ServersLP[j] > float64(d.TotalServers)+1e-9 {
			t.Fatalf("idc %d: m %g exceeds fleet %d", j, res.ServersLP[j], d.TotalServers)
		}
	}
}

func TestOptimizeFillsCheapestMarginalFirst(t *testing.T) {
	top := idc.PaperTopology()
	res, err := Optimize(top, prices6H(), workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	per := res.Allocation.PerIDC()
	// At 6H the true marginal order is WI (3104) < MI (6165) < MN (6899)
	// $/MWh per req/s equivalent: Wisconsin and Michigan fill to capacity,
	// Minnesota takes the remainder. (This differs from the paper's
	// price-ordered baseline — see EXPERIMENTS.md.)
	if math.Abs(per[2]-34000) > 1 {
		t.Errorf("Wisconsin load = %g, want 34000 (full)", per[2])
	}
	if math.Abs(per[0]-39000) > 1 {
		t.Errorf("Michigan load = %g, want 39000 (full)", per[0])
	}
	if math.Abs(per[1]-27000) > 1 {
		t.Errorf("Minnesota load = %g, want remainder 27000", per[1])
	}
}

func TestGreedyMatchesLPObjective(t *testing.T) {
	top := idc.PaperTopology()
	for _, prices := range [][]float64{prices6H(), prices7H()} {
		lpRes, err := Optimize(top, prices, workload.TableI())
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		grRes, err := Greedy(top, prices, workload.TableI())
		if err != nil {
			t.Fatalf("Greedy: %v", err)
		}
		// Cost rates agree to within one server quantum per IDC.
		tol := 0.001 * lpRes.CostRate
		if math.Abs(lpRes.CostRate-grRes.CostRate) > tol {
			t.Fatalf("LP cost %g vs greedy cost %g", lpRes.CostRate, grRes.CostRate)
		}
	}
}

func TestPropertyGreedyEqualsLPOnRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		top := idc.PaperTopology()
		prices := []float64{
			10 + 90*r.Float64(),
			10 + 90*r.Float64(),
			10 + 90*r.Float64(),
		}
		// Random feasible demand (total capacity is 122000).
		total := 20000 + 90000*r.Float64()
		demands := make([]float64, 5)
		var acc float64
		for i := 0; i < 4; i++ {
			demands[i] = total * r.Float64() / 5
			acc += demands[i]
		}
		demands[4] = total - acc
		lpRes, err := Optimize(top, prices, demands)
		if err != nil {
			return false
		}
		grRes, err := Greedy(top, prices, demands)
		if err != nil {
			return false
		}
		diff := math.Abs(lpRes.CostRate - grRes.CostRate)
		return diff <= 0.002*lpRes.CostRate+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConservationAlwaysHolds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		top := idc.PaperTopology()
		prices := []float64{100 * r.Float64(), 100 * r.Float64(), 100 * r.Float64()}
		demands := make([]float64, 5)
		for i := range demands {
			demands[i] = 20000 * r.Float64()
		}
		for _, solve := range []func(*idc.Topology, []float64, []float64) (*Result, error){Optimize, Greedy, PriceOrdered} {
			res, err := solve(top, prices, demands)
			if err != nil {
				return errors.Is(err, ErrInfeasible)
			}
			per := res.Allocation.PerPortal()
			for i := range demands {
				if math.Abs(per[i]-demands[i]) > 1e-4 {
					return false
				}
			}
			for _, v := range res.Allocation.Vector() {
				if v < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativePriceClamped(t *testing.T) {
	// Wisconsin's overnight price is negative in the embedded trace; the
	// optimizer must not blow up and should treat it as free (fills first).
	top := idc.PaperTopology()
	tr := price.MustEmbedded(price.Wisconsin)
	if tr.AtHour(2) >= 0 {
		t.Skip("embedded trace no longer has a negative hour")
	}
	prices := []float64{31.4, 22.7, tr.AtHour(2)}
	res, err := Optimize(top, prices, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	per := res.Allocation.PerIDC()
	if math.Abs(per[2]-34000) > 1 {
		t.Fatalf("free-power IDC load = %g, want full 34000", per[2])
	}
}

func TestOptimizeKeepsStandbyServers(t *testing.T) {
	// Even with zero load on an IDC, eq. (35)'s 1/(µD) standby floor shows
	// up in the LP server variables.
	top := idc.PaperTopology()
	demands := []float64{1000, 0, 0, 0, 0} // tiny demand
	res, err := Optimize(top, prices6H(), demands)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		floor := 1 / (d.ServiceRate * d.DelayBound)
		if res.ServersLP[j] < floor-1e-6 {
			t.Fatalf("idc %d LP servers %g below standby floor %g", j, res.ServersLP[j], floor)
		}
	}
}

func TestOptimizeWithBudgetsValidation(t *testing.T) {
	top := idc.PaperTopology()
	if _, err := OptimizeWithBudgets(top, prices7H(), workload.TableI(), []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short budgets: %v", err)
	}
}

func TestOptimizeWithBudgetsRoutesAroundCaps(t *testing.T) {
	top := idc.PaperTopology()
	budgets := []float64{5.13e6, 10.26e6, 4.275e6}
	res, err := OptimizeWithBudgets(top, prices7H(), workload.TableI(), budgets)
	if err != nil {
		t.Fatalf("OptimizeWithBudgets: %v", err)
	}
	for j, w := range res.PowerWatts {
		d := top.IDC(j)
		quantum := d.Power.B0 + d.Power.B1*d.ServiceRate
		if w > budgets[j]+quantum {
			t.Fatalf("idc %d: %g W above budget %g", j, w, budgets[j])
		}
	}
	// Conservation still holds.
	per := res.Allocation.PerPortal()
	for i, want := range workload.TableI() {
		if math.Abs(per[i]-want) > 1e-4 {
			t.Fatalf("portal %d served %g, want %g", i, per[i], want)
		}
	}
}

func TestOptimizeWithBudgetsInfeasible(t *testing.T) {
	top := idc.PaperTopology()
	if _, err := OptimizeWithBudgets(top, prices7H(), workload.TableI(), []float64{1e6, 1e6, 1e6}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("tight budgets: %v", err)
	}
}

func TestOptimizeWithBudgetsCostAboveUnconstrained(t *testing.T) {
	// Constraining the cheap IDCs cannot reduce the optimal cost.
	top := idc.PaperTopology()
	free, err := Optimize(top, prices7H(), workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	capped, err := OptimizeWithBudgets(top, prices7H(), workload.TableI(), []float64{5.13e6, 10.26e6, 4.275e6})
	if err != nil {
		t.Fatalf("OptimizeWithBudgets: %v", err)
	}
	if capped.CostRate < free.CostRate-1e-6 {
		t.Fatalf("budget-capped cost %g below unconstrained %g", capped.CostRate, free.CostRate)
	}
}

func TestMarginalPricesMatchCheapestIDC(t *testing.T) {
	// The dual of a portal's conservation row is the marginal cost of one
	// more req/s — which, with slack capacity, is the cheapest unconstrained
	// IDC's marginal cost Pr·(b1 + b0/µ).
	top := idc.PaperTopology()
	// Light demand: nothing binds, every portal's marginal is WI's at 6H.
	demands := []float64{5000, 5000, 5000, 5000, 5000}
	res, err := Optimize(top, prices6H(), demands)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.MarginalPrices == nil {
		t.Fatal("no marginal prices from the LP solve")
	}
	wi := top.IDC(2)
	want := prices6H()[2] * (wi.Power.B1 + wi.Power.B0/wi.ServiceRate)
	for i, mp := range res.MarginalPrices {
		if math.Abs(mp-want)/want > 1e-6 {
			t.Fatalf("portal %d marginal %g, want %g", i, mp, want)
		}
	}
}

func TestMarginalPricesRiseWhenCheapCapacityExhausted(t *testing.T) {
	top := idc.PaperTopology()
	light, err := Optimize(top, prices6H(), []float64{5000, 5000, 5000, 5000, 5000})
	if err != nil {
		t.Fatalf("Optimize light: %v", err)
	}
	heavy, err := Optimize(top, prices6H(), workload.TableI())
	if err != nil {
		t.Fatalf("Optimize heavy: %v", err)
	}
	if !(heavy.MarginalPrices[0] > light.MarginalPrices[0]) {
		t.Fatalf("marginal did not rise under load: light %g, heavy %g",
			light.MarginalPrices[0], heavy.MarginalPrices[0])
	}
}
