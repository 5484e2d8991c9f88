package bench

import (
	"fmt"
	"math"
	"runtime"
)

// MetricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same names, units and directions plus each end-to-end
// metric's bound (TestMetricDefsMatchBenchmarkJSON keeps the two equal).
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd lists the metrics of an untraced run.
var EndToEnd = []MetricDef{
	{"tick_p50_us", "us", "lower"},
	{"tick_p90_us", "us", "lower"},
	{"tick_mean_us", "us", "lower"},
	{"ticks_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_tick", "count", "lower"},
	{"bytes_per_tick", "B", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"cost_usd", "USD", "lower"},
	{"cost_vs_optimal", "ratio", "lower"},
	{"power_tv_mw", "MW", "lower"},
	{"peak_power_mw", "MW", "lower"},
	{"tick_ok_ratio", "ratio", "higher"},
}

// PerLayer lists the metrics of a traced run.
var PerLayer = []MetricDef{
	{"ctrl.model_builds", "count", "lower"},
	{"ctrl.model_build_useful_ratio", "ratio", "higher"},
	{"ctrl.model_build_us", "us", "lower"},
	{"ctrl.mpc_miss_us", "us", "lower"},
	{"ctrl.mpc_cache_hit_ratio", "ratio", "higher"},
	{"ctrl.mpc_hit_us", "us", "lower"},
	{"ctrl.mpc_share", "ratio", "lower"},
	{"qp.iters_per_step", "count", "lower"},
	{"qp.us_per_iter", "us", "lower"},
	{"qp.factorizations_per_step", "count", "lower"},
	{"qp.factor_reuse_ratio", "ratio", "higher"},
	{"alloc.traj_lp_us", "us", "lower"},
	{"forecast.observe_us", "us", "lower"},
	{"forecast.predict_us", "us", "lower"},
	{"alloc.ref_lp_us", "us", "lower"},
	{"lp.warm_ratio", "ratio", "higher"},
	{"lp.pivots_per_solve", "count", "lower"},
	{"price.query_us", "us", "lower"},
	{"core.glue_us", "us", "lower"},
	{"runtime.gc_per_1k_ticks", "count", "lower"},
	{"sim.baseline_us", "us", "lower"},
	{"sleep.counts_us", "us", "lower"},
	{"ctrl.plant_us", "us", "lower"},
	{"queueing.latency_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.replay_mismatches", "count", "lower"},
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Settings records how a run was made; it is printed before the result.
type Settings struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Ticks    int     `json:"ticks"`
	// Episodes counts the timed episodes, Replays the traced run's
	// replays.
	Episodes   int    `json:"episodes"`
	Replays    int    `json:"replays,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// CalibrationUS is the calibration kernel's best time during the run,
	// a measure of the machine's speed: reported times are raw wall times,
	// and -compare leaves a timing pair unresolved when the two sides'
	// median CalibrationUS differ by more than calibrationTolerance.
	CalibrationUS float64 `json:"calibration_us"`
	// ReferenceSeed is the seed of the path the quality metrics and
	// live_heap_mb are measured on (0 in a traced run, which skips it).
	ReferenceSeed int64 `json:"reference_seed"`
	// BudgetExcessMWh is reported here rather than as a metric: it is 0
	// on every workload without budgets, and the budgets are soft targets.
	BudgetExcessMWh float64 `json:"budget_excess_mwh"`
	// Checks lists every failed output check; empty when correct.
	Checks []string `json:"checks"`
}

func newSettings(w *Workload, in *Inputs, seed int64, seconds float64, trace bool) Settings {
	return Settings{
		Workload:   w.Name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Ticks:      len(in.Demands),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Checks:     []string{},
	}
}

// record copies a measurement's run facts into the settings.
func (st *Settings) record(m *Measurement, cal *calibrator) {
	st.Episodes = m.Episodes
	st.BudgetExcessMWh = m.Quality.BudgetExcessMWh
	st.CalibrationUS = cal.bestUS
	if m.Ref != nil {
		st.ReferenceSeed = m.Ref.Seed
	}
}

// fig4PowerSumMW is the Fig4Smoothing "MW-sum" series checksum pinned in
// BENCH_PR8.json, printed there to whole megawatts.
const fig4PowerSumMW = 2479

// checks returns the failed output checks of a measurement.
func (m *Measurement) checks() []string {
	var out []string
	if m.Err != nil {
		out = append(out, fmt.Sprintf("step error: %v", m.Err))
	}
	if m.Failed > 0 {
		out = append(out, fmt.Sprintf("%d of %d ticks failed an invariant", m.Failed, m.Attempted))
	}
	if m.Mismatched > 0 {
		out = append(out, fmt.Sprintf("%d episodes differ from the first episode", m.Mismatched))
	}
	in := m.Ref
	full := in != nil && in.Workload == "fig4-smooth" && len(in.Demands) == 140
	if sum := m.Quality.PowerSumMW; full && m.Err == nil && int(math.Round(sum)) != fig4PowerSumMW {
		out = append(out, fmt.Sprintf("fig4-smooth power sum %.4f MW, want %d", sum, fig4PowerSumMW))
	}
	return out
}

// endToEnd computes the end-to-end metrics of a measurement.
func (m *Measurement) endToEnd() map[string]float64 {
	// Ticks per second is the steady loop's rate: ticks 1 and later over
	// the sum of their per-index fastest loop iterations. Set-up is its own
	// metric; counted here too, it would dominate grid-c8n6's rate (0.14 s
	// of a 0.24 s episode) and bring its spread with it.
	var wall float64
	for _, us := range m.IntervalUS {
		wall += us / 1e6
	}
	tickUS := m.TickUS
	q := m.Quality
	return map[string]float64{
		"tick_p50_us":     quantile(tickUS, 0.5),
		"tick_p90_us":     quantile(tickUS, 0.9),
		"tick_mean_us":    mean(tickUS),
		"ticks_per_s":     float64(len(m.IntervalUS)) / wall,
		"setup_s":         median(m.SetupS),
		"allocs_per_tick": float64(m.Mallocs) / float64(m.TimedTicks),
		"bytes_per_tick":  float64(m.Bytes) / float64(m.TimedTicks),
		"live_heap_mb":    float64(m.LiveHeap) / (1 << 20),
		"cost_usd":        q.CostUSD,
		"cost_vs_optimal": q.CostVsOptimal,
		"power_tv_mw":     q.PowerTVMW,
		"peak_power_mw":   q.PeakPowerMW,
		"tick_ok_ratio":   1 - float64(m.Failed)/float64(m.Attempted),
	}
}

// result assembles the output line from values of the given definitions.
// A value that is missing or not finite is reported as 0 and added to the
// failed checks, which are returned.
func result(defs []MetricDef, vals map[string]float64, attempted, failed int, checks []string) (Result, []string) {
	r := Result{
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]Value, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			checks = append(checks, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		r.Metrics[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	r.Correct = len(checks) == 0
	return r, checks
}
