package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/sim"
)

// smokeTicks is a short episode per workload: long enough to include a
// slow tick after tick 0 where the workload has one within reach.
var smokeTicks = map[string]int{
	"fig4-smooth":    12,
	"diurnal-track":  14,
	"volatile-shave": 16,
	"grid-c8n6":      4,
}

// TestSmokeAllWorkloads runs every workload's traced run on short episodes:
// the replay must be bit-identical to the recorded telemetry and no tick
// may fail an invariant.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			var spans bytes.Buffer
			st, res, err := Run(w, Options{Seed: 3, Seconds: 0.01, Trace: true, Ticks: smokeTicks[w.Name], Spans: &spans})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(st.Checks) != 0 {
				t.Fatalf("correct %v, %d failed ticks, checks %v", res.Correct, res.Failed, st.Checks)
			}
			if got := res.Metrics["trace.replay_mismatches"].Value; got != 0 {
				t.Fatalf("%v replay mismatches", got)
			}
			if got := res.Metrics["core.glue_us"].Value; !(got >= 0) {
				t.Fatalf("core.glue_us = %v", got)
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(PerLayer))
			}
			lines := strings.Split(strings.TrimSpace(spans.String()), "\n")
			var first struct {
				Name   string `json:"name"`
				Parent int    `json:"parent"`
			}
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name != "tick" || first.Parent != -1 {
				t.Fatalf("first span %q: %v", lines[0], err)
			}
		})
	}
}

func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	w, err := ByName("fig4-smooth")
	if err != nil {
		t.Fatal(err)
	}
	st, res, err := Run(w, Options{Seed: 1, Seconds: 0.01, Ticks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The untimed reference episode runs its ticks too.
	if !res.Correct || st.Episodes < minEpisodes || res.Attempted != 8*(st.Episodes+1) {
		t.Fatalf("correct %v, %d episodes, %d attempted, checks %v", res.Correct, st.Episodes, res.Attempted, st.Checks)
	}
	for _, d := range EndToEnd {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s missing or unit %q", d.Name, v.Unit)
		}
		if d.Unit != "USD" && d.Unit != "MW" && !(v.Value > 0) {
			t.Errorf("metric %s = %v, want > 0", d.Name, v.Value)
		}
	}
}

// TestFig4MatchesPinnedChecksum runs the full Fig. 4 episode, whose power
// sum the run checks against BENCH_PR8.json's MW-sum.
func TestFig4MatchesPinnedChecksum(t *testing.T) {
	w, err := ByName("fig4-smooth")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.Build(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Reference(0)
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(in, ref, 0, newCalibrator())
	if c := m.checks(); len(c) != 0 {
		t.Fatalf("checks failed: %v", c)
	}
	if sum := m.Quality.PowerSumMW; int(math.Round(sum)) != fig4PowerSumMW {
		t.Fatalf("power sum %v", sum)
	}
}

// TestVolatileShaveBudgetsBind pins the volatile-shave demand scale: over
// a full episode the Fig. 6 budgets must clamp the reference.
func TestVolatileShaveBudgetsBind(t *testing.T) {
	w, err := ByName("volatile-shave")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Reference(0)
	if err != nil {
		t.Fatal(err)
	}
	r := runEpisode(ref, false, -1)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if clamps, _ := r.counters.Counter("idc_ref_clamp_total"); clamps == 0 {
		t.Fatal("no reference clamps: the budgets never bind")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range Workloads() {
		build := func(seed int64) *Inputs {
			t.Helper()
			in, err := w.Build(seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, a2 := build(1), build(2), build(1)
		if same := sameBits(a.Demands[3], b.Demands[3]); same != w.SeedFree {
			t.Errorf("%s: seeds 1 and 2 give identical demands: %v", w.Name, same)
		}
		if !sameBits(a.Demands[3], a2.Demands[3]) {
			t.Errorf("%s: one seed's demands differ between builds", w.Name)
		}
	}
}

func TestTickOKFlagsViolations(t *testing.T) {
	w, err := ByName("fig4-smooth")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.Build(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := runEpisode(in, true, -1)
	if r.err != nil || len(r.ep.kept) != 2 {
		t.Fatalf("episode: %v, %d ticks", r.err, len(r.ep.kept))
	}
	top, demands := in.Scenario.Topology, in.Demands[1]
	if !tickOK(top, demands, r.ep.kept[1]) {
		t.Fatal("a real tick fails the invariants")
	}
	for name, spoil := range map[string]func(*core.Telemetry){
		"conservation": func(tel *core.Telemetry) { tel.U[0] += 1 },
		"negative":     func(tel *core.Telemetry) { tel.U[1] = -1 },
		"latency":      func(tel *core.Telemetry) { tel.LatencySeconds[2] = 1 },
		"fleet":        func(tel *core.Telemetry) { tel.Servers[0] = top.IDC(0).TotalServers + 1 },
	} {
		tel := *r.ep.kept[1]
		tel.U = append([]float64(nil), tel.U...)
		tel.Servers = append([]int(nil), tel.Servers...)
		tel.LatencySeconds = append([]float64(nil), tel.LatencySeconds...)
		spoil(&tel)
		if tickOK(top, demands, &tel) {
			t.Errorf("%s violation passes", name)
		}
	}
}

// TestMetricDefsMatchBenchmarkJSON keeps the reported metrics and the
// workloads equal to BENCHMARK.json at the repository root.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("spec has %d/%d metrics, code %d/%d", len(spec.EndToEnd), len(spec.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.MetricDef != EndToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m.MetricDef, EndToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= spec.EndToEnd[4].Bound) {
			t.Errorf("%s bound %v outside (0, setup_s bound]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m != PerLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, PerLayer[i])
		}
	}
	ws := Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("spec has %d workloads, code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		if w.Name != ws[i].Name || w.Why != ws[i].Why {
			t.Errorf("workload %d = %+v, code has %s: %s", i, w, ws[i].Name, ws[i].Why)
		}
	}
}

func TestCompareResultFiles(t *testing.T) {
	tick := BoundMetric{MetricDef: MetricDef{Name: "tick_mean_us", Unit: "us", Better: "lower"}, Bound: 0.1}
	cost := BoundMetric{MetricDef: MetricDef{Name: "cost_usd", Unit: "USD", Better: "lower"}, Bound: 1e-6}
	spec := &Spec{
		Workloads: []SpecLoad{{Name: "fig4-smooth"}, {Name: "grid-c8n6"}, {Name: "diurnal-track"}},
		EndToEnd:  []BoundMetric{tick, cost},
	}
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	add := func(path, workload string, us, usd, cal float64, trace bool) {
		t.Helper()
		rec := Record{
			Settings: Settings{Workload: workload, Trace: trace, CalibrationUS: cal},
			Result: Result{Correct: true, Metrics: map[string]Value{
				"tick_mean_us": {Value: us, Unit: "us"},
				"cost_usd":     {Value: usd, Unit: "USD"},
			}},
		}
		if err := AppendResult(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []float64{100, 101, 99} {
		for _, w := range spec.Workloads {
			add(pathA, w.Name, v, 500, 100, false)
		}
		add(pathB, "fig4-smooth", v+1, 500, 103, false)
		add(pathB, "grid-c8n6", 2*v, 500.01, 100, false)
		// The machine ran 10% slower: the times cannot be judged, the
		// cost still can.
		add(pathB, "diurnal-track", v, 500, 110, false)
	}
	add(pathB, "grid-c8n6", 1, 1, 100, true) // traced runs are not compared
	a, err := LoadResults(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadResults(pathB)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{Unchanged, Unchanged, Regressed, Regressed, Unresolved, Unchanged}
	cs := Compare(spec, a, b)
	if len(cs) != len(want) {
		t.Fatalf("%d comparisons, want %d", len(cs), len(want))
	}
	for i, c := range cs {
		if c.Verdict != want[i] {
			t.Errorf("%s %s: %s, want %s", c.Workload, c.Metric.Name, c.Verdict, want[i])
		}
	}
	var out bytes.Buffer
	if !WriteComparison(&out, cs) || !strings.Contains(out.String(), "regressed: [tick_mean_us cost_usd]") {
		t.Fatalf("report:\n%s", out.String())
	}
}

// TestReplayRefusesUnmirroredSettings pins the settings the replay does not
// copy from Controller.Step: a workload using one must fail loudly rather
// than time a different call sequence.
func TestReplayRefusesUnmirroredSettings(t *testing.T) {
	for name, set := range map[string]func(*sim.Scenario){
		"PriceSource":  func(sc *sim.Scenario) { sc.PriceSource = feed.FromTrace(nil) },
		"FeedPolicy":   func(sc *sim.Scenario) { sc.FeedPolicy.MaxPriceStaleTicks = 2 },
		"SkipBaseline": func(sc *sim.Scenario) { sc.SkipBaseline = true },
		"SampleEvery":  func(sc *sim.Scenario) { sc.SampleEvery = 4 },
		"TraceWriter":  func(sc *sim.Scenario) { sc.TraceWriter = &bytes.Buffer{} },
	} {
		var sc sim.Scenario
		set(&sc)
		if err := replayable(sc); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, w := range Workloads() {
		in, err := w.Reference(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayable(in.Scenario); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
