package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/idc"
	"repro/internal/price"
	"repro/internal/sim"
)

func TestDefaultRunProducesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-steps", "4"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 steps
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	if !strings.Contains(lines[0], "ctl_power_mw_michigan") {
		t.Fatalf("header missing column: %s", lines[0])
	}
	if !strings.Contains(lines[0], "opt_power_mw_michigan") {
		t.Fatalf("baseline columns missing: %s", lines[0])
	}
}

func TestNoBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-no-baseline"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(buf.String(), "opt_power") {
		t.Fatal("baseline columns present despite -no-baseline")
	}
}

func TestBudgetsFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-budgets", "5.13,10.26,4.275"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-steps", "2", "-budgets", "5.13"}, &buf); err == nil {
		t.Fatal("short budget list accepted")
	}
	if err := run([]string{"-steps", "2", "-budgets", "a,b,c"}, &buf); err == nil {
		t.Fatal("non-numeric budgets accepted")
	}
}

// TestNonFiniteFlagsRejected: a NaN or infinite -ts or budget fails the
// run instead of printing nonsense hours and NaN costs.
func TestNonFiniteFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-ts", "NaN"},
		{"-ts", "+Inf"},
		{"-ts", "NaN", "-diurnal"},
		{"-budgets", "NaN,0,0"},
		{"-stale-ticks", "-1"},
	} {
		var buf bytes.Buffer
		if err := run(append([]string{"-steps", "5", "-no-baseline"}, args...), &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestDiurnalAndStochastic(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-steps", "3", "-diurnal", "-stochastic-prices", "-no-baseline"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 4 {
		t.Fatal("unexpected row count")
	}
}

func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	content := `{
	  "name": "t", "portals": [1000],
	  "idcs": [{"name": "a", "region": "michigan", "servers": 2000,
	    "serviceRate": 2, "delayBoundMs": 1, "idleWatts": 150, "peakWatts": 285}],
	  "steps": 2, "tsSeconds": 30,
	  "mpc": {"powerWeight": 1}, "prices": {"kind": "embedded"}
	}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-config", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "ctl_power_mw_a") {
		t.Fatalf("config topology not used:\n%s", buf.String())
	}
}

func TestConfigFileMissing(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-config", "/no/such/file.json"}, &buf); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-format", "json"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["control"] == nil || doc["optimal"] == nil {
		t.Fatal("missing series in JSON document")
	}
	ctl, ok := doc["control"].(map[string]interface{})
	if !ok {
		t.Fatal("control not an object")
	}
	if ctl["powerMW"] == nil || ctl["refPowerMW"] == nil {
		t.Fatal("control series incomplete")
	}
}

func TestUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-format", "yaml"}, &buf); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestWorkloadTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.txt")
	if err := os.WriteFile(path, []byte("1000\n2000\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-no-baseline", "-workload-trace", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-workload-trace", "/no/such/trace"}, &buf); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestPriceTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prices.csv")
	content := "hour,michigan,minnesota,wisconsin\n0,40,30,20\n1,41,31,21\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-no-baseline", "-price-trace", path, "-start-hour", "0"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), ",40,") && !strings.Contains(buf.String(), ",40\n") {
		// price column appears somewhere in the CSV rows
		t.Fatalf("custom price not visible in output:\n%s", buf.String())
	}
	if err := run([]string{"-price-trace", "/no/such/prices.csv"}, &buf); err == nil {
		t.Fatal("missing price trace accepted")
	}
}

func TestTraceFlagWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-steps", "3", "-no-baseline", "-trace", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace has %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			Step       int       `json:"Step"`
			PowerWatts []float64 `json:"PowerWatts"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i, err)
		}
		if rec.Step != i || len(rec.PowerWatts) == 0 {
			t.Errorf("trace line %d: step=%d power=%v", i, rec.Step, rec.PowerWatts)
		}
	}
}

func TestMetricsEndpointServesPrometheus(t *testing.T) {
	reg, closeMetrics, err := serveMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serveMetrics: %v", err)
	}
	defer closeMetrics()
	// Instrument a short run into the served registry — the same wiring
	// run() performs when -metrics is given (controllers default to
	// private registries, so the endpoint only sees what is passed in).
	_, err = sim.Run(sim.Scenario{
		Name:         "metrics-endpoint",
		Topology:     idc.PaperTopology(),
		Prices:       price.NewEmbeddedModel(),
		Steps:        2,
		Ts:           30,
		SlowEvery:    4,
		MPC:          ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
		SkipBaseline: true,
		Metrics:      reg,
		SampleEvery:  1,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	// serveMetrics logs the bound address to stderr; re-derive it from a
	// second listener-free path instead: hit the registry handler directly
	// through an in-process request.
	rr := httptest.NewRecorder()
	reg.ServeMux().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE idc_steps_total counter",
		"# TYPE idc_fast_loop_seconds histogram",
		"idc_lp_warm_solves_total",
		"idc_fast_loop_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	rr = httptest.NewRecorder()
	reg.ServeMux().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Error("/debug/vars has no counters")
	}
}

func TestCanceledRunEmitsPartialCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := runCtx(ctx, []string{"-steps", "50", "-no-baseline"}, &buf); err != nil {
		t.Fatalf("canceled run should exit cleanly, got %v", err)
	}
	// Zero steps completed: the CSV header is still emitted.
	if !strings.HasPrefix(buf.String(), "minute,hour,") {
		t.Errorf("partial output missing CSV header: %q", buf.String())
	}
}

func TestFeedFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demand.jsonl")
	content := `{"seq": 0, "values": [30000, 15000, 15000, 20000, 20000]}
{"values": [29000, 15500, 14800, 20200, 19900]}
{"values": [28000, 16000, 14600, 20400, 19800]}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-steps", "3", "-no-baseline", "-feed", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 streamed steps
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), buf.String())
	}

	// A stream shorter than -steps ends the run cleanly with the partial series.
	buf.Reset()
	if err := run([]string{"-steps", "10", "-no-baseline", "-feed", path}, &buf); err != nil {
		t.Fatalf("short-stream run: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 4 {
		t.Fatalf("short-stream lines = %d, want 4", len(lines))
	}

	// The feed owns the demand path: generator flags conflict.
	if err := run([]string{"-steps", "2", "-feed", path, "-diurnal"}, &buf); err == nil {
		t.Fatal("-feed with -diurnal accepted")
	}
	if err := run([]string{"-steps", "2", "-feed", "/no/such/feed.jsonl"}, &buf); err == nil {
		t.Fatal("missing feed file accepted")
	}

	// A negative demand in the stream is a malformed sample.
	bad := filepath.Join(dir, "negative.jsonl")
	if err := os.WriteFile(bad, []byte(`{"values": [30000, -15000, 15000, 20000, 20000]}`+"\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := run([]string{"-steps", "2", "-no-baseline", "-feed", bad}, &buf); !errors.Is(err, feed.ErrBadSample) {
		t.Fatalf("negative-demand feed: err = %v, want feed.ErrBadSample", err)
	}
}

func TestStaleTicksFlag(t *testing.T) {
	// Smoke: the flag parses and the run behaves as without it when the
	// price feed is healthy.
	var buf bytes.Buffer
	if err := run([]string{"-steps", "2", "-no-baseline", "-stale-ticks", "3"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDiurnalRunsAFullDay runs one whole synthetic day: the diurnal demand
// must stay inside the paper topology's capacity at its daily peak.
func TestDiurnalRunsAFullDay(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-diurnal", "-ts", "300", "-steps", "288", "-no-baseline"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n != 289 {
		t.Fatalf("%d lines, want a header and 288 steps", n)
	}
}
