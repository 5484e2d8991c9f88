package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMPCStep-4        	   13701	     82388 ns/op	      39 B/op	       0 allocs/op
BenchmarkReferenceLP/Warm-4 	  361116	      3007 ns/op	    3368 B/op	      20 allocs/op
BenchmarkMPCStepScaling/C20xN10-4 	     100	  14000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMPCStepScaling/C50xN20-4 	      50	  21000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMPCStepScalingDense/C50xN20-4 	       5	 210000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimplexScaling/C50xN20-4 	     200	   5000000 ns/op	    1024 B/op	      10 allocs/op
BenchmarkSimplexScaling/C100xN20-4 	    100	  20000000 ns/op	    2048 B/op	      20 allocs/op
BenchmarkFig4-4           	      10	 104948436 ns/op	 4.186e+07 checksum	      12 figs
BenchmarkGridC8N6-4       	      20	  60000000 ns/op	      1795 MW-sum
BenchmarkVolatileShave-4  	      10	 130000000 ns/op	      2705 MW-sum
BenchmarkDiscretize-4     	   30000	     35000 ns/op	   17500 B/op	      57 allocs/op
PASS
ok  	repro	2.459s
`

func TestParseAndEmit(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.String() != sample {
		t.Error("stdin was not passed through to stdout unchanged")
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if sum.Goos != "linux" || sum.Pkg != "repro" {
		t.Errorf("header fields = %q/%q, want linux/repro", sum.Goos, sum.Pkg)
	}
	if len(sum.Benchmarks) != 11 {
		t.Fatalf("parsed %d benchmarks, want 11", len(sum.Benchmarks))
	}
	mpc := sum.Benchmarks[0]
	if mpc.Name != "MPCStep" || mpc.Iterations != 13701 {
		t.Errorf("first benchmark = %q/%d, want MPCStep/13701", mpc.Name, mpc.Iterations)
	}
	if mpc.Metrics["ns/op"] != 82388 || mpc.Metrics["allocs/op"] != 0 {
		t.Errorf("MPCStep metrics = %v", mpc.Metrics)
	}
	if sum.Benchmarks[1].Name != "ReferenceLP/Warm" {
		t.Errorf("sub-benchmark name = %q, want ReferenceLP/Warm", sum.Benchmarks[1].Name)
	}
	if sum.Benchmarks[7].Metrics["checksum"] != 4.186e+07 {
		t.Errorf("custom metric checksum = %v", sum.Benchmarks[7].Metrics["checksum"])
	}
}

func TestFailStreamExitsNonzero(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	in := "BenchmarkX-4 10 5 ns/op\n--- FAIL: TestY (0.00s)\nFAIL\nFAIL\trepro\t0.1s\n"
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath}, strings.NewReader(in), &stdout)
	if err == nil || !strings.Contains(err.Error(), "FAIL") {
		t.Fatalf("want FAIL error, got %v", err)
	}
	// The summary is still written so the partial run remains inspectable.
	if _, statErr := os.Stat(outPath); statErr != nil {
		t.Fatalf("summary not written on failure: %v", statErr)
	}
}

func TestNoBenchmarksIsAnError(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath}, strings.NewReader("PASS\nok\trepro\t0.1s\n"), &stdout)
	if err == nil || !strings.Contains(err.Error(), "no benchmark") {
		t.Fatalf("want no-benchmark error, got %v", err)
	}
}

const seriesSample = `BenchmarkFig4Smoothing-4 	      10	 104948436 ns/op	 5903135 series-sum	 42.5 MW-sum
BenchmarkAllExperiments-4 	       1	 904948436 ns/op	 5903135 series-sum
PASS
ok  	repro	2.459s
`

// writeRef writes a reference summary with the given Fig4Smoothing
// series-sum and returns its path.
func writeRef(t *testing.T, seriesSum float64) string {
	t.Helper()
	ref := Summary{Benchmarks: []Benchmark{
		{Name: "Fig4Smoothing", Iterations: 10, Metrics: map[string]float64{
			"ns/op": 999999, "series-sum": seriesSum, "MW-sum": 42.5,
		}},
		{Name: "Retired", Iterations: 1, Metrics: map[string]float64{"series-sum": 1}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckSeriesMatch(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeRef(t, 5903135)
	var stdout bytes.Buffer
	// ns/op differs wildly from the reference and Retired is gone; only the
	// shared checksums are compared, so this passes.
	if err := run([]string{"-out", outPath, "-check-series", ref}, strings.NewReader(seriesSample), &stdout); err != nil {
		t.Fatalf("run with matching checksums: %v", err)
	}
}

func TestCheckSeriesDriftFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeRef(t, 5903136) // off by one
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-series", ref}, strings.NewReader(seriesSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("want drift error, got %v", err)
	}
	// Records carry their GOMAXPROCS in the label, matching the raw
	// `go test` line the user would grep for.
	if !strings.Contains(err.Error(), "Fig4Smoothing-4 series-sum") {
		t.Errorf("drift error does not name the metric: %v", err)
	}
	// The summary file is still written for inspection.
	if _, statErr := os.Stat(outPath); statErr != nil {
		t.Fatalf("summary not written on drift: %v", statErr)
	}
}

func TestCheckSeriesNoOverlapFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeRef(t, 5903135)
	in := "BenchmarkX-4 10 5 ns/op\nPASS\nok\trepro\t0.1s\n"
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-series", ref}, strings.NewReader(in), &stdout)
	if err == nil || !strings.Contains(err.Error(), "no common checksum") {
		t.Fatalf("want no-overlap error, got %v", err)
	}
}

func TestCheckSeriesMissingRefFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-series", "/no/such/ref.json"}, strings.NewReader(seriesSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "check-series") {
		t.Fatalf("want check-series error, got %v", err)
	}
}

// writePerfRef writes a reference summary with the given pinned ns/op
// values and returns its path.
func writePerfRef(t *testing.T, mpcNs, warmNs float64) string {
	t.Helper()
	ref := Summary{Benchmarks: []Benchmark{
		{Name: "MPCStep", Iterations: 10000, Metrics: map[string]float64{"ns/op": mpcNs, "allocs/op": 0}},
		{Name: "ReferenceLP/Warm", Iterations: 300000, Metrics: map[string]float64{"ns/op": warmNs}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "perfref.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckPerfWithinTolerancePasses(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// Current run (sample): MPCStep 82388, Warm 3007. Reference slightly
	// slower and slightly faster — both inside the tolerance window.
	ref := writePerfRef(t, 80000, 3200)
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatalf("run within tolerance: %v", err)
	}
}

func TestCheckPerfRegressionFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writePerfRef(t, 50000, 3200) // MPCStep 82388 is +64.8% vs 50000
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(sample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("want regression error, got %v", err)
	}
	if !strings.Contains(err.Error(), "MPCStep") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "ReferenceLP/Warm") {
		t.Errorf("regression error names a benchmark that did not regress: %v", err)
	}
}

// calSample is the sample run plus the Expm calibration benchmark, used
// by the drift-normalization tests.
var calSample = strings.Replace(sample, "PASS\n",
	"BenchmarkExpm-4 	  500000	      6000 ns/op	    1808 B/op	      31 allocs/op\nPASS\n", 1)

// writeCalRef writes a reference with pinned MPCStep/Warm ns/op plus an
// Expm calibration entry, and returns its path.
func writeCalRef(t *testing.T, mpcNs, warmNs, expmNs float64) string {
	t.Helper()
	ref := Summary{Benchmarks: []Benchmark{
		{Name: "MPCStep", Iterations: 10000, Metrics: map[string]float64{"ns/op": mpcNs}},
		{Name: "ReferenceLP/Warm", Iterations: 300000, Metrics: map[string]float64{"ns/op": warmNs}},
		{Name: "Expm", Iterations: 500000, Metrics: map[string]float64{"ns/op": expmNs}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "calref.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckPerfCalibratesOutMachineDrift(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// Raw MPCStep regressed +64.8% (82388 vs 50000) — far past tolerance —
	// but Expm doubled too (6000 vs 3000): the machine is 2× slower, and
	// the calibrated value 41194 is actually an improvement.
	ref := writeCalRef(t, 50000, 3200, 3000)
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(calSample), &stdout); err != nil {
		t.Fatalf("run with drift-explained slowdown: %v", err)
	}
	if !strings.Contains(stdout.String(), "machine drift") {
		t.Error("drift factor was not reported on stdout")
	}
}

func TestCheckPerfCalibratedRegressionStillFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// Expm is unchanged (6000 vs 6000, drift ×1.0) so the raw +64.8%
	// MPCStep regression is real and must still fail.
	ref := writeCalRef(t, 50000, 3200, 6000)
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(calSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "MPCStep") {
		t.Fatalf("want MPCStep regression error, got %v", err)
	}
}

func TestCheckPerfRatioPinFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// Structured C50xN20 at 150ms vs dense 210ms is only 1.4× — below the
	// pinned ≥5× floor. Ratio pins compare within the current run, so the
	// reference values don't matter.
	slow := strings.Replace(sample,
		"BenchmarkMPCStepScaling/C50xN20-4 	      50	  21000000 ns/op",
		"BenchmarkMPCStepScaling/C50xN20-4 	      50	 150000000 ns/op", 1)
	ref := writePerfRef(t, 80000, 3200)
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(slow), &stdout)
	if err == nil || !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("want ratio-pin error, got %v", err)
	}
	if !strings.Contains(err.Error(), "MPCStepScaling/C50xN20") {
		t.Errorf("ratio error does not name the benchmark: %v", err)
	}
}

func TestCheckPerfRatioPinSkippedWhenDenseAbsent(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// CI's -short run skips the dense control; the ratio pin must not
	// fail vacuously. Slow structured line + no dense line → no ratio
	// comparison, and the remaining pins are clean.
	noDense := strings.Replace(sample,
		"BenchmarkMPCStepScalingDense/C50xN20-4 	       5	 210000000 ns/op	       0 B/op	       0 allocs/op\n",
		"", 1)
	ref := writePerfRef(t, 80000, 3200)
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(noDense), &stdout); err != nil {
		t.Fatalf("run without dense control: %v", err)
	}
}

func TestCheckPerfMissingPinnedBenchFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writePerfRef(t, 80000, 3200)
	in := "BenchmarkX-4 10 5 ns/op\nPASS\nok\trepro\t0.1s\n"
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(in), &stdout)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("want missing-pinned-bench error, got %v", err)
	}
}

func TestCheckPerfNewPinInReferenceSkipped(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// Reference lacks ReferenceLP/Warm entirely: that pin is skipped, the
	// MPCStep comparison still runs and passes.
	ref := Summary{Benchmarks: []Benchmark{
		{Name: "MPCStep", Iterations: 10000, Metrics: map[string]float64{"ns/op": 82000}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "perfref.json")
	if err := os.WriteFile(refPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-perf", refPath}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatalf("run with pin absent from reference: %v", err)
	}
}

// matrixSample is one bench run captured at two GOMAXPROCS widths — the
// parallel-kernel CI matrix. MPCStep appears both at -8 and without a
// suffix (GOMAXPROCS=1); the remaining pinned benchmarks ran once at -8.
const matrixSample = `BenchmarkMPCStep-8 	   13701	     20000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMPCStep 	    3000	     80000 ns/op	       0 B/op	       0 allocs/op
BenchmarkReferenceLP/Warm-8 	  361116	      3007 ns/op
BenchmarkMPCStepScaling/C20xN10-8 	     100	  14000000 ns/op
BenchmarkMPCStepScaling/C50xN20-8 	      50	  21000000 ns/op
BenchmarkSimplexScaling/C50xN20-8 	     200	   5000000 ns/op
BenchmarkSimplexScaling/C100xN20-8 	    100	  20000000 ns/op
BenchmarkGridC8N6-8 	      20	  60000000 ns/op
BenchmarkVolatileShave-8 	      10	 130000000 ns/op
BenchmarkDiscretize-8 	   30000	     35000 ns/op
PASS
ok  	repro	2.459s
`

// TestParseKeepsProcsDistinct pins the record key: the same benchmark
// captured at GOMAXPROCS 8 and 1 yields two records that do not collide,
// each remembering the procs it ran under.
func TestParseKeepsProcsDistinct(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath}, strings.NewReader(matrixSample), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	var wide, narrow *Benchmark
	for i := range sum.Benchmarks {
		b := &sum.Benchmarks[i]
		if b.Name != "MPCStep" {
			continue
		}
		switch b.Procs {
		case 8:
			wide = b
		case 1:
			narrow = b
		default:
			t.Errorf("MPCStep record at unexpected procs %d", b.Procs)
		}
	}
	if wide == nil || narrow == nil {
		t.Fatalf("want MPCStep at procs 8 and 1, got wide=%v narrow=%v", wide, narrow)
	}
	if wide.Metrics["ns/op"] != 20000 || narrow.Metrics["ns/op"] != 80000 {
		t.Errorf("procs records swapped or merged: wide %v, narrow %v", wide.Metrics, narrow.Metrics)
	}
	if wide.label() != "MPCStep-8" || narrow.label() != "MPCStep" {
		t.Errorf("labels = %q/%q, want MPCStep-8/MPCStep", wide.label(), narrow.label())
	}
}

// writeMatrixRef writes a reference summary holding MPCStep at two procs
// widths plus the other pins, and returns its path.
func writeMatrixRef(t *testing.T, wideNs, narrowNs float64) string {
	t.Helper()
	ref := Summary{Benchmarks: []Benchmark{
		{Name: "MPCStep", Procs: 8, Iterations: 13000, Metrics: map[string]float64{"ns/op": wideNs}},
		{Name: "MPCStep", Procs: 1, Iterations: 3000, Metrics: map[string]float64{"ns/op": narrowNs}},
		{Name: "ReferenceLP/Warm", Procs: 8, Iterations: 300000, Metrics: map[string]float64{"ns/op": 3200}},
		{Name: "MPCStepScaling/C20xN10", Procs: 8, Iterations: 100, Metrics: map[string]float64{"ns/op": 14000000}},
		{Name: "MPCStepScaling/C50xN20", Procs: 8, Iterations: 50, Metrics: map[string]float64{"ns/op": 21000000}},
		{Name: "SimplexScaling/C50xN20", Procs: 8, Iterations: 200, Metrics: map[string]float64{"ns/op": 5000000}},
		{Name: "SimplexScaling/C100xN20", Procs: 8, Iterations: 100, Metrics: map[string]float64{"ns/op": 20000000}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "matrixref.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckPerfComparesLikeForLikeProcs pins that a parallel record is
// never judged against a serial reference: the -8 and procs-1 captures
// each compare only against the reference at their own width. If the
// serial run (80000 ns/op) were compared against the wide reference
// (19000) it would read as a +321% regression; like-for-like passes.
func TestCheckPerfComparesLikeForLikeProcs(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeMatrixRef(t, 19000, 78000)
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(matrixSample), &stdout); err != nil {
		t.Fatalf("like-for-like matrix comparison: %v", err)
	}
}

// TestCheckPerfRegressionNamesProcs pins that a regression at one width
// is reported under that width's label only: the serial MPCStep capture
// regressed, the parallel one did not.
func TestCheckPerfRegressionNamesProcs(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeMatrixRef(t, 19000, 40000) // serial 80000 vs 40000 = +100%
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(matrixSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("want serial-width regression error, got %v", err)
	}
	if !strings.Contains(err.Error(), "MPCStep:") {
		t.Errorf("regression error does not use the serial label: %v", err)
	}
	if strings.Contains(err.Error(), "MPCStep-8") {
		t.Errorf("regression error blames the healthy parallel record: %v", err)
	}
}

// TestCheckPerfLegacyRefMatchesAnyProcs pins backward compatibility:
// summaries written before procs keying (records carry procs 0) remain
// usable as baselines for records captured at any width.
func TestCheckPerfLegacyRefMatchesAnyProcs(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	// writePerfRef emits no Procs field → legacy 0 records.
	ref := writePerfRef(t, 80000, 3200)
	var stdout bytes.Buffer
	// Both MPCStep widths (20000 and 80000) compare against the legacy
	// 80000 reference; neither regresses.
	if err := run([]string{"-out", outPath, "-check-perf", ref}, strings.NewReader(matrixSample), &stdout); err != nil {
		t.Fatalf("legacy reference vs matrix run: %v", err)
	}
	// And the legacy fallback really compares (not a vacuous skip): shrink
	// the baseline and both widths must regress, under both labels.
	tight := writePerfRef(t, 10000, 3200)
	err := run([]string{"-out", outPath, "-check-perf", tight}, strings.NewReader(matrixSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "MPCStep-8") || !strings.Contains(err.Error(), "MPCStep:") {
		t.Fatalf("legacy fallback did not gate both widths: %v", err)
	}
}

// TestCheckSeriesExactProcsWins pins checksum lookup order: when the
// reference holds the same benchmark at two widths, the record compares
// against its own width first, falling back to name-only matching only
// when no exact record exists.
func TestCheckSeriesExactProcsWins(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := Summary{Benchmarks: []Benchmark{
		// Same name at another width with a drifted checksum: must lose to
		// the exact procs-4 record below.
		{Name: "Fig4Smoothing", Procs: 1, Iterations: 10, Metrics: map[string]float64{"series-sum": 1}},
		{Name: "Fig4Smoothing", Procs: 4, Iterations: 10, Metrics: map[string]float64{"series-sum": 5903135, "MW-sum": 42.5}},
		{Name: "AllExperiments", Procs: 4, Iterations: 1, Metrics: map[string]float64{"series-sum": 5903135}},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(refPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath, "-check-series", refPath}, strings.NewReader(seriesSample), &stdout); err != nil {
		t.Fatalf("exact-procs checksum match: %v", err)
	}
}

// repeatSample is `go test -count 3` output: three lines per benchmark.
const repeatSample = `goos: linux
BenchmarkExpm-2 	  100000	     12000 ns/op	     512 B/op	       3 allocs/op
BenchmarkFig4Smoothing-2 	      10	   9000000 ns/op	 5903135 series-sum	 42.5 MW-sum
BenchmarkExpm-2 	  120000	     10000 ns/op	     512 B/op	       3 allocs/op
BenchmarkFig4Smoothing-2 	      12	  11000000 ns/op	 5903135 series-sum	 42.5 MW-sum
BenchmarkExpm-2 	   90000	     30000 ns/op	     512 B/op	       3 allocs/op
BenchmarkFig4Smoothing-2 	      11	  10000000 ns/op	 5903135 series-sum	 42.5 MW-sum
PASS
ok  	repro	2.459s
`

func TestRepeatsFoldToMedian(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath}, strings.NewReader(repeatSample), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("folded to %d records, want 2 (one per benchmark)", len(sum.Benchmarks))
	}
	expm, fig := sum.Benchmarks[0], sum.Benchmarks[1]
	if expm.Name != "Expm" || fig.Name != "Fig4Smoothing" {
		t.Fatalf("records %q, %q, want first-seen order Expm, Fig4Smoothing", expm.Name, fig.Name)
	}
	// The outlier 30000 ns/op repeat moves neither the median nor the
	// iteration count; it shows in the spread.
	if expm.Runs != 3 || expm.Iterations != 100000 || expm.Metrics["ns/op"] != 12000 || expm.Metrics["allocs/op"] != 3 {
		t.Errorf("Expm = runs %d, %d iters, metrics %v; want 3 runs, 100000 iters, 12000 ns/op, 3 allocs/op",
			expm.Runs, expm.Iterations, expm.Metrics)
	}
	if got, want := expm.Spread["ns/op"], (30000.0-10000)/12000; got != want {
		t.Errorf("Expm ns/op spread %v, want %v", got, want)
	}
	if expm.Spread["allocs/op"] != 0 {
		t.Errorf("Expm allocs/op spread %v, want 0", expm.Spread["allocs/op"])
	}
	if fig.Metrics["ns/op"] != 10000000 || fig.Metrics["series-sum"] != 5903135 || fig.Spread["series-sum"] != 0 {
		t.Errorf("Fig4Smoothing = metrics %v spread %v", fig.Metrics, fig.Spread)
	}
	// -check-perf calibrates with the folded median, not the first sample.
	stdout.Reset()
	ref := Summary{Benchmarks: []Benchmark{{Name: "Expm", Metrics: map[string]float64{"ns/op": 6000}}}}
	refData, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(refPath, refData, 0o644); err != nil {
		t.Fatal(err)
	}
	// The perf gate fails on the missing pins; only its drift line matters.
	_ = run([]string{"-out", outPath, "-check-perf", refPath}, strings.NewReader(repeatSample), &stdout)
	if !strings.Contains(stdout.String(), "machine drift ×2.000") {
		t.Errorf("calibration did not use the median Expm sample:\n%s", stdout.String())
	}
}

func TestRepeatChecksumMismatchFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	ref := writeRef(t, 5903135)
	// The second repeat's series-sum is one off: the median would still
	// match the reference, so the gate must look at the repeats.
	in := strings.Replace(repeatSample, "11000000 ns/op	 5903135 series-sum", "11000000 ns/op	 5903136 series-sum", 1)
	var stdout bytes.Buffer
	err := run([]string{"-out", outPath, "-check-series", ref}, strings.NewReader(in), &stdout)
	if err == nil || !strings.Contains(err.Error(), "differ between repeats") ||
		!strings.Contains(err.Error(), "Fig4Smoothing-2 series-sum") {
		t.Fatalf("want a between-repeats checksum error naming Fig4Smoothing-2 series-sum, got %v", err)
	}
	// The matching stream passes the same gate.
	if err := run([]string{"-out", outPath, "-check-series", ref}, strings.NewReader(repeatSample), &stdout); err != nil {
		t.Fatalf("equal repeats: %v", err)
	}
}

func TestSingleRunWritesNoRepeatFields(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", outPath}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"runs"`, `"spread"`} {
		if bytes.Contains(data, []byte(field)) {
			t.Errorf("one-run summary contains %s:\n%s", field, data)
		}
	}
}

func TestOutputMayBeItsOwnReference(t *testing.T) {
	// A snapshot named as both -out and the reference is compared as it
	// was before this run overwrote it.
	path := writeRef(t, 5903136) // off by one
	var stdout bytes.Buffer
	err := run([]string{"-out", path, "-check-series", path}, strings.NewReader(seriesSample), &stdout)
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("want drift error against the old snapshot, got %v", err)
	}
}
