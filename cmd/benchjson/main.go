// Command benchjson converts `go test -bench` text output into a JSON
// summary for benchmark-regression tracking. It reads the benchmark stream
// on stdin, passes every line through to stdout unchanged (so the pipe stays
// human-readable), and writes the parsed results to -out:
//
//	go test -run XXX -bench . -benchmem . | benchjson -out BENCH.json
//
// Each benchmark line ("BenchmarkName-P  iters  v1 unit1  v2 unit2 ...")
// becomes one record keyed by (name, procs): the "-P" GOMAXPROCS suffix is
// parsed into the record's procs field (1 when absent, as `go test` only
// appends it when GOMAXPROCS ≠ 1), so the same benchmark captured at
// different GOMAXPROCS values yields distinct, comparable records instead
// of colliding. Value/unit pairs — including custom b.ReportMetric units
// such as the figure checksums — land in the metrics map verbatim.
// Repeated lines of one key (`go test -count N`) fold into one record:
// each metric is the median of its repeats, and the record carries the
// repeat count and each metric's relative spread. benchjson exits nonzero
// when the stream contains a test failure, so `make bench` fails loudly
// instead of writing a partial file.
//
// Two regression gates compare the parsed run against a previous summary:
// -check-series fails on any bit drift of the deterministic series-sum /
// MW-sum checksums, between the repeats of one run or against the
// reference (machine-independent; wired into CI), and -check-perf
// fails when a pinned hot benchmark (MPCStep, the warm reference LP, the
// solver scaling points) regresses in ns/op beyond tolerance — after
// normalizing out machine drift via the frozen Expm calibration benchmark
// — or when a pinned same-snapshot ratio (the structured-vs-dense MPC
// payoff) falls below its floor (same-machine comparisons only; wired
// into `make bench`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line, keyed by (Name, Procs).
type Benchmark struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran under (the "-P" suffix of
	// the raw line; 1 when the suffix is absent). Summaries written before
	// procs keying carry 0 here, which comparisons treat as "matches any
	// procs" so old references stay usable.
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Runs is the number of repeats folded into this record; Iterations
	// and every metric are then the median over them. Omitted for a
	// single run.
	Runs int `json:"runs,omitempty"`
	// Spread holds each metric's (max−min)/|median| over the repeats; a
	// metric whose median is zero but whose repeats differ has none.
	// Omitted for a single run.
	Spread map[string]float64 `json:"spread,omitempty"`
}

// label renders a record's display name in the `go test` convention:
// "Name-P" when it ran at GOMAXPROCS P ≠ 1.
func (b *Benchmark) label() string {
	if b.Procs > 1 {
		return fmt.Sprintf("%s-%d", b.Name, b.Procs)
	}
	return b.Name
}

// Summary is the file written to -out.
type Summary struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the JSON summary to this file (required)")
	checkPath := fs.String("check-series", "", "compare series-sum/MW-sum checksums against this reference summary and fail on any drift")
	perfPath := fs.String("check-perf", "", "compare the pinned hot benchmarks' ns/op against this reference summary and fail on a regression beyond the calibrated tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("-out is required")
	}

	var sum Summary
	var lines []Benchmark
	failed := false
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			sum.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			sum.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			sum.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			sum.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "--- FAIL") || line == "FAIL" || strings.HasPrefix(line, "FAIL\t"):
			failed = true
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				lines = append(lines, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	sum.Benchmarks = foldRepeats(lines)

	// Read the references before -out is written: a snapshot may be its
	// own reference, and the gates compare against what it held before.
	seriesRef, seriesErr := readRef("check-series", *checkPath)
	perfRef, perfErr := readRef("check-perf", *perfPath)
	data, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("benchmark stream reported FAIL")
	}
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	if *checkPath != "" {
		if seriesErr != nil {
			return seriesErr
		}
		if err := checkRepeats(lines); err != nil {
			return err
		}
		if err := checkSeries(&sum, seriesRef, *checkPath); err != nil {
			return err
		}
	}
	if *perfPath != "" {
		if perfErr != nil {
			return perfErr
		}
		return checkPerf(&sum, perfRef, *perfPath, out)
	}
	return nil
}

// readRef loads the reference summary a gate flag names; an empty path
// reads nothing.
func readRef(gate, path string) (*Summary, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", gate, err)
	}
	var ref Summary
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s %s: %w", gate, path, err)
	}
	return &ref, nil
}

// perfPinned names the hot benchmarks whose ns/op is pinned against the
// previous snapshot: the fast-loop MPC solve and the warm reference LP —
// the two per-step paths with a real-time budget — plus the planet-scale
// solver-kernel benchmarks (the structured MPC step and the revised-simplex
// scaling points), which exist precisely to keep the large-topology story
// honest. Everything else is tracked but not gated (cold paths and figure
// regenerations are allowed to grow as the codebase does).
var perfPinned = []string{
	"MPCStep",
	"ReferenceLP/Warm",
	"MPCStepScaling/C20xN10",
	"MPCStepScaling/C50xN20",
	"SimplexScaling/C50xN20",
	"SimplexScaling/C100xN20",
}

// perfTolerance is the allowed fractional calibrated ns/op growth before
// checkPerf fails. Perf comparisons only make sense between runs on the
// same machine, so this gate belongs in `make bench`, not cross-machine
// CI — and even same-machine runs see ±15–20% minute-scale drift on
// shared hardware (frequency scaling, noisy neighbors), which hits
// benchmarks at different points of a long run differently, so even the
// Expm-calibrated comparison carries residual noise. 35% is wide enough
// that the gate never cries wolf on a clean tree, and tight enough to
// catch the structural regressions it exists for (an accidental O(n)
// → O(n²) hot path, a lost cache). Gradual creep is caught in review by
// diffing the committed BENCH_*.json snapshots.
const perfTolerance = 0.35

// perfCalibration names the benchmark used to normalize out machine
// drift between the current run and the reference snapshot: Expm runs a
// fixed 4×4 matrix exponential — below every blocked-kernel dispatch
// threshold, allocation-stable, and untouched since the seed — so any
// change in its ns/op between two snapshots measures the machine, not
// the code. When it is present in both summaries, every pinned
// comparison divides the current ns/op by the drift ratio first.
const perfCalibration = "Expm"

// perfRatioPins are same-snapshot ns/op ratio floors: num must be at
// most maxFrac of den within the *current* run, at the same GOMAXPROCS.
// Ratios between two lines of one snapshot are machine-independent, so
// they encode the claim the solver-kernel work is sold on: the
// structured condensed-QP path must beat the ForceDense control at the
// planet-scale topology by ≥5×. A pin is skipped when either side is
// absent (CI's -short bench-smoke skips the expensive dense control).
var perfRatioPins = []struct {
	num, den string
	maxFrac  float64
}{
	{"MPCStepScaling/C50xN20", "MPCStepScalingDense/C50xN20", 0.20},
}

// checkPerf compares the pinned benchmarks' ns/op against the reference
// summary ref, read from path, and fails when any regressed beyond
// perfTolerance after drift calibration, or when a same-snapshot ratio pin
// misses its floor. A pinned benchmark missing from the current run is an
// error (the gate must not pass vacuously); one missing from the reference
// is skipped (first snapshot that includes it).
func checkPerf(sum, ref *Summary, path string, out io.Writer) error {
	nsPerOp := func(b *Benchmark) (float64, bool) {
		if b == nil {
			return 0, false
		}
		v, ok := b.Metrics["ns/op"]
		return v, ok
	}
	drift := 1.0
	if cal := firstNamed(sum, perfCalibration); cal != nil {
		if refCal, ok := matchRef(ref, perfCalibration, cal.Procs); ok {
			cur, okC := nsPerOp(cal)
			prev, okR := nsPerOp(refCal)
			if okC && okR && prev > 0 && cur > 0 {
				drift = cur / prev
				fmt.Fprintf(out, "benchjson: check-perf: machine drift ×%.3f vs %s (%s %.0f → %.0f ns/op)\n",
					drift, path, perfCalibration, prev, cur)
			}
		}
	}
	var regressions []string
	for _, name := range perfPinned {
		curs := allNamed(sum, name)
		if len(curs) == 0 {
			return fmt.Errorf("check-perf: pinned benchmark %s missing from the current run", name)
		}
		// Like-for-like: each current record compares only against the
		// reference record at the same GOMAXPROCS (or a legacy procs-less
		// reference record, which matches any).
		for _, cur := range curs {
			got, ok := nsPerOp(cur)
			if !ok {
				return fmt.Errorf("check-perf: pinned benchmark %s has no ns/op", cur.label())
			}
			refB, ok := matchRef(ref, name, cur.Procs)
			if !ok {
				continue
			}
			want, ok := nsPerOp(refB)
			if !ok {
				continue
			}
			calibrated := got / drift
			if calibrated > want*(1+perfTolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op (calibrated %.0f) vs reference %.0f (+%.1f%%, tolerance %.0f%%)",
						cur.label(), got, calibrated, want, 100*(calibrated/want-1), 100*perfTolerance))
			}
		}
	}
	for _, pin := range perfRatioPins {
		// Both sides of a ratio must come from the same GOMAXPROCS within
		// the current run; a pin is skipped when its counterpart is absent.
		for _, num := range allNamed(sum, pin.num) {
			den := atProcs(sum, pin.den, num.Procs)
			numNs, okN := nsPerOp(num)
			denNs, okD := nsPerOp(den)
			if !okN || !okD || denNs <= 0 {
				continue
			}
			if numNs > denNs*pin.maxFrac {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op is %.1f%% of %s (%.0f ns/op); pinned at ≤%.0f%% (≥%.1f× speedup)",
						num.label(), numNs, 100*numNs/denNs, den.label(), denNs, 100*pin.maxFrac, 1/pin.maxFrac))
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("check-perf: hot-path regression vs %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	return nil
}

// firstNamed returns the first record named name regardless of procs, or
// nil.
func firstNamed(s *Summary, name string) *Benchmark {
	for i := range s.Benchmarks {
		if s.Benchmarks[i].Name == name {
			return &s.Benchmarks[i]
		}
	}
	return nil
}

// allNamed returns every record named name, one per GOMAXPROCS it ran at.
func allNamed(s *Summary, name string) []*Benchmark {
	var out []*Benchmark
	for i := range s.Benchmarks {
		if s.Benchmarks[i].Name == name {
			out = append(out, &s.Benchmarks[i])
		}
	}
	return out
}

// atProcs returns the record with exactly (name, procs), or nil.
func atProcs(s *Summary, name string, procs int) *Benchmark {
	for i := range s.Benchmarks {
		if b := &s.Benchmarks[i]; b.Name == name && b.Procs == procs {
			return b
		}
	}
	return nil
}

// matchRef finds the reference record comparable to a current (name,
// procs) record: an exact procs match wins; a reference written before
// procs keying (records carry procs 0) matches any procs so old snapshots
// remain usable as baselines.
func matchRef(ref *Summary, name string, procs int) (*Benchmark, bool) {
	var legacy *Benchmark
	for i := range ref.Benchmarks {
		b := &ref.Benchmarks[i]
		if b.Name != name {
			continue
		}
		if b.Procs == procs {
			return b, true
		}
		if b.Procs == 0 && legacy == nil {
			legacy = b
		}
	}
	return legacy, legacy != nil
}

// checksumUnit reports whether a metric unit is a result checksum —
// deterministic by construction, so any drift between runs is a behavior
// change, not noise.
func checksumUnit(unit string) bool {
	return strings.HasSuffix(unit, "series-sum") || strings.HasSuffix(unit, "MW-sum")
}

// checkSeries compares every checksum metric present in both sum and the
// reference summary ref, read from path, bit-exactly. Timing metrics
// (ns/op, B/op …) are machine-dependent and ignored; checksums must not
// move at all.
func checkSeries(sum, ref *Summary, path string) error {
	// Exact (name, procs, unit) matches win; when the reference has no
	// record at the current record's procs — a legacy procs-less snapshot,
	// or a snapshot taken at a different GOMAXPROCS — any record of the
	// same name stands in, because checksums are deterministic series sums
	// that may not depend on procs at all (that independence being exactly
	// what this gate enforces).
	exact := make(map[string]float64)
	byName := make(map[string]float64)
	for _, b := range ref.Benchmarks {
		for unit, v := range b.Metrics {
			if checksumUnit(unit) {
				exact[fmt.Sprintf("%s\x00%d\x00%s", b.Name, b.Procs, unit)] = v
				if _, seen := byName[b.Name+"\x00"+unit]; !seen {
					byName[b.Name+"\x00"+unit] = v
				}
			}
		}
	}
	var mismatches []string
	compared := 0
	for _, b := range sum.Benchmarks {
		//lint:ignore maporder mismatches are sorted before joining into the error
		for unit, v := range b.Metrics {
			if !checksumUnit(unit) {
				continue
			}
			want, ok := exact[fmt.Sprintf("%s\x00%d\x00%s", b.Name, b.Procs, unit)]
			if !ok {
				want, ok = byName[b.Name+"\x00"+unit]
			}
			if !ok {
				continue // new benchmark: nothing to compare against
			}
			compared++
			//lint:ignore floateq checksums are deterministic; any ulp of drift is a real behavior change
			if v != want {
				mismatches = append(mismatches,
					fmt.Sprintf("%s %s: got %v, reference %v", b.label(), unit, v, want))
			}
		}
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		return fmt.Errorf("check-series: %d checksum(s) drifted from %s:\n  %s",
			len(mismatches), path, strings.Join(mismatches, "\n  "))
	}
	if compared == 0 {
		return fmt.Errorf("check-series: no common checksum metrics with %s", path)
	}
	return nil
}

// foldRepeats merges the records that share a (name, procs) key — the
// repeats `go test -count N` prints — into one record per key, in the
// order the keys first appear. A key seen once passes through unchanged.
func foldRepeats(lines []Benchmark) []Benchmark {
	type key struct {
		name  string
		procs int
	}
	groups := make(map[key][]Benchmark)
	var order []key
	for _, b := range lines {
		k := key{b.Name, b.Procs}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		reps := groups[k]
		if len(reps) == 1 {
			out = append(out, reps[0])
			continue
		}
		iters := make([]float64, len(reps))
		values := make(map[string][]float64)
		var units []string
		for i, b := range reps {
			iters[i] = float64(b.Iterations)
			//lint:ignore maporder units is sorted below; each unit's values follow repeat order
			for unit, v := range b.Metrics {
				if _, seen := values[unit]; !seen {
					units = append(units, unit)
				}
				values[unit] = append(values[unit], v)
			}
		}
		sort.Strings(units)
		folded := Benchmark{
			Name: k.name, Procs: k.procs,
			Iterations: int64(math.Round(median(iters))),
			Metrics:    make(map[string]float64, len(units)),
			Runs:       len(reps),
			Spread:     make(map[string]float64, len(units)),
		}
		for _, unit := range units {
			vs := values[unit]
			med := median(vs)
			folded.Metrics[unit] = med
			// median left vs sorted: its ends are the min and the max. A
			// zero median has no relative spread unless the repeats agree.
			switch d := vs[len(vs)-1] - vs[0]; {
			case d <= 0:
				folded.Spread[unit] = 0
			case math.Abs(med) > 0:
				folded.Spread[unit] = d / math.Abs(med)
			}
		}
		out = append(out, folded)
	}
	return out
}

// median sorts vs in place and returns its median (the mean of the two
// middle values for an even count).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// checkRepeats fails when a checksum metric takes different values in the
// repeats of one (name, procs): checksums are deterministic, so a repeat
// that disagrees is a behavior change within the run, which a median
// would hide.
func checkRepeats(lines []Benchmark) error {
	first := make(map[string]float64)
	var mismatches []string
	for _, b := range lines {
		//lint:ignore maporder mismatches are sorted before joining into the error
		for unit, v := range b.Metrics {
			if !checksumUnit(unit) {
				continue
			}
			k := fmt.Sprintf("%s %s", b.label(), unit)
			want, seen := first[k]
			if !seen {
				first[k] = v
				continue
			}
			//lint:ignore floateq checksums are deterministic; any ulp of drift is a real behavior change
			if v != want {
				mismatches = append(mismatches, fmt.Sprintf("%s: repeat got %v, first run %v", k, v, want))
			}
		}
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		return fmt.Errorf("check-series: %d checksum(s) differ between repeats:\n  %s",
			len(mismatches), strings.Join(mismatches, "\n  "))
	}
	return nil
}

// parseBenchLine parses "BenchmarkName-P  iters  value unit [value unit ...]".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	name := fields[0]
	// The bench runner appends a -GOMAXPROCS suffix when procs ≠ 1; parse
	// it into the record key so runs at different widths stay distinct.
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			procs = p
			name = name[:i]
		}
	}
	name = strings.TrimPrefix(name, "Benchmark")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	metrics := make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		metrics[fields[i+1]] = v
	}
	return Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: metrics}, true
}
