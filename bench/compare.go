package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// Spec is the part of the benchmark definition in BENCHMARK.json that the
// comparison and the tests read.
type Spec struct {
	Workloads []SpecLoad    `json:"workloads"`
	EndToEnd  []BoundMetric `json:"end_to_end"`
	PerLayer  []MetricDef   `json:"per_layer"`
}

// SpecLoad is one workload entry of the spec.
type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// BoundMetric is an end-to-end metric with the share of the parent's
// median by which it may worsen before a change counts as a regression.
type BoundMetric struct {
	MetricDef
	Bound float64 `json:"bound"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// Record is one run in a results file.
type Record struct {
	Settings Settings `json:"settings"`
	Result   Result   `json:"result"`
}

// Results is a set of recorded runs of one commit.
type Results struct {
	Runs []Record `json:"runs"`
}

// LoadResults reads a results file.
func LoadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// AppendResult adds one run to the results file at path, creating it.
func AppendResult(path string, rec Record) error {
	r, err := LoadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &Results{}, nil
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, rec)
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Verdicts of a comparison, per choosing-metrics §6.5.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Summary is the median and quartiles of one metric over a set of runs.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
	values         []float64
}

func summarize(xs []float64) Summary {
	q1, q3 := quartiles(xs)
	return Summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3, values: xs}
}

// calibrationTolerance is how far apart, as a share of A's, the two sides'
// median calibration kernel times may be before a timing pair is left
// unresolved: a change of machine speed moves the tick times of different
// workloads by different factors, up to about twice its own size.
const calibrationTolerance = 0.05

// timing reports whether a metric is a wall time or a rate, which move with
// the machine's speed.
func timing(m MetricDef) bool {
	return m.Unit == "us" || m.Unit == "s" || m.Unit == "1/s"
}

// Comparison is the verdict on one (workload, metric) pair.
type Comparison struct {
	Workload string
	Metric   BoundMetric
	A, B     Summary
	// CalA and CalB are the two sides' median calibration kernel times.
	CalA, CalB float64
	// Change is how much worse B's median is than A's, as a share of A's
	// (negative: better); Spread is the wider of the two relative
	// interquartile ranges.
	Change, Spread float64
	Verdict        string
}

// verdict applies the bound: a spread wider than the bound is unresolved
// unless every B run beats every A run; otherwise a median worse by more
// than the bound regressed and one better by more than it improved.
func verdict(m BoundMetric, a, b Summary) Comparison {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	scale := math.Abs(a.Median)
	//lint:ignore floateq an exactly-zero median falls back to absolute differences
	if scale == 0 {
		scale = 1
	}
	c := Comparison{Metric: m, A: a, B: b}
	c.Change = sign * (b.Median - a.Median) / scale
	c.Spread = math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / scale
	switch {
	case c.Spread > m.Bound:
		c.Verdict = Unresolved
		if allBetter(m, a.values, b.values) {
			c.Verdict = Improved
		}
	case c.Change > m.Bound:
		c.Verdict = Regressed
	case -c.Change > m.Bound:
		c.Verdict = Improved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m BoundMetric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if m.Better == "higher" {
		return minOf(b) > maxOf(a)
	}
	return maxOf(b) < minOf(a)
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := xs[0]
	for _, x := range xs[1:] {
		v = min(v, x)
	}
	return v
}

func maxOf(xs []float64) float64 {
	v := math.Inf(-1)
	for _, x := range xs {
		v = math.Max(v, x)
	}
	return v
}

// Compare judges every (workload, end-to-end metric) pair present in the
// untraced runs of both result sets. Runs that failed an output check are
// included: their tick_ok_ratio is what shows the failure. A timing pair
// whose sides ran at machine speeds further apart than
// calibrationTolerance is unresolved, whatever its medians.
func Compare(spec *Spec, a, b *Results) []Comparison {
	va, vb := byWorkload(a), byWorkload(b)
	var out []Comparison
	for _, w := range spec.Workloads {
		ra, rb := va[w.Name], vb[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		calA, calB := median(ra.cal), median(rb.cal)
		speedMoved := !(math.Abs(calB-calA) <= calibrationTolerance*calA)
		for _, m := range spec.EndToEnd {
			xa, xb := ra.metrics[m.Name], rb.metrics[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := verdict(m, summarize(xa), summarize(xb))
			c.Workload = w.Name
			c.CalA, c.CalB = calA, calB
			if speedMoved && timing(m.MetricDef) {
				c.Verdict = Unresolved
			}
			out = append(out, c)
		}
	}
	return out
}

// runSet is one workload's untraced runs: metric values by name, and each
// run's calibration kernel time.
type runSet struct {
	metrics map[string][]float64
	cal     []float64
}

// byWorkload groups the untraced runs by workload.
func byWorkload(r *Results) map[string]*runSet {
	out := map[string]*runSet{}
	for _, rec := range r.Runs {
		if rec.Settings.Trace {
			continue
		}
		w := out[rec.Settings.Workload]
		if w == nil {
			w = &runSet{metrics: map[string][]float64{}}
			out[rec.Settings.Workload] = w
		}
		w.cal = append(w.cal, rec.Settings.CalibrationUS)
		//lint:ignore maporder each key appends to its own slice, in run order
		for name, v := range rec.Result.Metrics {
			w.metrics[name] = append(w.metrics[name], v.Value)
		}
	}
	return out
}

// WriteComparison prints one row per workload with each verdict's metrics,
// then every pair in detail. It reports whether any pair regressed or was
// unresolved.
func WriteComparison(w io.Writer, cs []Comparison) (bad bool) {
	// Compare emits each workload's pairs together, in spec order.
	type row struct {
		workload   string
		calA, calB float64
		verdicts   map[string][]string
	}
	var rows []*row
	for _, c := range cs {
		if len(rows) == 0 || rows[len(rows)-1].workload != c.Workload {
			rows = append(rows, &row{workload: c.Workload, calA: c.CalA, calB: c.CalB, verdicts: map[string][]string{}})
		}
		r := rows[len(rows)-1]
		r.verdicts[c.Verdict] = append(r.verdicts[c.Verdict], c.Metric.Name)
		bad = bad || c.Verdict == Regressed || c.Verdict == Unresolved
	}
	fmt.Fprintf(w, "%-16s %-9s %-9s %-10s %-10s %s\n", "workload", "improved", "unchanged", "regressed", "unresolved", "calibration A/B us")
	for _, r := range rows {
		v := r.verdicts
		fmt.Fprintf(w, "%-16s %-9d %-9d %-10d %-10d %.1f/%.1f", r.workload, len(v[Improved]), len(v[Unchanged]), len(v[Regressed]), len(v[Unresolved]), r.calA, r.calB)
		for _, verdict := range []string{Improved, Regressed, Unresolved} {
			if len(v[verdict]) > 0 {
				fmt.Fprintf(w, "  %s: %v", verdict, v[verdict])
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%-16s %-16s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+8.2f%% %8.2f%% %6.2g%%  %s\n",
			c.Workload, c.Metric.Name, c.A.Median, c.B.Median, 100*c.Change, 100*c.Spread, 100*c.Metric.Bound, c.Verdict)
	}
	return bad
}
