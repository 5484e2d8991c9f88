package bench

import (
	"math"
	"testing"
)

func TestIndexMin(t *testing.T) {
	for _, tc := range []struct {
		name     string
		episodes [][]float64
		want     []float64
	}{
		{"one episode", [][]float64{{3, 1, 2}}, []float64{3, 1, 2}},
		{"min per index", [][]float64{{3, 1, 2}, {1, 5, 2}, {4, 4, 0.5}}, []float64{1, 1, 0.5}},
		{"short episode leaves the rest", [][]float64{{2}, {1, 7}}, []float64{1, 7, math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newIndexMin(3)
			for _, e := range tc.episodes {
				m.add(e)
			}
			for i, w := range tc.want {
				if m[i] != w {
					t.Fatalf("index %d = %v, want %v", i, m[i], w)
				}
			}
		})
	}
}

func TestQuantileMedianMean(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 2, 8, 4, 6, 10}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := mean(xs); got != 5.5 {
		t.Errorf("mean = %v, want 5.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("empty input must give NaN")
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{2.5, 0.5, 1.5, 9, 4}, 1, 6.5},
		{[]float64{42}, 42, 42},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := BoundMetric{MetricDef: MetricDef{Name: "tick_mean_us", Better: "lower"}, Bound: 0.10}
	higher := BoundMetric{MetricDef: MetricDef{Name: "ticks_per_s", Better: "higher"}, Bound: 0.10}
	exact := BoundMetric{MetricDef: MetricDef{Name: "tick_ok_ratio", Better: "higher"}, Bound: 1e-6}
	for _, tc := range []struct {
		name string
		m    BoundMetric
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, Unchanged},
		{"within bound", lower, []float64{100, 101, 99, 100}, []float64{105, 106, 104, 105}, Unchanged},
		{"slower", lower, []float64{100, 101, 99, 100}, []float64{115, 116, 114, 115}, Regressed},
		{"faster", lower, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, Improved},
		{"throughput drop", higher, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, Regressed},
		{"throughput gain", higher, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, Improved},
		{"too noisy", lower, []float64{70, 130, 100, 90, 110}, []float64{100, 100, 100, 100, 100}, Unresolved},
		{"noisy but every run better", lower, []float64{70, 130, 100, 90, 110}, []float64{60, 61, 62, 60, 61}, Improved},
		{"all ticks ok", exact, []float64{1, 1, 1}, []float64{1, 1, 1}, Unchanged},
		{"failed ticks in one run", exact, []float64{1, 1, 1}, []float64{1, 0.99999, 1}, Unresolved},
		{"failed ticks in every run", exact, []float64{1, 1, 1}, []float64{0.9999, 0.9999, 0.9999}, Regressed},
		{"zero median", lower, []float64{0, 0, 0}, []float64{0, 0, 0}, Unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := verdict(tc.m, summarize(tc.a), summarize(tc.b))
			if c.Verdict != tc.want {
				t.Fatalf("verdict %s (change %.4f, spread %.4f), want %s", c.Verdict, c.Change, c.Spread, tc.want)
			}
		})
	}
}
