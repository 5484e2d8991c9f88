package feed

import (
	"math"
	"math/rand"
	"testing"
)

// naiveStats recomputes mean and sample σ of window from scratch — the
// oracle the O(1) sliding update is checked against.
func naiveStats(window []float64) (mean, sigma float64) {
	n := len(window)
	if n == 0 {
		return 0, 0
	}
	for _, x := range window {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var m2 float64
	for _, x := range window {
		m2 += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(m2 / float64(n-1))
}

func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name   string
		window int
		series []float64
	}{
		{"partial-window", 8, []float64{3, 1, 4, 1, 5}},
		{"exact-window", 4, []float64{2, 7, 1, 8}},
		{"slides-once", 3, []float64{1, 2, 3, 4}},
		{"slides-many", 4, []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}},
		{"constant", 5, []float64{6, 6, 6, 6, 6, 6, 6, 6}},
		{"window-one", 1, []float64{1, 100, -7}},
		{"mixed-scale", 6, func() []float64 {
			s := make([]float64, 40)
			for i := range s {
				s[i] = 1e6 + 50*rng.NormFloat64()
			}
			return s
		}()},
		{"negative-and-tiny", 5, []float64{-1e-9, 2e-9, -3e-9, 4e-9, -5e-9, 6e-9, -7e-9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWelford(tc.window)
			for i, x := range tc.series {
				w.Observe(x)
				lo := 0
				if i+1 > tc.window {
					lo = i + 1 - tc.window
				}
				wantMean, wantSigma := naiveStats(tc.series[lo : i+1])
				if wantN := i + 1 - lo; w.N() != wantN {
					t.Fatalf("after %d samples: N = %d, want %d", i+1, w.N(), wantN)
				}
				// The sliding update loses at most a few ulps to the oracle.
				tol := 1e-9 * (1 + math.Abs(wantMean))
				if math.Abs(w.Mean()-wantMean) > tol {
					t.Fatalf("after %d samples: Mean = %g, want %g", i+1, w.Mean(), wantMean)
				}
				if math.Abs(w.Sigma()-wantSigma) > tol {
					t.Fatalf("after %d samples: Sigma = %g, want %g", i+1, w.Sigma(), wantSigma)
				}
			}
		})
	}
}

func TestWelfordWindowClamp(t *testing.T) {
	w := NewWelford(0) // clamps to 1
	w.Observe(3)
	w.Observe(9)
	if w.N() != 1 || w.Mean() != 9 {
		t.Fatalf("N = %d, Mean = %g; want the single freshest sample", w.N(), w.Mean())
	}
}

func TestSpikeDetector(t *testing.T) {
	cases := []struct {
		name   string
		series []float64
		// want is the expected latch state after each observation.
		want []bool
	}{
		{
			// A 100σ outlier on a noisy baseline latches, and the latch
			// releases as soon as normal observations resume.
			name:   "glitch-latches-then-releases",
			series: []float64{10, 11, 9, 10, 1000, 10, 11},
			want:   []bool{false, false, false, false, true, false, false},
		},
		{
			// Below three baseline samples nothing is judged.
			name:   "warmup-passes-everything",
			series: []float64{5, 5000},
			want:   []bool{false, false},
		},
		{
			// A constant baseline has σ = 0; the sigma floor keeps the
			// deviation test meaningful instead of vacuous.
			name:   "flat-baseline-still-detects",
			series: []float64{50, 50, 50, 50, 51},
			want:   []bool{false, false, false, false, true},
		},
		{
			// Ordinary noise never trips the 4σ gate.
			name:   "noise-stays-nominal",
			series: []float64{10, 12, 9, 11, 10, 12, 9, 11, 10},
			want:   []bool{false, false, false, false, false, false, false, false, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewSpikeDetector(8, 4, 2)
			for i, x := range tc.series {
				if got := d.Observe(x); got != tc.want[i] {
					t.Fatalf("after %v: Latched = %v, want %v", tc.series[:i+1], got, tc.want[i])
				}
				if d.Latched() != tc.want[i] {
					t.Fatalf("Latched() disagrees with Observe at sample %d", i)
				}
			}
		})
	}
}

func TestSpikeDetectorHysteresis(t *testing.T) {
	// Baseline σ ≈ 1 around mean 10. A spike to 10+6σ latches (enter 4σ);
	// an excursion that falls back to ~3σ — above the 2σ exit — must hold
	// the latch, and only a return inside 2σ releases it.
	d := NewSpikeDetector(16, 4, 2)
	for _, x := range []float64{9, 10, 11, 10, 9, 10, 11, 10} {
		if d.Observe(x) {
			t.Fatalf("baseline latched at %g", x)
		}
	}
	mean, sigma := d.stats.Mean(), d.stats.Sigma()
	if !d.Observe(mean + 6*sigma) {
		t.Fatal("6σ spike did not latch")
	}
	// The spike itself entered the window, so re-read the stats: the hover
	// must sit between the 2σ exit and 4σ enter thresholds of the window the
	// next observation is judged against.
	mean, sigma = d.stats.Mean(), d.stats.Sigma()
	if !d.Observe(mean + 3*sigma) {
		t.Fatal("3σ hover released the latch (flapping): exit is 2σ")
	}
	if d.Observe(d.stats.Mean()) {
		t.Fatal("return to the mean did not release the latch")
	}
}

func TestSpikeDetectorThresholdClamps(t *testing.T) {
	d := NewSpikeDetector(4, 0, 0)
	if d.enter != defaultSpikeEnterSigma || d.exit != defaultSpikeExitSigma {
		t.Fatalf("defaults = (%g, %g), want (%g, %g)",
			d.enter, d.exit, defaultSpikeEnterSigma, defaultSpikeExitSigma)
	}
	// exit >= enter would make the latch unreleasable; it clamps to enter/2.
	d = NewSpikeDetector(4, 3, 7)
	if d.exit >= d.enter {
		t.Fatalf("exit %g not clamped below enter %g", d.exit, d.enter)
	}
}
