package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Fatalf("Mean = %g", m)
	}
	if p := Peak(xs); p != 4 {
		t.Fatalf("Peak = %g", p)
	}
	if m := Min(xs); m != 1 {
		t.Fatalf("Min = %g", m)
	}
}

func TestEmptySeries(t *testing.T) {
	if Mean(nil) != 0 || Peak(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty series stats should be 0")
	}
	if Diffs([]float64{1}) != nil {
		t.Fatal("Diffs of singleton should be nil")
	}
	if Volatility([]float64{5}) != 0 || MaxStep(nil) != 0 {
		t.Fatal("degenerate volatility should be 0")
	}
}

func TestDiffsAndVolatility(t *testing.T) {
	xs := []float64{0, 3, 3, 7}
	d := Diffs(xs)
	want := []float64{3, 0, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diffs = %v", d)
		}
	}
	// RMS of (3, 0, 4) = sqrt(25/3).
	if v := Volatility(xs); math.Abs(v-math.Sqrt(25.0/3.0)) > 1e-12 {
		t.Fatalf("Volatility = %g", v)
	}
	if m := MaxStep(xs); m != 4 {
		t.Fatalf("MaxStep = %g", m)
	}
	if m := MaxStep([]float64{10, 3}); m != 7 {
		t.Fatalf("MaxStep downstep = %g", m)
	}
}

func TestViolations(t *testing.T) {
	xs := []float64{1, 5, 3, 6}
	v := Violations(xs, 4, 2)
	if v.Steps != 2 {
		t.Fatalf("Steps = %d", v.Steps)
	}
	if v.MaxExcess != 2 {
		t.Fatalf("MaxExcess = %g", v.MaxExcess)
	}
	if v.IntegralExcess != (1+2)*2 {
		t.Fatalf("IntegralExcess = %g", v.IntegralExcess)
	}
	if v.Fraction != 0.5 {
		t.Fatalf("Fraction = %g", v.Fraction)
	}
	if z := Violations(xs, 0, 1); z.Steps != 0 {
		t.Fatal("zero budget must mean unconstrained")
	}
}

func TestRMSEAndMAPE(t *testing.T) {
	r, err := RMSE([]float64{1, 2}, []float64{1, 4})
	if err != nil {
		t.Fatalf("RMSE: %v", err)
	}
	if math.Abs(r-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("RMSE = %g", r)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("mismatched RMSE: %v", err)
	}
	m, err := MAPE([]float64{10, 0, 20}, []float64{11, 5, 18})
	if err != nil {
		t.Fatalf("MAPE: %v", err)
	}
	// (0.1 + 0.1)/2, zero actual skipped.
	if math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("MAPE = %g", m)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("all-zero MAPE: %v", err)
	}
}

func TestSummarizeAndCompare(t *testing.T) {
	control := Summarize([]float64{2, 3, 4, 5})
	baseline := Summarize([]float64{2, 8, 2, 8})
	if control.FinalValue != 5 {
		t.Fatalf("FinalValue = %g", control.FinalValue)
	}
	// The control series moves by 1 per step where the baseline jumps by
	// 6, and peaks at 5 against 8.
	if control.MaxStep != 1 || baseline.MaxStep != 6 {
		t.Fatalf("MaxStep = %g vs %g, want 1 vs 6", control.MaxStep, baseline.MaxStep)
	}
	if control.Peak != 5 || baseline.Peak != 8 || control.Min != 2 || baseline.Mean != 5 {
		t.Fatalf("control %+v, baseline %+v", control, baseline)
	}
}

func TestPropertyVolatilityInvariantToOffset(t *testing.T) {
	f := func(seed int64) bool {
		xs := []float64{float64(seed % 10), float64(seed % 7), float64(seed % 3), float64(seed % 13)}
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + 1000
		}
		return math.Abs(Volatility(xs)-Volatility(shifted)) < 1e-9 &&
			math.Abs(MaxStep(xs)-MaxStep(shifted)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPeakAtLeastMean(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound the magnitude so the mean's sum cannot overflow.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		return Peak(xs) >= Mean(xs) && Min(xs) <= Mean(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
