package power

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// UtilizationModel is the paper's eq. (5): P(f, U) = A3·f·U + A2·f + A1·U + A0.
type UtilizationModel struct {
	A0, A1, A2, A3 float64
}

// Reduce converts the utilization model at a fixed CPU frequency f into the
// workload-linear form of eq. (6) using U = λ/f:
//
//	b0 = a2·f + a0,  b1 = a3 + a1/f.
func (u UtilizationModel) Reduce(freq float64) (ServerModel, error) {
	if freq <= 0 {
		return ServerModel{}, fmt.Errorf("frequency %g: %w", freq, ErrBadModel)
	}
	return ServerModel{
		B0: u.A2*freq + u.A0,
		B1: u.A3 + u.A1/freq,
	}, nil
}

// Sample is one power measurement at a frequency/utilization operating point.
type Sample struct {
	Freq, Util, Watts float64
}

// FitUtilizationModel performs the paper's curve-fitting step: an ordinary
// least-squares fit of eq. (5) over measured samples. At least four samples
// spanning distinct (f, U) points are required.
func FitUtilizationModel(samples []Sample) (UtilizationModel, error) {
	if len(samples) < 4 {
		return UtilizationModel{}, fmt.Errorf("need ≥ 4 samples, got %d: %w", len(samples), ErrBadModel)
	}
	design := mat.Zeros(len(samples), 4)
	y := make([]float64, len(samples))
	for i, s := range samples {
		design.Set(i, 0, 1)
		design.Set(i, 1, s.Util)
		design.Set(i, 2, s.Freq)
		design.Set(i, 3, s.Freq*s.Util)
		y[i] = s.Watts
	}
	coef, err := mat.LeastSquares(design, y)
	if err != nil {
		return UtilizationModel{}, fmt.Errorf("power: fit: %w", err)
	}
	return UtilizationModel{A0: coef[0], A1: coef[1], A2: coef[2], A3: coef[3]}, nil
}

func TestNewServerModelPaperValues(t *testing.T) {
	// Paper experiment: 150 W idle, 285 W at peak rate µ.
	for _, mu := range []float64{2, 1.25, 1.75} {
		m, err := NewServerModel(150, 285, mu)
		if err != nil {
			t.Fatalf("NewServerModel: %v", err)
		}
		if m.B0 != 150 {
			t.Fatalf("B0 = %g, want 150", m.B0)
		}
		if math.Abs(m.Power(mu)-285) > 1e-9 {
			t.Fatalf("Power(µ) = %g, want 285", m.Power(mu))
		}
	}
}

func TestNewServerModelErrors(t *testing.T) {
	if _, err := NewServerModel(-1, 285, 2); !errors.Is(err, ErrBadModel) {
		t.Fatalf("negative idle: %v", err)
	}
	if _, err := NewServerModel(300, 285, 2); !errors.Is(err, ErrBadModel) {
		t.Fatalf("peak < idle: %v", err)
	}
	if _, err := NewServerModel(150, 285, 0); !errors.Is(err, ErrBadModel) {
		t.Fatalf("zero rate: %v", err)
	}
	// Every comparison with NaN is false, and finite arguments can still
	// overflow B1: none of these may yield a model.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name             string
		idle, peak, rate float64
	}{
		{"NaN idle", nan, 285, 2},
		{"NaN peak", 150, nan, 2},
		{"NaN rate", 150, 285, nan},
		{"+Inf peak", 150, inf, 2},
		{"+Inf idle and peak", inf, inf, 2},
		{"+Inf rate", 150, 285, inf},
		{"B1 overflows", 0, 1e308, 1e-308},
	} {
		if m, err := NewServerModel(tc.idle, tc.peak, tc.rate); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: model %+v, err = %v, want ErrBadModel", tc.name, m, err)
		}
	}
}

func TestFleetPowerMatchesPaperNumbers(t *testing.T) {
	// Paper §V: MN fully on (40000 servers) and fully loaded = 11.4 MW;
	// WI fully on (20000) fully loaded = 5.7 MW; MI 7500 at peak = 2.1375 MW.
	cases := []struct {
		mu      float64
		servers int
		wantMW  float64
	}{
		{1.25, 40000, 11.4},
		{1.75, 20000, 5.7},
		{2.0, 7500, 2.1375},
	}
	for _, tc := range cases {
		m, err := NewServerModel(150, 285, tc.mu)
		if err != nil {
			t.Fatalf("NewServerModel: %v", err)
		}
		got := WattsToMW(m.PeakFleetPower(tc.servers, tc.mu))
		if math.Abs(got-tc.wantMW) > 1e-9 {
			t.Fatalf("PeakFleetPower(%d servers, µ=%g) = %g MW, want %g",
				tc.servers, tc.mu, got, tc.wantMW)
		}
	}
}

func TestFleetPowerClamping(t *testing.T) {
	m := ServerModel{B0: 100, B1: 10}
	if got := m.FleetPower(-5, -3); got != 0 {
		t.Fatalf("FleetPower with negative inputs = %g, want 0", got)
	}
	if got := m.Power(-1); got != 100 {
		t.Fatalf("Power(-1) = %g, want idle 100", got)
	}
}

func TestUtilizationModelReduce(t *testing.T) {
	u := UtilizationModel{A0: 50, A1: 30, A2: 20, A3: 10}
	f := 2.0
	m, err := u.Reduce(f)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	// b0 = a2 f + a0 = 90; b1 = a3 + a1/f = 25.
	if m.B0 != 90 || m.B1 != 25 {
		t.Fatalf("Reduce = %+v, want B0=90, B1=25", m)
	}
	if _, err := u.Reduce(0); !errors.Is(err, ErrBadModel) {
		t.Fatalf("Reduce(0): %v", err)
	}
}

func TestReduceConsistentWithFullModel(t *testing.T) {
	// P(f, λ/f) must equal reduced model's Power(λ).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := UtilizationModel{
			A0: 40 + 20*r.Float64(),
			A1: 10 + 10*r.Float64(),
			A2: 5 + 5*r.Float64(),
			A3: 1 + 2*r.Float64(),
		}
		freq := 1 + 3*r.Float64()
		m, err := u.Reduce(freq)
		if err != nil {
			return false
		}
		lambda := 2 * r.Float64()
		util := lambda / freq
		full := u.A3*freq*util + u.A2*freq + u.A1*util + u.A0
		return math.Abs(full-m.Power(lambda)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitUtilizationModelRecoversTruth(t *testing.T) {
	truth := UtilizationModel{A0: 55, A1: 35, A2: 18, A3: 7}
	var samples []Sample
	for _, f := range []float64{1.0, 1.5, 2.0, 2.5} {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			w := truth.A3*f*u + truth.A2*f + truth.A1*u + truth.A0
			samples = append(samples, Sample{Freq: f, Util: u, Watts: w})
		}
	}
	got, err := FitUtilizationModel(samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for name, pair := range map[string][2]float64{
		"a0": {got.A0, truth.A0}, "a1": {got.A1, truth.A1},
		"a2": {got.A2, truth.A2}, "a3": {got.A3, truth.A3},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-6 {
			t.Fatalf("%s = %g, want %g", name, pair[0], pair[1])
		}
	}
}

func TestFitUtilizationModelNoisy(t *testing.T) {
	truth := UtilizationModel{A0: 55, A1: 35, A2: 18, A3: 7}
	rng := rand.New(rand.NewSource(11))
	var samples []Sample
	for i := 0; i < 200; i++ {
		f := 1 + 2*rng.Float64()
		u := rng.Float64()
		w := truth.A3*f*u + truth.A2*f + truth.A1*u + truth.A0 + rng.NormFloat64()*0.5
		samples = append(samples, Sample{Freq: f, Util: u, Watts: w})
	}
	got, err := FitUtilizationModel(samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(got.A0-truth.A0) > 2 || math.Abs(got.A3-truth.A3) > 2 {
		t.Fatalf("noisy fit drifted: %+v vs %+v", got, truth)
	}
}

func TestFitUtilizationModelTooFewSamples(t *testing.T) {
	if _, err := FitUtilizationModel([]Sample{{1, 1, 1}}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("too few samples: %v", err)
	}
}

func TestConversions(t *testing.T) {
	if v := WattsToMW(2.5e6); v != 2.5 {
		t.Fatalf("WattsToMW = %g, want 2.5", v)
	}
}
