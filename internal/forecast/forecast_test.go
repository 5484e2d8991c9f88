package forecast

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestNewARValidation(t *testing.T) {
	if _, err := NewAR(nil); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("empty coef: %v", err)
	}
}

func TestARPredictKnown(t *testing.T) {
	// µ(k) = 0.5·µ(k−1) + 0.25·µ(k−2); history [.., 4, 8] → 0.5·8+0.25·4 = 5.
	ar, err := NewAR([]float64{0.5, 0.25})
	if err != nil {
		t.Fatalf("NewAR: %v", err)
	}
	y, err := ar.Predict([]float64{4, 8})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if y != 5 {
		t.Fatalf("Predict = %g, want 5", y)
	}
	if _, err := ar.Predict([]float64{1}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("short history: %v", err)
	}
}

func TestARPredictNRecursion(t *testing.T) {
	// Pure persistence model µ(k) = µ(k−1): all horizons equal last value.
	ar, _ := NewAR([]float64{1})
	got, err := ar.PredictN([]float64{3, 7}, 4)
	if err != nil {
		t.Fatalf("PredictN: %v", err)
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("PredictN[%d] = %g, want 7", i, v)
		}
	}
	if out, err := ar.PredictN([]float64{1}, 0); err != nil || out != nil {
		t.Fatalf("PredictN(h=0) = %v, %v", out, err)
	}
}

func TestARCoefCopies(t *testing.T) {
	coef := []float64{0.5}
	ar, _ := NewAR(coef)
	coef[0] = 99
	if ar.Coef()[0] != 0.5 {
		t.Fatal("NewAR aliased caller slice")
	}
	c := ar.Coef()
	c[0] = 77
	if ar.Coef()[0] != 0.5 {
		t.Fatal("Coef returned a view")
	}
}

func TestRLSValidation(t *testing.T) {
	if _, err := NewRLS(0, 0.99, 100); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := NewRLS(2, 1.5, 100); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("lambda>1: %v", err)
	}
	if _, err := NewRLS(2, 0.99, 0); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("delta=0: %v", err)
	}
	// NaN compares false to everything, so it passed the old "<= 0" and
	// "> 1" range tests, and +Inf passed "delta <= 0"; either setting made
	// every forecast NaN, with a nil error.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name          string
		lambda, delta float64
	}{
		{"lambda=NaN", nan, 100},
		{"delta=NaN", 0.99, nan},
		{"delta=+Inf", 0.99, inf},
	} {
		if _, err := NewRLS(2, tc.lambda, tc.delta); !errors.Is(err, ErrBadOrder) {
			t.Errorf("NewRLS %s: %v, want ErrBadOrder", tc.name, err)
		}
		if _, err := NewPredictor(PredictorConfig{Lambda: tc.lambda, Delta: tc.delta}); !errors.Is(err, ErrBadOrder) {
			t.Errorf("NewPredictor %s: %v, want ErrBadOrder", tc.name, err)
		}
	}
	r, err := NewRLS(2, 0.99, 100)
	if err != nil {
		t.Fatalf("NewRLS: %v", err)
	}
	if _, err := r.Update([]float64{1}, 1); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("short regressor: %v", err)
	}
	if _, err := r.Predict([]float64{1, 2, 3}); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("long regressor: %v", err)
	}
}

func TestRLSConvergesToTrueParameters(t *testing.T) {
	// y = 2·x1 − 3·x2 with small noise.
	rng := rand.New(rand.NewSource(13))
	r, err := NewRLS(2, 1.0, 1e4)
	if err != nil {
		t.Fatalf("NewRLS: %v", err)
	}
	for i := 0; i < 500; i++ {
		phi := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := 2*phi[0] - 3*phi[1] + 0.01*rng.NormFloat64()
		if _, err := r.Update(phi, y); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	th := r.Theta()
	if math.Abs(th[0]-2) > 0.05 || math.Abs(th[1]+3) > 0.05 {
		t.Fatalf("theta = %v, want [2 -3]", th)
	}
}

func TestRLSTracksDriftWithForgetting(t *testing.T) {
	// Parameter flips halfway; λ < 1 must track, and the late-window error
	// must be small.
	rng := rand.New(rand.NewSource(17))
	r, _ := NewRLS(1, 0.95, 1e4)
	var lateErr float64
	n := 600
	for i := 0; i < n; i++ {
		truth := 5.0
		if i >= n/2 {
			truth = -5.0
		}
		phi := []float64{1 + rng.Float64()}
		y := truth * phi[0]
		e, _ := r.Update(phi, y)
		if i > n-50 {
			lateErr += math.Abs(e)
		}
	}
	if lateErr/50 > 0.2 {
		t.Fatalf("late tracking error %g too large", lateErr/50)
	}
	if th := r.Theta()[0]; math.Abs(th+5) > 0.2 {
		t.Fatalf("theta = %g, want ≈ -5", th)
	}
}

func TestPropertyRLSRecoversRandomAR(t *testing.T) {
	// Generate data from a random stable AR(2) and verify RLS recovers the
	// coefficients to reasonable precision.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Stable AR(2) via partial autocorrelations in (−0.9, 0.9).
		k1 := 1.8*rng.Float64() - 0.9
		k2 := 1.8*rng.Float64() - 0.9
		a1 := k1 * (1 - k2)
		a2 := k2
		r, err := NewRLS(2, 1.0, 1e4)
		if err != nil {
			return false
		}
		y1, y2 := rng.NormFloat64(), rng.NormFloat64()
		for i := 0; i < 1500; i++ {
			y := a1*y1 + a2*y2 + 0.05*rng.NormFloat64()
			if _, err := r.Update([]float64{y1, y2}, y); err != nil {
				return false
			}
			y2, y1 = y1, y
		}
		th := r.Theta()
		return math.Abs(th[0]-a1) < 0.15 && math.Abs(th[1]-a2) < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorWarmup(t *testing.T) {
	p, err := NewPredictor(PredictorConfig{Order: 3})
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	if p.Ready() {
		t.Fatal("Ready before any samples")
	}
	if _, err := p.Forecast(2); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Forecast before warmup: %v", err)
	}
	for i := 0; i < 3; i++ {
		p.Observe(float64(i))
	}
	if !p.Ready() {
		t.Fatal("not Ready after order samples")
	}
	if _, err := p.Forecast(2); err != nil {
		t.Fatalf("Forecast after warmup: %v", err)
	}
}

func TestPredictorConfigDefaults(t *testing.T) {
	p, err := NewPredictor(PredictorConfig{})
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	if p.Order() != 4 {
		t.Fatalf("default order = %d, want 4", p.Order())
	}
	if _, err := NewPredictor(PredictorConfig{Order: -1}); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("negative order: %v", err)
	}
}

func TestPredictorLearnsARProcess(t *testing.T) {
	// The predictor's one-step error on a noiseless AR(2) process must
	// approach zero.
	p, err := NewPredictor(PredictorConfig{Order: 2, Lambda: 1})
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	// Persistent excitation: without driving noise a stable AR trajectory
	// decays to zero and the coefficients are unidentifiable.
	rng := rand.New(rand.NewSource(23))
	y1, y2 := 1.0, 0.5
	var lateErr, lateMag float64
	for i := 0; i < 2000; i++ {
		y := 0.7*y1 + 0.2*y2 + 0.1*rng.NormFloat64()
		e := p.Observe(y)
		if i > 1900 {
			lateErr += math.Abs(e)
			lateMag += math.Abs(y)
		}
		y2, y1 = y1, y
	}
	// One-step error should be on the order of the innovation, far below
	// the signal magnitude.
	if lateErr > lateMag {
		t.Fatalf("late one-step error %g vs signal %g", lateErr, lateMag)
	}
	m, err := p.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	coef := m.Coef()
	if math.Abs(coef[0]-0.7) > 0.05 || math.Abs(coef[1]-0.2) > 0.05 {
		t.Fatalf("coef = %v, want [0.7 0.2]", coef)
	}
}

// TestPredictorOnDiurnalWorkload is the Fig. 3 criterion: the AR/RLS
// predictor must track a realistic diurnal web workload with low relative
// error, like the paper's EPA-trace experiment.
func TestPredictorOnDiurnalWorkload(t *testing.T) {
	gen, err := workload.NewDiurnal(workload.DiurnalConfig{
		Base: 500, NoiseFrac: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	p, err := NewPredictor(PredictorConfig{Order: 6, Lambda: 0.995})
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	var sumAbsErr, sumActual float64
	steps := 2 * 288 // two days
	for i := 0; i < steps; i++ {
		y := gen.Rate(i)
		var pred float64
		if p.Ready() {
			f, err := p.Forecast(1)
			if err != nil {
				t.Fatalf("Forecast: %v", err)
			}
			pred = f[0]
		}
		if i > 288 { // score the second day only
			sumAbsErr += math.Abs(pred - y)
			sumActual += y
		}
		p.Observe(y)
	}
	if mape := sumAbsErr / sumActual; mape > 0.1 {
		t.Fatalf("relative prediction error %.3f, want < 0.1", mape)
	}
}

func TestPredictorHistoryBounded(t *testing.T) {
	p, err := NewPredictor(PredictorConfig{Order: 2})
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	for i := 0; i < 10000; i++ {
		p.Observe(float64(i % 7))
	}
	if len(p.history) > 8*p.order {
		t.Fatalf("history grew unbounded: %d", len(p.history))
	}
}
