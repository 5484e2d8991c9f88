package workload

import (
	"errors"
	"math"
	"testing"
)

func TestConstant(t *testing.T) {
	g := Constant(42)
	if g.Rate(0) != 42 || g.Rate(100) != 42 {
		t.Fatal("Constant not constant")
	}
}

func TestDiurnalConfigValidation(t *testing.T) {
	bad := []DiurnalConfig{
		{},                                   // base missing
		{Base: -1},                           // negative base
		{Base: 100, PeakBoost: -1},           // negative boost
		{Base: 100, StepsPerDay: 1},          // too few steps
		{Base: 100, NoiseFrac: 1.5},          // noise too large
		{Base: 100, NoiseFrac: -0.1},         // noise negative
		{Base: 100, NoiseCorr: 1.0, Seed: 1}, // corr at boundary
		{Base: 100, NoiseCorr: -1.0, NoiseFrac: 0.1}, // corr at boundary
	}
	for i, cfg := range bad {
		if _, err := NewDiurnal(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	if _, err := NewDiurnal(DiurnalConfig{Base: 100}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDiurnalShape(t *testing.T) {
	d, err := NewDiurnal(DiurnalConfig{Base: 1000, NoiseFrac: 0})
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	night := d.Deterministic(3)
	morning := d.Deterministic(10.5)
	afternoon := d.Deterministic(15.5)
	if !(morning > night && afternoon > night) {
		t.Fatalf("humps (%g, %g) not above night floor %g", morning, afternoon, night)
	}
	if night < 1000 || night > 1100 {
		t.Fatalf("night rate %g should hug the base 1000", night)
	}
	// Rates are nonnegative everywhere.
	for s := 0; s < 288; s++ {
		if r := d.Rate(s); r < 0 {
			t.Fatalf("negative rate %g at step %d", r, s)
		}
	}
}

func TestDiurnalNoiseDeterministicUnderSeed(t *testing.T) {
	mk := func() []float64 {
		d, err := NewDiurnal(DiurnalConfig{Base: 1000, NoiseFrac: 0.1, Seed: 5})
		if err != nil {
			t.Fatalf("NewDiurnal: %v", err)
		}
		out := make([]float64, 50)
		for i := range out {
			out[i] = d.Rate(i)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d", i)
		}
	}
}

func TestDiurnalNoiseIsCorrelated(t *testing.T) {
	d, err := NewDiurnal(DiurnalConfig{Base: 1000, NoiseFrac: 0.2, NoiseCorr: 0.95, Seed: 9})
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	clean, _ := NewDiurnal(DiurnalConfig{Base: 1000, NoiseFrac: 0})
	// Lag-1 autocorrelation of the noise residual should be clearly positive.
	n := 2000
	resid := make([]float64, n)
	for i := 0; i < n; i++ {
		hour := 24 * float64(i%288) / 288
		resid[i] = d.Rate(i) - clean.Deterministic(hour)
	}
	var mean float64
	for _, v := range resid {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (resid[i] - mean) * (resid[i-1] - mean)
	}
	for _, v := range resid {
		den += (v - mean) * (v - mean)
	}
	if ac := num / den; ac < 0.5 {
		t.Fatalf("lag-1 autocorrelation %g, want > 0.5", ac)
	}
}

func TestMMPP2Validation(t *testing.T) {
	if _, err := NewMMPP2(MMPP2Config{Rate1: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative rate: %v", err)
	}
	if _, err := NewMMPP2(MMPP2Config{Rate1: 1, Rate2: 1, P12: 1.5}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad probability: %v", err)
	}
}

// stationaryMean returns the long-run mean rate of the MMPP, the oracle the
// empirical mean of Rate is checked against.
func stationaryMean(m *MMPP2) float64 {
	p12, p21 := m.cfg.P12, m.cfg.P21
	if p12+p21 == 0 {
		return m.cfg.Rate1 // chain never leaves state 0
	}
	pi1 := p12 / (p12 + p21) // long-run fraction in state 1
	return (1-pi1)*m.cfg.Rate1 + pi1*m.cfg.Rate2
}

func TestMMPP2StationaryMean(t *testing.T) {
	m, err := NewMMPP2(MMPP2Config{Rate1: 100, Rate2: 500, P12: 0.1, P21: 0.3, Seed: 3})
	if err != nil {
		t.Fatalf("NewMMPP2: %v", err)
	}
	want := stationaryMean(m) // 0.75·100 + 0.25·500 = 200
	if math.Abs(want-200) > 1e-9 {
		t.Fatalf("stationary mean = %g, want 200", want)
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += m.Rate(i)
	}
	got := sum / float64(n)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical mean %g deviates from stationary mean %g", got, want)
	}
}

func TestMMPP2NeverLeavesState0(t *testing.T) {
	m, err := NewMMPP2(MMPP2Config{Rate1: 50, Rate2: 500, P12: 0, P21: 0, Seed: 1})
	if err != nil {
		t.Fatalf("NewMMPP2: %v", err)
	}
	if sm := stationaryMean(m); sm != 50 {
		t.Fatalf("stationary mean = %g, want 50", sm)
	}
}

func TestMMPP2Bursty(t *testing.T) {
	// Variance of an MMPP must exceed Poisson variance (≈ mean).
	m, err := NewMMPP2(MMPP2Config{Rate1: 50, Rate2: 450, P12: 0.05, P21: 0.05, Seed: 8})
	if err != nil {
		t.Fatalf("NewMMPP2: %v", err)
	}
	n := 10000
	xs := make([]float64, n)
	var mean float64
	for i := range xs {
		xs[i] = m.Rate(i)
		mean += xs[i]
	}
	mean /= float64(n)
	var varr float64
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(n)
	if varr < 2*mean {
		t.Fatalf("variance %g not burstier than Poisson mean %g", varr, mean)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	m, err := NewMMPP2(MMPP2Config{Rate1: 3, Rate2: 3, Seed: 4})
	if err != nil {
		t.Fatalf("NewMMPP2: %v", err)
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := m.Rate(i)
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("small-mean sample %g not a nonnegative integer", v)
		}
		sum += v
	}
	if got := sum / float64(n); math.Abs(got-3) > 0.15 {
		t.Fatalf("empirical mean %g, want ≈ 3", got)
	}
}

func TestPortals(t *testing.T) {
	if _, err := NewPortals(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty portals: %v", err)
	}
	if _, err := NewPortals(Constant(1), nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil generator: %v", err)
	}
	p, err := NewPortals(Constant(10), Constant(20))
	if err != nil {
		t.Fatalf("NewPortals: %v", err)
	}
	d := p.Demands(0)
	if len(d) != 2 || d[0] != 10 || d[1] != 20 {
		t.Fatalf("Demands = %v, want [10 20]", d)
	}
}
