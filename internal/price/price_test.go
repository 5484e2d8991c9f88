package price

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestEmbeddedAnchorsMatchTableIII(t *testing.T) {
	want := TableIII()
	for j, r := range Regions() {
		tr, err := Embedded(r)
		if err != nil {
			t.Fatalf("Embedded(%s): %v", r, err)
		}
		if got := tr.AtHour(6); got != want[0][j] {
			t.Errorf("%s hour 6 = %g, want %g", r, got, want[0][j])
		}
		if got := tr.AtHour(7); got != want[1][j] {
			t.Errorf("%s hour 7 = %g, want %g", r, got, want[1][j])
		}
	}
}

func TestEmbeddedTracesAre24Hours(t *testing.T) {
	for _, r := range Regions() {
		tr := MustEmbedded(r)
		if tr.Hours() != 24 {
			t.Errorf("%s has %d hours, want 24", r, tr.Hours())
		}
		if tr.Region() != r {
			t.Errorf("region = %s, want %s", tr.Region(), r)
		}
	}
}

func TestWisconsinShape(t *testing.T) {
	// Fig. 2 features we encode: negative overnight prices and the hour-7
	// spike being the morning maximum.
	tr := MustEmbedded(Wisconsin)
	if tr.AtHour(2) >= 0 {
		t.Errorf("WI overnight price = %g, want negative", tr.AtHour(2))
	}
	if tr.AtHour(7) <= tr.AtHour(6) {
		t.Errorf("WI 7H (%g) should spike above 6H (%g)", tr.AtHour(7), tr.AtHour(6))
	}
}

func TestUnknownRegion(t *testing.T) {
	if _, err := Embedded(Region("mars")); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Embedded(mars) = %v, want ErrUnknownRegion", err)
	}
	m := NewEmbeddedModel()
	if _, err := m.Price(Region("mars"), 0, 0); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Price(mars) = %v, want ErrUnknownRegion", err)
	}
}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(Michigan, nil); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty trace: %v", err)
	}
	if _, err := NewTrace(Michigan, []float64{1, math.NaN()}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("NaN trace: %v", err)
	}
}

func TestTraceWrapsAndCopies(t *testing.T) {
	src := []float64{10, 20, 30}
	tr, err := NewTrace(Michigan, src)
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	src[0] = 999 // must not alias
	if tr.AtHour(0) != 10 {
		t.Fatal("trace aliased caller slice")
	}
	if tr.AtHour(3) != 10 || tr.AtHour(4) != 20 {
		t.Fatalf("wrap: AtHour(3)=%g AtHour(4)=%g", tr.AtHour(3), tr.AtHour(4))
	}
	if tr.AtHour(-1) != 30 {
		t.Fatalf("negative wrap: %g, want 30", tr.AtHour(-1))
	}
	h := tr.Hourly()
	h[0] = -1
	if tr.AtHour(0) != 10 {
		t.Fatal("Hourly returned a view, want copy")
	}
}

func TestTraceAtDuration(t *testing.T) {
	tr := MustEmbedded(Michigan)
	if got := tr.At(6*time.Hour + 30*time.Minute); got != tr.AtHour(6) {
		t.Fatalf("At(6.5h) = %g, want ZOH of hour 6 = %g", got, tr.AtHour(6))
	}
	if got := tr.At(0); got != tr.AtHour(0) {
		t.Fatalf("At(0) = %g, want %g", got, tr.AtHour(0))
	}
}

func TestTraceModelIgnoresLoad(t *testing.T) {
	m := NewEmbeddedModel()
	p1, err := m.Price(Michigan, 6, 0)
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	p2, err := m.Price(Michigan, 6, 1000)
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("TraceModel load-dependent: %g vs %g", p1, p2)
	}
	if p1 != 43.26 {
		t.Fatalf("Price = %g, want 43.26", p1)
	}
}

func TestBidStackLoadCoupling(t *testing.T) {
	m := NewBidStackModel(NewEmbeddedModel(), BidStackConfig{
		Sensitivity: 1, RefMW: 10, Gamma: 1, Sigma: 0,
	})
	at, err := m.Price(Michigan, 6, 10)
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	if math.Abs(at-43.26) > 1e-12 {
		t.Fatalf("price at reference load = %g, want 43.26", at)
	}
	hi, _ := m.Price(Michigan, 6, 15)
	lo, _ := m.Price(Michigan, 6, 5)
	if math.Abs(hi-(43.26+5)) > 1e-9 {
		t.Fatalf("high-load price = %g, want %g", hi, 43.26+5)
	}
	if math.Abs(lo-(43.26-5)) > 1e-9 {
		t.Fatalf("low-load price = %g, want %g", lo, 43.26-5)
	}
}

func TestBidStackConvexity(t *testing.T) {
	m := NewBidStackModel(NewEmbeddedModel(), BidStackConfig{
		Sensitivity: 1, RefMW: 10, Gamma: 2, Sigma: 0,
	})
	p0, _ := m.Price(Minnesota, 6, 10)
	p1, _ := m.Price(Minnesota, 6, 15)
	p2, _ := m.Price(Minnesota, 6, 20)
	// Convex: the second 5 MW costs more than the first.
	if (p2 - p1) <= (p1 - p0) {
		t.Fatalf("stack not convex: increments %g then %g", p1-p0, p2-p1)
	}
}

func TestBidStackOUDeterministicUnderSeed(t *testing.T) {
	mk := func() []float64 {
		m := NewBidStackModel(NewEmbeddedModel(), BidStackConfig{Sigma: 2, Seed: 7})
		var out []float64
		for h := 0; h < 10; h++ {
			p, err := m.Price(Wisconsin, h, 10)
			if err != nil {
				t.Fatalf("Price: %v", err)
			}
			out = append(out, p)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestBidStackUnknownRegion(t *testing.T) {
	m := NewBidStackModel(NewEmbeddedModel(), BidStackConfig{})
	if _, err := m.Price(Region("mars"), 0, 0); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Price(mars) = %v, want ErrUnknownRegion", err)
	}
}

// TestBidStackNonFinite pins the bid-stack model's finiteness check: a NaN
// or ±Inf load or setting, or a price that overflows, returns ErrNonFinite.
// Each used to come back as a NaN or ±Inf price with a nil error, and a
// NaN Sigma silently gave the noise-free series.
func TestBidStackNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  BidStackConfig
		load float64
	}{
		{"load NaN", BidStackConfig{Sigma: 2}, nan},
		{"load +Inf", BidStackConfig{Sigma: 2}, inf},
		{"load -Inf", BidStackConfig{}, -inf},
		{"sensitivity Inf", BidStackConfig{Sensitivity: inf}, 10},
		{"ref NaN", BidStackConfig{RefMW: nan}, 10},
		{"gamma -Inf", BidStackConfig{Gamma: -inf}, 10},
		{"theta NaN", BidStackConfig{Theta: nan, Sigma: 2}, 10},
		{"sigma NaN", BidStackConfig{Sigma: nan}, 10},
		{"sigma Inf", BidStackConfig{Sigma: inf}, 10},
	} {
		m := NewBidStackModel(NewEmbeddedModel(), tc.cfg)
		if p, err := m.Price(Michigan, 1, tc.load); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Price = %v, %v; want ErrNonFinite", tc.name, p, err)
		}
	}
	// A finite sigma this large soon drives an OU state past the float
	// range (at hour 1 for seed 1, as idcprice draws the regions): the
	// overflowing price fails instead of coming back as ±Inf.
	m := NewBidStackModel(NewEmbeddedModel(), BidStackConfig{Sigma: 1e308, Seed: 1})
	var err error
	for h := 0; h < 24 && err == nil; h++ {
		for _, r := range Regions() {
			var p float64
			if p, err = m.Price(r, h, 10); err != nil {
				break
			}
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("%s hour %d: price %v with a nil error", r, h, p)
			}
		}
	}
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("sigma 1e308: error %v after 24 hours, want ErrNonFinite", err)
	}
}

func TestVolatility(t *testing.T) {
	if v := Volatility([]float64{5}); v != 0 {
		t.Fatalf("single sample volatility = %g, want 0", v)
	}
	if v := Volatility([]float64{5, 5, 5, 5}); v != 0 {
		t.Fatalf("constant volatility = %g, want 0", v)
	}
	// Linear ramp: all diffs equal → zero variance of diffs.
	if v := Volatility([]float64{1, 2, 3, 4}); v != 0 {
		t.Fatalf("ramp volatility = %g, want 0", v)
	}
	// Alternating series has high diff variance.
	if v := Volatility([]float64{0, 10, 0, 10, 0}); v <= 0 {
		t.Fatalf("alternating volatility = %g, want > 0", v)
	}
}

func TestWisconsinMostVolatile(t *testing.T) {
	// The paper picks these regions precisely because Wisconsin's price is
	// the most volatile; our reconstruction must preserve that ordering.
	vWI := Volatility(MustEmbedded(Wisconsin).Hourly())
	vMI := Volatility(MustEmbedded(Michigan).Hourly())
	vMN := Volatility(MustEmbedded(Minnesota).Hourly())
	if !(vWI > vMI && vWI > vMN) {
		t.Fatalf("volatility WI=%g MI=%g MN=%g; want WI largest", vWI, vMI, vMN)
	}
}
