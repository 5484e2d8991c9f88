// Package price models real-time electricity prices for the multi-region
// market of the paper (§III.C): hourly locational-marginal-price traces for
// the three experiment regions (Michigan, Minnesota, Wisconsin — Fig. 2 and
// Table III), and a bottom-up bid-based stochastic price model in the style
// of Skantze–Ilic–Chapman [17], where the price is a function of region,
// time of day and power load.
//
// The paper used the real MISO feed of October 3, 2011. That feed is not
// redistributable, so the embedded traces are synthetic reconstructions
// anchored to the exact Table III values at hours 6 and 7 and shaped like
// Fig. 2 (including Wisconsin's 7 a.m. spike and the early-morning negative
// prices visible in the figure). See DESIGN.md §3.7.
package price

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Region identifies an electricity-market region.
type Region string

// The three regions of the paper's evaluation.
const (
	Michigan  Region = "michigan"
	Minnesota Region = "minnesota"
	Wisconsin Region = "wisconsin"
)

// ErrUnknownRegion is returned when no trace exists for a region.
var ErrUnknownRegion = errors.New("price: unknown region")

// ErrBadTrace is returned for malformed trace data.
var ErrBadTrace = errors.New("price: malformed trace")

// ErrNonFinite is returned by BidStackModel.Price for a NaN or ±Inf load or
// model setting, and for a price that comes out NaN or ±Inf.
var ErrNonFinite = errors.New("price: non-finite value")

// Trace is an hourly day-ahead/real-time price series in $/MWh, applied
// with zero-order hold within each hour (prices "are adjusted every hour").
type Trace struct {
	region Region
	hourly []float64
}

// NewTrace builds a trace from hourly prices (at least one hour).
func NewTrace(region Region, hourly []float64) (*Trace, error) {
	if len(hourly) == 0 {
		return nil, fmt.Errorf("empty hourly series: %w", ErrBadTrace)
	}
	for i, v := range hourly {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("hour %d price %v: %w", i, v, ErrBadTrace)
		}
	}
	cp := make([]float64, len(hourly))
	copy(cp, hourly)
	return &Trace{region: region, hourly: cp}, nil
}

// Region returns the trace's region.
func (t *Trace) Region() Region { return t.region }

// Hours returns the trace length in hours.
func (t *Trace) Hours() int { return len(t.hourly) }

// AtHour returns the price during hour h (ZOH), wrapping modulo the trace
// length so multi-day simulations repeat the daily pattern.
func (t *Trace) AtHour(h int) float64 {
	n := len(t.hourly)
	h %= n
	if h < 0 {
		h += n
	}
	return t.hourly[h]
}

// At returns the price at an elapsed simulation time.
func (t *Trace) At(elapsed time.Duration) float64 {
	return t.AtHour(int(elapsed / time.Hour))
}

// Hourly returns a copy of the underlying hourly series.
func (t *Trace) Hourly() []float64 {
	cp := make([]float64, len(t.hourly))
	copy(cp, t.hourly)
	return cp
}

// Embedded synthetic reconstructions of the Fig. 2 traces. Hours 6 and 7
// carry the exact Table III anchors.
var embedded = map[Region][]float64{
	// Michigan: mid-priced, moderate volatility, evening peak.
	Michigan: {
		31.4, 28.9, 27.2, 26.8, 29.5, 35.1,
		43.26, 49.90, // Table III anchors
		52.3, 55.8, 58.2, 61.5, 63.1, 60.4, 57.9, 55.2,
		58.6, 66.3, 71.8, 68.4, 59.7, 48.2, 39.6, 33.8,
	},
	// Minnesota: cheapest and flattest of the three.
	Minnesota: {
		22.7, 20.4, 18.9, 18.2, 19.6, 24.3,
		30.26, 29.47, // Table III anchors
		31.8, 33.5, 35.2, 36.9, 38.4, 37.1, 35.6, 33.9,
		34.8, 38.7, 41.2, 39.5, 34.6, 29.8, 26.1, 23.9,
	},
	// Wisconsin: highly volatile — negative overnight prices (wind
	// overgeneration) and the morning spike of Table III.
	Wisconsin: {
		-4.2, -12.6, -18.3, -15.7, -6.4, 6.9,
		19.06, 77.97, // Table III anchors
		64.2, 48.7, 42.3, 39.8, 44.6, 51.2, 46.8, 40.1,
		47.5, 72.4, 88.6, 69.3, 45.8, 28.4, 12.7, 2.3,
	},
}

// Regions returns the regions with embedded traces, in the paper's order.
func Regions() []Region {
	return []Region{Michigan, Minnesota, Wisconsin}
}

// Embedded returns the embedded 24-hour trace for a region.
func Embedded(r Region) (*Trace, error) {
	hourly, ok := embedded[r]
	if !ok {
		return nil, fmt.Errorf("%q: %w", r, ErrUnknownRegion)
	}
	return NewTrace(r, hourly)
}

// MustEmbedded is Embedded for the known constants; it panics on unknown
// regions and is intended for package-level setup in tests and examples.
func MustEmbedded(r Region) *Trace {
	t, err := Embedded(r)
	if err != nil {
		panic(err)
	}
	return t
}

// Model is the paper's eq. (9): price as a function of region, time and
// load. Implementations must be deterministic for a fixed construction seed
// so experiments are reproducible.
type Model interface {
	// Price returns the $/MWh price in region r during hour h when the
	// buyer's power demand is loadMW megawatts.
	Price(r Region, h int, loadMW float64) (float64, error)
}

// TraceModel serves prices straight from traces, ignoring load. It is the
// exogenous-price setting used in the paper's main experiments.
type TraceModel struct {
	traces map[Region]*Trace
}

var _ Model = (*TraceModel)(nil)

// NewTraceModel builds a load-independent model over the given traces.
func NewTraceModel(traces ...*Trace) *TraceModel {
	m := &TraceModel{traces: make(map[Region]*Trace, len(traces))}
	for _, t := range traces {
		m.traces[t.Region()] = t
	}
	return m
}

// NewEmbeddedModel returns a TraceModel over all embedded regions.
func NewEmbeddedModel() *TraceModel {
	ts := make([]*Trace, 0, len(embedded))
	for _, r := range Regions() {
		ts = append(ts, MustEmbedded(r))
	}
	return NewTraceModel(ts...)
}

// Price implements Model.
func (m *TraceModel) Price(r Region, h int, _ float64) (float64, error) {
	t, ok := m.traces[r]
	if !ok {
		return 0, fmt.Errorf("%q: %w", r, ErrUnknownRegion)
	}
	return t.AtHour(h), nil
}

// BidStackModel is a bottom-up bid-based stochastic model: the hourly base
// price comes from a trace (the cleared day-ahead stack), and a convex
// marginal-supply term couples the buyer's own load back into the price —
// the demand/price interdependency of §I ("IDCs are in a position to
// influence the electricity price levels"). An Ornstein–Uhlenbeck
// disturbance models intra-hour real-time volatility.
type BidStackModel struct {
	base *TraceModel
	// Sensitivity is the $/MWh adder per MW of load above the reference
	// (linearized bid-stack slope).
	sensitivity float64
	// refMW is the reference load at which the trace price cleared.
	refMW float64
	// gamma is the convexity exponent of the stack (≥ 1).
	gamma float64
	// OU parameters.
	theta, sigma float64
	rng          *rand.Rand
	ou           map[Region]float64
}

var _ Model = (*BidStackModel)(nil)

// BidStackConfig parameterizes NewBidStackModel.
type BidStackConfig struct {
	// Sensitivity is $/MWh per MW of deviation from RefMW (default 0.5).
	Sensitivity float64
	// RefMW is the clearing reference load (default 10 MW).
	RefMW float64
	// Gamma is the stack convexity (default 1.2; 1 = linear).
	Gamma float64
	// Theta is the OU mean-reversion rate per hour (default 0.6).
	Theta float64
	// Sigma is the OU noise scale in $/MWh (default 2; 0 disables noise).
	Sigma float64
	// Seed makes the OU path reproducible.
	Seed int64
}

// NewBidStackModel builds the load-coupled stochastic model on top of base.
func NewBidStackModel(base *TraceModel, cfg BidStackConfig) *BidStackModel {
	//lint:ignore floateq documented sentinel: an exactly-zero Sensitivity means "use the default"
	if cfg.Sensitivity == 0 {
		cfg.Sensitivity = 0.5
	}
	//lint:ignore floateq documented sentinel: an exactly-zero RefMW means "use the default"
	if cfg.RefMW == 0 {
		cfg.RefMW = 10
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Gamma means "use the default"
	if cfg.Gamma == 0 {
		cfg.Gamma = 1.2
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Theta means "use the default"
	if cfg.Theta == 0 {
		cfg.Theta = 0.6
	}
	return &BidStackModel{
		base:        base,
		sensitivity: cfg.Sensitivity,
		refMW:       cfg.RefMW,
		gamma:       cfg.Gamma,
		theta:       cfg.Theta,
		sigma:       cfg.Sigma,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		ou:          make(map[Region]float64),
	}
}

// Price implements Model. Load above the reference raises the price along
// the convex stack; load below lowers it (floored so the stack term never
// flips the sign of the adjustment). A NaN or ±Inf load or setting, or a
// price that overflows, returns ErrNonFinite: each used to come back as a
// NaN or ±Inf price with a nil error, and a NaN Sigma silently switched the
// noise off.
func (m *BidStackModel) Price(r Region, h int, loadMW float64) (float64, error) {
	for _, v := range [...]struct {
		name string
		v    float64
	}{
		{"load", loadMW}, {"sensitivity", m.sensitivity}, {"reference load", m.refMW},
		{"gamma", m.gamma}, {"theta", m.theta}, {"sigma", m.sigma},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return 0, fmt.Errorf("bid-stack %s %v: %w", v.name, v.v, ErrNonFinite)
		}
	}
	p, err := m.base.Price(r, h, loadMW)
	if err != nil {
		return 0, err
	}
	dev := loadMW - m.refMW
	var stack float64
	if dev >= 0 {
		stack = m.sensitivity * math.Pow(dev, m.gamma) / math.Pow(m.refMW, m.gamma-1)
	} else {
		stack = -m.sensitivity * math.Pow(-dev, m.gamma) / math.Pow(m.refMW, m.gamma-1)
	}
	// Advance the per-region OU state one step per call; deterministic
	// under a fixed seed and call sequence.
	out := p + stack
	if m.sigma > 0 {
		x := m.ou[r]
		x += -m.theta*x + m.sigma*m.rng.NormFloat64()
		m.ou[r] = x
		out += x
	}
	if math.IsNaN(out) || math.IsInf(out, 0) {
		return 0, fmt.Errorf("%s hour %d at %g MW: price %v: %w", r, h, loadMW, out, ErrNonFinite)
	}
	return out, nil
}

// Volatility returns the standard deviation of hour-to-hour price changes,
// the measure behind the paper's "high volatility of electricity prices".
func Volatility(hourly []float64) float64 {
	if len(hourly) < 2 {
		return 0
	}
	diffs := make([]float64, 0, len(hourly)-1)
	var mean float64
	for i := 1; i < len(hourly); i++ {
		d := hourly[i] - hourly[i-1]
		diffs = append(diffs, d)
		mean += d
	}
	mean /= float64(len(diffs))
	var ss float64
	for _, d := range diffs {
		ss += (d - mean) * (d - mean)
	}
	return math.Sqrt(ss / float64(len(diffs)))
}

// TableIII returns the paper's Table III anchor prices: rows are hours 6
// and 7, columns follow Regions() order.
func TableIII() [2][3]float64 {
	return [2][3]float64{
		{43.26, 30.26, 19.06},
		{49.90, 29.47, 77.97},
	}
}
