// Package workload generates synthetic Internet request workloads for the
// front-end Web portals of the paper's architecture (§III.A, §III.D).
//
// The paper evaluates workload prediction on the August 30, 1995 EPA web
// trace from the Internet Traffic Archive, which we cannot redistribute.
// The Diurnal generator below produces the same qualitative day shape — a
// quiet night, a business-hours double hump and short-range autocorrelated
// noise — which is what the AR/RLS predictor of internal/forecast exploits.
// An MMPP(2) generator covers the bursty Markov-modulated arrivals the
// paper cites (Latouche–Ramaswami), and Portals ties generators to the
// Table I portal demands.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadConfig is returned for invalid generator parameters.
var ErrBadConfig = errors.New("workload: invalid configuration")

// Generator produces a workload rate (requests/second) for each step.
type Generator interface {
	// Rate returns the arrival rate at the given step.
	Rate(step int) float64
}

// Constant is a fixed-rate generator.
type Constant float64

var _ Generator = Constant(0)

// Rate implements Generator.
func (c Constant) Rate(int) float64 { return float64(c) }

// Diurnal generates an EPA-like daily pattern: a baseline, two Gaussian
// activity humps (late morning and mid-afternoon) and AR(1) noise.
type Diurnal struct {
	cfg   DiurnalConfig
	rng   *rand.Rand
	noise float64
}

var _ Generator = (*Diurnal)(nil)

// DiurnalConfig parameterizes Diurnal.
type DiurnalConfig struct {
	// Base is the overnight floor rate (req/s); must be > 0.
	Base float64
	// PeakBoost scales the humps relative to Base (default 1.5).
	PeakBoost float64
	// StepsPerDay is the number of simulation steps in 24 h (default 288,
	// i.e. 5-minute steps).
	StepsPerDay int
	// NoiseFrac is the AR(1) noise standard deviation as a fraction of the
	// instantaneous deterministic rate (default 0.05; 0 disables noise).
	NoiseFrac float64
	// NoiseCorr is the AR(1) coefficient of the noise in (−1, 1)
	// (default 0.8) — short-range correlation is what RLS latches onto.
	NoiseCorr float64
	// Seed fixes the noise path.
	Seed int64
}

func (c *DiurnalConfig) defaults() error {
	if c.Base <= 0 {
		return fmt.Errorf("base %g: %w", c.Base, ErrBadConfig)
	}
	//lint:ignore floateq documented sentinel: an exactly-zero PeakBoost means "use the default"
	if c.PeakBoost == 0 {
		c.PeakBoost = 1.5
	}
	if c.PeakBoost < 0 {
		return fmt.Errorf("peak boost %g: %w", c.PeakBoost, ErrBadConfig)
	}
	if c.StepsPerDay == 0 {
		c.StepsPerDay = 288
	}
	if c.StepsPerDay < 2 {
		return fmt.Errorf("steps per day %d: %w", c.StepsPerDay, ErrBadConfig)
	}
	if c.NoiseFrac < 0 || c.NoiseFrac >= 1 {
		return fmt.Errorf("noise fraction %g: %w", c.NoiseFrac, ErrBadConfig)
	}
	//lint:ignore floateq documented sentinel: an exactly-zero NoiseCorr means "use the default"
	if c.NoiseCorr == 0 {
		c.NoiseCorr = 0.8
	}
	if c.NoiseCorr <= -1 || c.NoiseCorr >= 1 {
		return fmt.Errorf("noise correlation %g: %w", c.NoiseCorr, ErrBadConfig)
	}
	return nil
}

// NewDiurnal builds a diurnal generator.
func NewDiurnal(cfg DiurnalConfig) (*Diurnal, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Diurnal{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Deterministic returns the noise-free rate at a fractional hour of day.
func (d *Diurnal) Deterministic(hourOfDay float64) float64 {
	c := d.cfg
	hump := func(center, width float64) float64 {
		dx := hourOfDay - center
		return math.Exp(-dx * dx / (2 * width * width))
	}
	// Morning hump at 10:30, afternoon hump at 15:30 (EPA-like double hump).
	shape := 0.9*hump(10.5, 2.2) + hump(15.5, 2.6)
	return c.Base * (1 + c.PeakBoost*shape)
}

// Rate implements Generator; successive calls for increasing steps advance
// the AR(1) noise state deterministically under the seed.
func (d *Diurnal) Rate(step int) float64 {
	c := d.cfg
	hour := 24 * float64(step%c.StepsPerDay) / float64(c.StepsPerDay)
	base := d.Deterministic(hour)
	if c.NoiseFrac > 0 {
		d.noise = c.NoiseCorr*d.noise + math.Sqrt(1-c.NoiseCorr*c.NoiseCorr)*d.rng.NormFloat64()
		base *= 1 + c.NoiseFrac*d.noise
	}
	if base < 0 {
		base = 0
	}
	return base
}

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals follow
// rate Rate1 or Rate2 depending on a hidden two-state Markov chain with
// per-step switch probabilities P12 and P21. Rate returns the conditional
// mean arrival rate with Poisson sampling noise.
type MMPP2 struct {
	cfg   MMPP2Config
	rng   *rand.Rand
	state int
}

var _ Generator = (*MMPP2)(nil)

// MMPP2Config parameterizes MMPP2.
type MMPP2Config struct {
	Rate1, Rate2 float64 // per-state mean rates (req/s), both ≥ 0
	P12, P21     float64 // per-step switch probabilities in [0, 1]
	Seed         int64
}

// NewMMPP2 builds the generator.
func NewMMPP2(cfg MMPP2Config) (*MMPP2, error) {
	if cfg.Rate1 < 0 || cfg.Rate2 < 0 {
		return nil, fmt.Errorf("rates %g, %g: %w", cfg.Rate1, cfg.Rate2, ErrBadConfig)
	}
	if cfg.P12 < 0 || cfg.P12 > 1 || cfg.P21 < 0 || cfg.P21 > 1 {
		return nil, fmt.Errorf("switch probabilities %g, %g: %w", cfg.P12, cfg.P21, ErrBadConfig)
	}
	return &MMPP2{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Rate implements Generator.
func (m *MMPP2) Rate(int) float64 {
	switch m.state {
	case 0:
		if m.rng.Float64() < m.cfg.P12 {
			m.state = 1
		}
	default:
		if m.rng.Float64() < m.cfg.P21 {
			m.state = 0
		}
	}
	mean := m.cfg.Rate1
	if m.state == 1 {
		mean = m.cfg.Rate2
	}
	return poisson(m.rng, mean)
}

// poisson samples a Poisson(mean) count; for large means it uses the normal
// approximation, which is what a per-second request counter looks like.
func poisson(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return float64(k - 1)
}

// Portals couples one generator per front-end portal (§III.A) and emits the
// per-step demand vector L = (L1 … LC).
type Portals struct {
	gens []Generator
}

// NewPortals builds a portal set; at least one generator is required.
func NewPortals(gens ...Generator) (*Portals, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("no generators: %w", ErrBadConfig)
	}
	for i, g := range gens {
		if g == nil {
			return nil, fmt.Errorf("generator %d is nil: %w", i, ErrBadConfig)
		}
	}
	cp := make([]Generator, len(gens))
	copy(cp, gens)
	return &Portals{gens: cp}, nil
}

// Demands returns the demand vector at a step.
func (p *Portals) Demands(step int) []float64 {
	out := make([]float64, len(p.gens))
	for i, g := range p.gens {
		out[i] = g.Rate(step)
	}
	return out
}

// TableI returns the paper's Table I portal demands (req/s).
func TableI() []float64 {
	return []float64{30000, 15000, 15000, 20000, 20000}
}

// DailyPortals returns the synthetic day of the daily experiment at
// stepsPerDay steps per day: portal i follows a Diurnal with base
// TableI()[i]/3, peak boost 1, 4% AR(1) noise and seed seed+i. The Table I
// levels are the paper's constant demands; a third of them with boost 1
// keeps the day's peak inside the paper topology's capacity.
func DailyPortals(stepsPerDay int, seed int64) (*Portals, error) {
	levels := TableI()
	gens := make([]Generator, len(levels))
	for i, level := range levels {
		g, err := NewDiurnal(DiurnalConfig{
			Base: level / 3, PeakBoost: 1, NoiseFrac: 0.04,
			StepsPerDay: stepsPerDay, Seed: seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return NewPortals(gens...)
}
