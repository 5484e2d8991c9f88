package feed

import "math"

// Welford tracks the running mean and variance of a sliding window of
// observations — Welford's online update generalized to a fixed window
// backed by a ring buffer, so expired samples are removed exactly rather
// than decayed. Updates are O(1) and allocation-free after construction.
// The zero-value struct is not usable; construct with NewWelford.
type Welford struct {
	win  []float64
	head int // index of the oldest retained sample
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the mean
}

// NewWelford returns windowed statistics over the last `window` samples
// (min 1).
func NewWelford(window int) *Welford {
	if window < 1 {
		window = 1
	}
	return &Welford{win: make([]float64, window)}
}

// Observe adds x, evicting the oldest sample once the window is full.
func (w *Welford) Observe(x float64) {
	if w.n == len(w.win) {
		// Replace the expired sample y by x at constant n: the standard
		// sliding-window Welford update.
		y := w.win[w.head]
		w.win[w.head] = x
		w.head = (w.head + 1) % len(w.win)
		oldMean := w.mean
		w.mean += (x - y) / float64(w.n)
		w.m2 += (x - y) * (x - w.mean + y - oldMean)
		if w.m2 < 0 {
			w.m2 = 0 // guard tiny negative residue from cancellation
		}
		return
	}
	w.win[(w.head+w.n)%len(w.win)] = x
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples currently in the window.
func (w *Welford) N() int { return w.n }

// Mean returns the windowed mean (0 before any sample).
func (w *Welford) Mean() float64 { return w.mean }

// Sigma returns the windowed sample standard deviation (0 below 2 samples).
func (w *Welford) Sigma() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Detector defaults; every threshold is overridable at construction.
const (
	defaultSpikeEnterSigma = 4.0
	defaultSpikeExitSigma  = 2.0
	// detectorMinSamples is how many baseline samples a detector needs
	// before it starts judging — below it everything passes as nominal.
	detectorMinSamples = 3
)

// sigmaFloor keeps a flat baseline detectable: a constant series has σ = 0
// and would make any deviation test vacuous, so the effective σ is floored
// at a tiny value relative to the window mean. The floor only matters when
// the baseline is (near-)constant; any real variability dominates it.
func sigmaFloor(sigma, mean float64) float64 {
	floor := 1e-12 + 1e-6*math.Abs(mean)
	if sigma < floor {
		return floor
	}
	return sigma
}

// SpikeDetector flags observations that sit far outside the sliding
// window's distribution — the price-spike monitor. Detection is latched
// with hysteresis: it enters when |x − mean| > enter·σ and releases only
// once |x − mean| < exit·σ with exit < enter, so a spike that hovers
// around one threshold cannot flap the mode. Spiking samples still enter
// the window: a genuine level shift therefore widens σ and releases the
// latch within a window length, while a one-sample glitch releases as soon
// as normal observations resume.
type SpikeDetector struct {
	stats   *Welford
	enter   float64
	exit    float64
	latched bool
}

// NewSpikeDetector builds a detector over the last `window` observations.
// Non-positive thresholds take the defaults (enter 4σ, exit 2σ); exit is
// clamped below enter.
func NewSpikeDetector(window int, enterSigma, exitSigma float64) *SpikeDetector {
	if enterSigma <= 0 {
		enterSigma = defaultSpikeEnterSigma
	}
	if exitSigma <= 0 || exitSigma >= enterSigma {
		exitSigma = enterSigma / 2
	}
	return &SpikeDetector{stats: NewWelford(window), enter: enterSigma, exit: exitSigma}
}

// Observe judges x against the window accumulated so far, then adds x to
// the window. It returns the latch state after x.
func (d *SpikeDetector) Observe(x float64) bool {
	if d.stats.N() >= detectorMinSamples {
		dev := math.Abs(x - d.stats.Mean())
		sigma := sigmaFloor(d.stats.Sigma(), d.stats.Mean())
		if d.latched {
			if dev < d.exit*sigma {
				d.latched = false
			}
		} else if dev > d.enter*sigma {
			d.latched = true
		}
	}
	d.stats.Observe(x)
	return d.latched
}

// Latched reports the current latch state without observing.
func (d *SpikeDetector) Latched() bool { return d.latched }
