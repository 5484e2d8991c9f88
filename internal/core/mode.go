package core

import (
	"fmt"
	"math"

	"repro/internal/feed"
)

// Mode is the controller's operating state — the explicit, observable form
// of the input-degradation fallbacks that were previously visible only as
// counters. The values are ordered by severity; the per-step Telemetry.Mode
// is the most severe condition active at the last slow tick. Transitions
// are counted (idc_mode_transitions_total), exported as a gauge (idc_mode,
// the ordinal), and emitted as "mode-transition" lines in the WithTrace
// JSONL stream. The transition table lives in DESIGN.md §3.13.
type Mode int

const (
	// ModeNominal: every input feed healthy, no fallback active.
	ModeNominal Mode = iota
	// ModeForecastFallback: the AR/RLS forecaster produced an unusable
	// (failed, negative, or infeasible) prediction, so the reference LP
	// saw the latest observed demand instead (§IV.B fallback).
	ModeForecastFallback
	// ModeBudgetRelax: the budget-aware reference LP was infeasible under
	// the active budgets, so the reference degraded to the unconstrained
	// optimum with a bare clamp — budgets became soft targets (§IV.D).
	ModeBudgetRelax
	// ModePriceSpike: the price-spike detector (FeedPolicy.SpikeWindow) is
	// latched on at least one IDC's price stream. The controller keeps
	// using the observed prices — the mode is an anomaly flag, not a
	// substitution — so operators can gate automation on it.
	ModePriceSpike
	// ModeStalePrice: the price model failed and the controller is serving
	// from the last known price vector under FeedPolicy.MaxPriceStaleTicks.
	// The reference LP still re-solves against fresh demand; only the
	// prices (and the price-dependent model) are held.
	ModeStalePrice
)

var modeNames = [...]string{
	ModeNominal:          "nominal",
	ModeForecastFallback: "forecast-fallback",
	ModeBudgetRelax:      "budget-relax",
	ModePriceSpike:       "price-spike",
	ModeStalePrice:       "stale-price",
}

// String returns the mode's kebab-case name ("nominal", "stale-price", …).
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// MarshalText encodes the mode by name, so Telemetry JSON (and the JSONL
// trace) carries "stale-price" rather than an opaque ordinal.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a mode name produced by MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	for i, name := range modeNames {
		if name == string(text) {
			*m = Mode(i)
			return nil
		}
	}
	return fmt.Errorf("unknown mode %q: %w", text, ErrBadConfig)
}

// FeedPolicy configures how the controller degrades when its input feeds
// misbehave, instead of erroring out of Step. The zero value is the
// original fail-fast behavior: any price-model error fails the step and no
// anomaly detection runs. Attach with WithFeedPolicy.
type FeedPolicy struct {
	// MaxPriceStaleTicks is how many consecutive slow ticks the controller
	// may serve from the last known price vector when the price model
	// errors. While holding it reports ModeStalePrice; the tick after the
	// budget is exhausted fails with the underlying feed error. 0 disables
	// holding (fail fast, the legacy behavior). The hold needs a last
	// known vector: an outage on the very first slow tick always fails.
	MaxPriceStaleTicks int
	// SpikeWindow, when > 0, enables a per-IDC price-spike detector
	// (feed.SpikeDetector) over the last SpikeWindow slow-tick prices.
	// A latched detector reports ModePriceSpike and counts latches in
	// idc_price_spike_latches_total; prices are never substituted.
	SpikeWindow int
	// SpikeEnterSigma / SpikeExitSigma are the detector's hysteresis
	// thresholds in σ units. Finite non-positive values take the feed
	// package defaults (enter 4σ, exit 2σ); New rejects NaN and ±Inf, which
	// would keep the detector from ever latching or ever releasing.
	SpikeEnterSigma float64
	SpikeExitSigma  float64
}

// validate rejects the settings that would silently disable the degraded
// modes: a negative hold budget and a non-finite spike threshold.
func (p FeedPolicy) validate() error {
	if p.MaxPriceStaleTicks < 0 {
		return fmt.Errorf("feed policy MaxPriceStaleTicks %d: %w", p.MaxPriceStaleTicks, ErrBadConfig)
	}
	// !(|σ| <= MaxFloat64) holds exactly for NaN and ±Inf.
	if !(math.Abs(p.SpikeEnterSigma) <= math.MaxFloat64) {
		return fmt.Errorf("feed policy SpikeEnterSigma %g: %w", p.SpikeEnterSigma, ErrBadConfig)
	}
	if !(math.Abs(p.SpikeExitSigma) <= math.MaxFloat64) {
		return fmt.Errorf("feed policy SpikeExitSigma %g: %w", p.SpikeExitSigma, ErrBadConfig)
	}
	return nil
}

// WithFeedPolicy sets the controller's degraded-mode policy. Unlike the
// other options it deliberately changes control behavior on feed failure:
// that is its job — it trades "error out" for "keep running in a declared,
// observable degraded mode".
func WithFeedPolicy(p FeedPolicy) Option {
	return func(op *options) { op.feedPolicy = p }
}

// modeTransition is the JSONL record emitted on the trace stream whenever
// the controller's mode changes. Trace consumers distinguish it from the
// per-step Telemetry records by the "event" field.
type modeTransition struct {
	Event string `json:"event"` // always "mode-transition"
	Step  int    `json:"step"`
	Hour  int    `json:"hour"`
	From  Mode   `json:"from"`
	To    Mode   `json:"to"`
}

// setMode records a mode change: transition counter, mode gauge, and a
// mode-transition line on the JSONL trace (if wired). No-op when the mode
// is unchanged.
func (c *Controller) setMode(m Mode, hour int) error {
	if m == c.mode {
		return nil
	}
	from := c.mode
	c.mode = m
	c.instr.modeGauge.Set(float64(m))
	c.instr.modeTransitions.Inc()
	if c.trace != nil {
		rec := modeTransition{Event: "mode-transition", Step: c.step, Hour: hour, From: from, To: m}
		if err := c.trace.Encode(rec); err != nil {
			return fmt.Errorf("core: trace: %w", err)
		}
	}
	return nil
}

// Mode returns the controller's current operating mode — the state set at
// the most recent slow tick.
func (c *Controller) Mode() Mode { return c.mode }

// spikeLatched reports whether any per-IDC price-spike detector is latched.
func (c *Controller) spikeLatched() bool {
	for _, d := range c.spikes {
		if d.Latched() {
			return true
		}
	}
	return false
}

// newSpikeDetectors builds the per-IDC detectors declared by the policy.
func newSpikeDetectors(n int, p FeedPolicy) []*feed.SpikeDetector {
	if p.SpikeWindow <= 0 {
		return nil
	}
	ds := make([]*feed.SpikeDetector, n)
	for j := range ds {
		ds[j] = feed.NewSpikeDetector(p.SpikeWindow, p.SpikeEnterSigma, p.SpikeExitSigma)
	}
	return ds
}
