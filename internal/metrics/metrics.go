// Package metrics computes the evaluation statistics of §V over recorded
// time series: power-demand volatility (the paper defines volatility as the
// rate of change in power demand), peaks, budget-violation accounting, and
// tracking error — the numbers behind Figs. 4–7 and EXPERIMENTS.md.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned when a statistic needs more data than was given.
var ErrEmpty = errors.New("metrics: not enough samples")

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Peak returns the maximum value (the paper's power peak: "the power demand
// at peak load").
func Peak(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Min returns the minimum value.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Diffs returns the successive differences x[i] − x[i−1].
func Diffs(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// Volatility is the paper's power-demand volatility: the RMS rate of change
// per step.
func Volatility(xs []float64) float64 {
	d := Diffs(xs)
	if len(d) == 0 {
		return 0
	}
	var ss float64
	for _, v := range d {
		ss += v * v
	}
	return math.Sqrt(ss / float64(len(d)))
}

// MaxStep returns the largest absolute single-step change — the "power
// demand jumping" ∆P of eq. (38).
func MaxStep(xs []float64) float64 {
	var max float64
	for _, v := range Diffs(xs) {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Violation summarizes how a series relates to a budget cap.
type Violation struct {
	// Steps is how many samples exceeded the budget.
	Steps int
	// MaxExcess is the largest overshoot above the budget.
	MaxExcess float64
	// IntegralExcess is Σ max(0, x−budget)·dt, the energy above budget
	// (units: series unit × dt unit).
	IntegralExcess float64
	// Fraction is Steps divided by the series length.
	Fraction float64
}

// Violations measures budget overshoot for a series sampled every dt.
// A budget of 0 means unconstrained and reports zero violations.
func Violations(xs []float64, budget, dt float64) Violation {
	if budget <= 0 || len(xs) == 0 {
		return Violation{}
	}
	var v Violation
	for _, x := range xs {
		if x > budget {
			v.Steps++
			excess := x - budget
			if excess > v.MaxExcess {
				v.MaxExcess = excess
			}
			v.IntegralExcess += excess * dt
		}
	}
	v.Fraction = float64(v.Steps) / float64(len(xs))
	return v
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("lengths %d vs %d: %w", len(a), len(b), ErrEmpty)
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a))), nil
}

// MAPE returns the mean absolute percentage error of predictions against
// actuals, skipping zero actuals.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("lengths %d vs %d: %w", len(actual), len(predicted), ErrEmpty)
	}
	var sum float64
	var n int
	for i := range actual {
		//lint:ignore floateq MAPE is documented to skip exactly-zero actuals (undefined percentage error)
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(predicted[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return sum / float64(n), nil
}

// Summary bundles the per-series numbers reported in EXPERIMENTS.md.
type Summary struct {
	Mean, Peak, Min float64
	Volatility      float64
	MaxStep         float64
	FinalValue      float64
}

// Summarize computes a Summary for one series.
func Summarize(xs []float64) Summary {
	s := Summary{
		Mean:       Mean(xs),
		Peak:       Peak(xs),
		Min:        Min(xs),
		Volatility: Volatility(xs),
		MaxStep:    MaxStep(xs),
	}
	if len(xs) > 0 {
		s.FinalValue = xs[len(xs)-1]
	}
	return s
}
