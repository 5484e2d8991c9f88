package bench

import (
	"math"
	"sort"
)

// indexMin keeps, for each tick index, the minimum time over the episodes
// seen so far. Every episode of a workload repeats the same work, so the
// per-index minimum strips the time-correlated machine noise that a single
// long run still carries.
type indexMin []float64

// newIndexMin returns an estimator over n tick indices.
func newIndexMin(n int) indexMin {
	m := make(indexMin, n)
	for i := range m {
		m[i] = math.Inf(1)
	}
	return m
}

// add folds one episode's per-index times into the minimum.
func (m indexMin) add(episode []float64) {
	for i, v := range episode {
		if i < len(m) && v < m[i] {
			m[i] = v
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (position q·(n−1), the "inclusive" definition). It
// returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads match that tool's. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
