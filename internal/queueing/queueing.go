// Package queueing implements the M/M/n results the paper uses for the IDC
// service-latency model (§III.E): the simplified average latency
// D = P_Q/(m·µ − λ) with P_Q = 1, the latency bound's implied capacity
// λ ≤ m·µ − 1/D (eq. 30), and the server-count lower bound
// m = ⌈λ/µ + 1/(µ·D)⌉ (eq. 35). The exact Erlang-C waiting probability and
// waiting-time tail that justify the P_Q = 1 simplification are checked in
// queueing_test.go; no tick computes them.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when the offered load exceeds service capacity.
var ErrUnstable = errors.New("queueing: system unstable (λ ≥ m·µ)")

// ErrBadParam is returned for nonpositive rates or bounds.
var ErrBadParam = errors.New("queueing: parameter out of range")

// Latency returns the paper's simplified average latency (eq. 14)
//
//	D = 1/(m·µ − λ)
//
// which assumes P_Q = 1 (servers always busy). It requires m·µ > λ.
func Latency(m int, mu, lambda float64) (float64, error) {
	if m <= 0 || mu <= 0 || lambda < 0 {
		return 0, fmt.Errorf("Latency(m=%d, µ=%g, λ=%g): %w", m, mu, lambda, ErrBadParam)
	}
	denom := float64(m)*mu - lambda
	if denom <= 0 {
		return 0, fmt.Errorf("Latency(m=%d, µ=%g, λ=%g): %w", m, mu, lambda, ErrUnstable)
	}
	return 1 / denom, nil
}

// MaxThroughput returns the largest workload rate an IDC with m active
// servers can accept while honouring the latency bound d (eq. 30):
//
//	λ ≤ m·µ − 1/d
//
// The result can be negative when m is too small to meet d at all.
func MaxThroughput(m int, mu, d float64) (float64, error) {
	if mu <= 0 || d <= 0 || m < 0 {
		return 0, fmt.Errorf("MaxThroughput(m=%d, µ=%g, d=%g): %w", m, mu, d, ErrBadParam)
	}
	return float64(m)*mu - 1/d, nil
}

// MinServers returns the paper's slow-loop server count (eq. 35):
//
//	m = ⌈ λ/µ + 1/(µ·d) ⌉
//
// the fewest servers that can serve rate lambda within latency bound d.
func MinServers(lambda, mu, d float64) (int, error) {
	if mu <= 0 || d <= 0 || lambda < 0 {
		return 0, fmt.Errorf("MinServers(λ=%g, µ=%g, d=%g): %w", lambda, mu, d, ErrBadParam)
	}
	m := math.Ceil(lambda/mu + 1/(mu*d))
	return int(m), nil
}

// Feasible reports whether total demand can be served by IDCs with the given
// full-fleet capacities — the paper's Sleep Controllability Condition:
// Σ demand ≤ Σ capacity.
func Feasible(demand float64, capacities []float64) bool {
	var sum float64
	for _, c := range capacities {
		if c > 0 {
			sum += c
		}
	}
	return demand <= sum
}
