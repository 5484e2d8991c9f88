// Package power implements the paper's server power models (§III.B): the
// workload-linear server model P(λ) = b1·λ + b0 (eq. 6) and fleet power
// (eq. 7). The utilization/frequency model of eq. (5), its reduction to
// eq. (6) and the least-squares curve fit the paper cites (Horvath &
// Skadron) are checked in power_test.go; no tick fits or reduces a model.
package power

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadModel is returned for non-physical model parameters.
var ErrBadModel = errors.New("power: invalid model parameter")

// ServerModel is the linear per-server power model P(λ) = B1·λ + B0 of
// eq. (6): B0 watts when idle and B1 additional watts per unit workload rate.
type ServerModel struct {
	// B0 is the idle power draw in watts.
	B0 float64
	// B1 is the marginal power in watt-seconds per request.
	B1 float64
}

// NewServerModel derives the linear model from an idle-power / peak-power
// pair, the form the paper's experiments use (150 W idle, 285 W at the peak
// processing rate µ). Every argument, and the derived B1, must be finite.
func NewServerModel(idleWatts, peakWatts, peakRate float64) (ServerModel, error) {
	if !(idleWatts >= 0) || !(peakWatts >= idleWatts) || math.IsInf(peakWatts, 0) {
		return ServerModel{}, fmt.Errorf("idle %g, peak %g: %w", idleWatts, peakWatts, ErrBadModel)
	}
	if !(peakRate > 0) || math.IsInf(peakRate, 0) {
		return ServerModel{}, fmt.Errorf("peak rate %g: %w", peakRate, ErrBadModel)
	}
	b1 := (peakWatts - idleWatts) / peakRate
	if math.IsInf(b1, 0) {
		return ServerModel{}, fmt.Errorf("idle %g, peak %g at rate %g: marginal power overflows: %w",
			idleWatts, peakWatts, peakRate, ErrBadModel)
	}
	return ServerModel{B0: idleWatts, B1: b1}, nil
}

// Power returns the draw of one server processing workload rate lambda.
func (m ServerModel) Power(lambda float64) float64 {
	if lambda < 0 {
		lambda = 0
	}
	return m.B1*lambda + m.B0
}

// FleetPower returns the paper's IDC power model (eq. 7)
//
//	P_j(λ_j) = b1·λ_j + m_j·b0
//
// for servers active servers processing aggregate rate lambda.
func (m ServerModel) FleetPower(servers int, lambda float64) float64 {
	if servers < 0 {
		servers = 0
	}
	if lambda < 0 {
		lambda = 0
	}
	return m.B1*lambda + float64(servers)*m.B0
}

// PeakFleetPower returns the maximum draw of a fleet running flat out.
func (m ServerModel) PeakFleetPower(servers int, peakRate float64) float64 {
	return m.FleetPower(servers, float64(servers)*peakRate)
}

// WattsToMW converts watts to megawatts.
func WattsToMW(w float64) float64 { return w / 1e6 }
