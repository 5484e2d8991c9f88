// Package sleep implements the paper's server sleep (ON/OFF) control — the
// slow loop of the two-time-scale architecture (§IV.B). The base law is
// eq. (35): m_j = ⌈λ_j/µ_j + 1/(µ_j·D_j)⌉, the fewest servers that serve
// the allocated workload within the latency bound. Two practical guards are
// layered on top:
//
//   - a ramp limit on shutdowns ("the dynamic control approach turns ON or
//     turns OFF servers gradually"), and
//   - a hysteresis margin that keeps a fraction of headroom online before
//     powering servers off, avoiding ON/OFF flapping on noisy workloads.
//
// Turn-ons are never limited: serving the allocated workload within the
// latency bound always takes priority over power savings.
package sleep

import (
	"errors"
	"fmt"

	"repro/internal/idc"
)

// ErrBadConfig is returned for invalid controller parameters.
var ErrBadConfig = errors.New("sleep: invalid configuration")

// Config parameterizes the controller.
type Config struct {
	// RampDownLimit caps how many servers may be turned OFF per IDC per
	// step. 0 means unlimited (the paper's bare eq. 35).
	RampDownLimit int
	// HysteresisFrac keeps ⌈frac·required⌉ extra servers online before
	// shutting down; in [0, 1). 0 disables hysteresis.
	HysteresisFrac float64
}

// Controller computes active-server counts from allocations.
type Controller struct {
	cfg Config
	top *idc.Topology
}

// New builds a sleep controller for a topology.
func New(top *idc.Topology, cfg Config) (*Controller, error) {
	if top == nil {
		return nil, fmt.Errorf("nil topology: %w", ErrBadConfig)
	}
	if cfg.RampDownLimit < 0 {
		return nil, fmt.Errorf("ramp-down limit %d: %w", cfg.RampDownLimit, ErrBadConfig)
	}
	// !(f >= 0 && f < 1) also rejects NaN, which fails every comparison.
	if !(cfg.HysteresisFrac >= 0 && cfg.HysteresisFrac < 1) {
		return nil, fmt.Errorf("hysteresis fraction %g: %w", cfg.HysteresisFrac, ErrBadConfig)
	}
	return &Controller{cfg: cfg, top: top}, nil
}

// Required returns the bare eq. (35) counts for an allocation, clamped to
// each fleet.
func (c *Controller) Required(a *idc.Allocation) ([]int, error) {
	per := a.PerIDC()
	out := make([]int, c.top.N())
	for j := range out {
		m, err := c.top.IDC(j).MinServersFor(per[j])
		if err != nil {
			return nil, fmt.Errorf("sleep: idc %d: %w", j, err)
		}
		out[j] = m
	}
	return out, nil
}

// Counts returns the next active-server vector given the new allocation and
// the previous counts. prev may be nil on the first step (no ramp or
// hysteresis applies then).
func (c *Controller) Counts(a *idc.Allocation, prev []int) ([]int, error) {
	if a == nil {
		return nil, fmt.Errorf("nil allocation: %w", ErrBadConfig)
	}
	if prev != nil && len(prev) != c.top.N() {
		return nil, fmt.Errorf("%d previous counts for %d IDCs: %w", len(prev), c.top.N(), ErrBadConfig)
	}
	required, err := c.Required(a)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(required))
	for j, req := range required {
		target := req
		if c.cfg.HysteresisFrac > 0 {
			withMargin := req + int(float64(req)*c.cfg.HysteresisFrac+0.999999)
			if max := c.top.IDC(j).TotalServers; withMargin > max {
				withMargin = max
			}
			target = withMargin
		}
		switch {
		case prev == nil:
			out[j] = target
		case target >= prev[j]:
			// Turn-ons are immediate: latency dominates.
			out[j] = target
		default:
			down := prev[j] - target
			if c.cfg.RampDownLimit > 0 && down > c.cfg.RampDownLimit {
				down = c.cfg.RampDownLimit
			}
			out[j] = prev[j] - down
		}
	}
	return out, nil
}
