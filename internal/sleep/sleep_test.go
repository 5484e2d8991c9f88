package sleep

import (
	"errors"
	"math"
	"testing"

	"repro/internal/idc"
)

func testAlloc(t *testing.T, loads []float64) *idc.Allocation {
	t.Helper()
	top := idc.PaperTopology()
	a := idc.NewAllocation(top)
	for j, l := range loads {
		a.Set(0, j, l)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	top := idc.PaperTopology()
	if _, err := New(nil, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil topology: %v", err)
	}
	if _, err := New(top, Config{RampDownLimit: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative ramp: %v", err)
	}
	if _, err := New(top, Config{HysteresisFrac: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("hysteresis = 1: %v", err)
	}
	// NaN fails both range comparisons; accepted, it ran Counts with no
	// hysteresis at all.
	if _, err := New(top, Config{HysteresisFrac: math.NaN()}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NaN hysteresis: %v", err)
	}
}

func TestRequiredMatchesEq35(t *testing.T) {
	c, err := New(idc.PaperTopology(), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// λ = 15000 at Michigan (µ=2, D=1ms): 7500 + 500 = 8000 servers.
	req, err := c.Required(testAlloc(t, []float64{15000, 0, 0}))
	if err != nil {
		t.Fatalf("Required: %v", err)
	}
	if req[0] != 8000 {
		t.Fatalf("required[0] = %d, want 8000", req[0])
	}
	// Zero load still needs the standby floor 1/(µD).
	if req[1] != 800 {
		t.Fatalf("required[1] = %d, want 800", req[1])
	}
	if req[2] != 572 {
		t.Fatalf("required[2] = %d, want 572 (⌈571.43⌉)", req[2])
	}
}

func TestCountsFirstStep(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{})
	counts, err := c.Counts(testAlloc(t, []float64{15000, 0, 0}), nil)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[0] != 8000 {
		t.Fatalf("counts[0] = %d, want 8000", counts[0])
	}
}

func TestTurnOnIsImmediate(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{RampDownLimit: 10})
	prev := []int{1000, 800, 572}
	counts, err := c.Counts(testAlloc(t, []float64{30000, 0, 0}), prev)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[0] != 15500 { // 15000 + 500
		t.Fatalf("counts[0] = %d, want immediate 15500", counts[0])
	}
}

func TestRampDownLimited(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{RampDownLimit: 100})
	prev := []int{15500, 800, 572}
	counts, err := c.Counts(testAlloc(t, []float64{0, 0, 0}), prev)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[0] != 15400 {
		t.Fatalf("counts[0] = %d, want 15400 (ramped)", counts[0])
	}
	// Unlimited ramp drops straight to the floor.
	c0, _ := New(idc.PaperTopology(), Config{})
	counts0, err := c0.Counts(testAlloc(t, []float64{0, 0, 0}), prev)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts0[0] != 500 {
		t.Fatalf("unramped counts[0] = %d, want 500", counts0[0])
	}
}

func TestHysteresisKeepsMargin(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{HysteresisFrac: 0.1})
	prev := []int{20000, 800, 572}
	counts, err := c.Counts(testAlloc(t, []float64{15000, 0, 0}), prev)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	// required 8000, +10% margin = 8800.
	if counts[0] != 8800 {
		t.Fatalf("counts[0] = %d, want 8800", counts[0])
	}
}

func TestHysteresisClampedToFleet(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{HysteresisFrac: 0.5})
	top := idc.PaperTopology()
	full := float64(top.IDC(0).TotalServers)*top.IDC(0).ServiceRate - 1000
	counts, err := c.Counts(testAlloc(t, []float64{full, 0, 0}), nil)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[0] > top.IDC(0).TotalServers {
		t.Fatalf("counts[0] = %d exceeds fleet %d", counts[0], top.IDC(0).TotalServers)
	}
}

func TestCountsNeverBelowRequirement(t *testing.T) {
	// Whatever ramping does, the latency requirement must hold.
	c, _ := New(idc.PaperTopology(), Config{RampDownLimit: 1, HysteresisFrac: 0.2})
	a := testAlloc(t, []float64{20000, 30000, 10000})
	prev := []int{20000, 40000, 20000}
	counts, err := c.Counts(a, prev)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	req, _ := c.Required(a)
	for j := range counts {
		if counts[j] < req[j] {
			t.Fatalf("idc %d: counts %d below requirement %d", j, counts[j], req[j])
		}
	}
}

func TestCountsValidation(t *testing.T) {
	c, _ := New(idc.PaperTopology(), Config{})
	if _, err := c.Counts(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil allocation: %v", err)
	}
	if _, err := c.Counts(testAlloc(t, []float64{0, 0, 0}), []int{1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short prev: %v", err)
	}
}
