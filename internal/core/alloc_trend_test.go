package core

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/ctrl"
	"repro/internal/idc"
	"repro/internal/price"
)

// steadyTickAllocs is the allocation count of one steady fast tick at
// C5×N3, measured when this test went in: the telemetry record's fresh
// slices, the plant step and the sleep and latency bookkeeping around the
// allocation-free MPC step.
const steadyTickAllocs = 25

// TestStepAllocTrend pins the allocations of one whole closed-loop tick,
// Controller.Step on a steady fast tick, across topology sizes: the count
// may not grow with C or N, and at paper scale (C5×N3) it may not rise
// above steadyTickAllocs. Each size runs 400 warm-up ticks at constant
// demand, 60% of capacity, on the embedded prices from 6 a.m., with the
// slow loop's period beyond the run, so the measured ticks are fast ticks
// on one model with the QP's caches settled.
func TestStepAllocTrend(t *testing.T) {
	sizes := []struct{ c, n int }{{3, 2}, {5, 3}, {8, 6}, {12, 8}}
	ns := make([]int, len(sizes))
	for i, s := range sizes {
		ns[i] = s.n
	}
	portalsFor := func(n int) int {
		for _, s := range sizes {
			if s.n == n {
				return s.c
			}
		}
		t.Fatalf("no portal count for n=%d", n)
		return 0
	}
	const warmup, runs = 400, 100
	alloctest.Run(t, []alloctest.AllocTest{{
		Name: "Step",
		Ns:   ns,
		Runs: runs,
		Setup: func(t *testing.T, n int) func() {
			c := portalsFor(n)
			top, err := idc.SyntheticTopology(c, n, 20000)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := New(Config{
				Topology:  top,
				Prices:    price.NewEmbeddedModel(),
				Ts:        30,
				StartHour: 6,
				// Past the last tick: AllocsPerRun adds one unmeasured run.
				SlowEvery: warmup + runs + 1,
				MPC:       ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6},
			})
			if err != nil {
				t.Fatal(err)
			}
			var capacity float64
			for _, v := range top.Capacities() {
				capacity += v
			}
			demands := make([]float64, c)
			for i := range demands {
				demands[i] = 0.6 * capacity / float64(c)
			}
			for k := 0; k < warmup; k++ {
				if _, err := ctl.Step(demands); err != nil {
					t.Fatalf("C%d×N%d warm-up tick %d: %v", c, n, k, err)
				}
			}
			return func() {
				if _, err := ctl.Step(demands); err != nil {
					t.Fatal(err)
				}
			}
		},
		Trend: func(t *testing.T, ns []int, allocs []float64) {
			alloctest.Flat(0)(t, ns, allocs)
			for i, n := range ns {
				if n == 3 && allocs[i] > steadyTickAllocs {
					t.Errorf("C5×N3: %v allocs per tick, want at most %d", allocs[i], steadyTickAllocs)
				}
			}
			t.Logf("allocs per tick at N %v: %v", ns, allocs)
		},
	}})
}
