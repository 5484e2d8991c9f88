package ctrl

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloctest"
	"repro/internal/idc"
)

// TestMPCStepAllocTrend pins allocation *scaling*, not just the point
// value: steady-state MPC.Step must stay allocation-free at every topology
// size (the setup mirrors BenchmarkMPCStepScaling), so a scratch buffer
// that silently becomes size-dependent fails here rather than surviving
// until a bigger deployment benchmarks it.
func TestMPCStepAllocTrend(t *testing.T) {
	// {9, 10} crosses qp.StructuredMinVars (90 inputs × β2 = 3 → 270 vars),
	// so the trend also pins the structured solver path's steady state at
	// zero allocations, not just the small dense topologies. It is the
	// smallest such size: larger ones (e.g. C20×N10) spend minutes in the
	// one-time cold solve for no additional allocation coverage.
	sizes := []struct{ c, n int }{{5, 3}, {8, 6}, {10, 8}, {9, 10}}
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
	alloctest.Run(t, []alloctest.AllocTest{{
		Name: "MPCStep",
		Ns:   ns,
		Setup: func(t *testing.T, n int) func() {
			c := portalsFor(n)
			top, err := idc.SyntheticTopology(c, n, 20000)
			if err != nil {
				t.Fatal(err)
			}
			prices := make([]float64, n)
			for j := range prices {
				prices[j] = 20 + float64(j*7%40)
			}
			model, err := NewFoldedModel(top, prices, 30)
			if err != nil {
				t.Fatal(err)
			}
			demands := make([]float64, c)
			for i := range demands {
				demands[i] = 8000
			}
			ref, err := alloc.Optimize(top, prices, demands)
			if err != nil {
				t.Fatal(err)
			}
			mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 4, PredHorizon: 6, CtrlHorizon: 3})
			if err != nil {
				t.Fatal(err)
			}
			in := StepInput{
				Model:    model,
				State:    make([]float64, model.StateDim()),
				PrevU:    ref.Allocation.Vector(),
				Demands:  demands,
				RefPower: ref.PowerWatts,
			}
			// Warm the condensed cache and grow every scratch buffer to its
			// steady size before measuring.
			for k := 0; k < 3; k++ {
				if _, err := mpc.Step(in); err != nil {
					t.Fatal(err)
				}
			}
			return func() {
				if _, err := mpc.Step(in); err != nil {
					t.Fatal(err)
				}
			}
		},
		Trend: alloctest.FlatZero(),
	}})
}

// modelBuildAllocs is the allocation count of one NewFoldedModel build,
// measured at every size from C5×N3 to C50×N10, at Ts 30 and 300, when
// this test went in.
const modelBuildAllocs = 43

// TestNewFoldedModelAllocTrend pins the model build's allocations: flat in
// the portal count and at most modelBuildAllocs. The Van Loan block holds
// one input column per IDC, so only the (N+1)×NC copy of G grows with C,
// in one allocation. A block over every portal column allocates once per
// column in the Padé solve and fails here, and so does a build that keeps
// a matrix it does not need.
func TestNewFoldedModelAllocTrend(t *testing.T) {
	const n = 10
	prices := make([]float64, n)
	for j := range prices {
		prices[j] = 20 + float64(j*7%40)
	}
	alloctest.Run(t, []alloctest.AllocTest{{
		Name: "NewFoldedModel",
		Ns:   []int{5, 20, 50},
		Setup: func(t *testing.T, c int) func() {
			top, err := idc.SyntheticTopology(c, n, 20000)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := NewFoldedModel(top, prices, 300); err != nil {
					t.Fatal(err)
				}
			}
		},
		Trend: func(t *testing.T, ns []int, allocs []float64) {
			alloctest.Flat(0)(t, ns, allocs)
			for i, c := range ns {
				if allocs[i] > modelBuildAllocs {
					t.Errorf("C%d×N%d: %v allocs per build, want at most %d", c, n, allocs[i], modelBuildAllocs)
				}
			}
		},
	}})
}
