package ctrl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/idc"
)

// gridBits is the FNV-64a hash of TestMPCGridBitsUnchanged, recorded on
// amd64 at commit 4976e53, before the QP's Gram–Schmidt basis and
// constraint rows were compressed.
const gridBits = 0x6622b0005d33dd2d

// TestMPCGridBitsUnchanged pins the C8×N6 solve path of the grid-c8n6
// benchmark workload (144 QP variables) across a model swap. It runs 40
// steps with moving demand; at step 20 a model with other prices replaces
// the first, so the condensed cache is rebuilt and the warm start dropped,
// as after the 7 a.m. price change, while the Hessian and the QP workspace
// carry over (CostWeight 0). Portal 0's demand is 0 for steps 8–11,
// which makes all its nonnegativity rows active alongside its conservation
// row, a dependent set that pruneDependent must prune. The hash covers
// every step's QP iteration count and the bits of U, so a changed pivot, a
// changed prune decision or a changed result bit changes it.
func TestMPCGridBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// rounding the recorded hash captures.
		t.Skipf("hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	const c, n = 8, 6
	top, err := idc.SyntheticTopology(c, n, 20000)
	if err != nil {
		t.Fatal(err)
	}
	pricesA := make([]float64, n)
	pricesB := make([]float64, n)
	for j := range pricesA {
		pricesA[j] = 20 + float64(j*7%40)
		pricesB[j] = 55 - float64(j*11%30)
	}
	modelA, err := NewFoldedModel(top, pricesA, 30)
	if err != nil {
		t.Fatal(err)
	}
	modelB, err := NewFoldedModel(top, pricesB, 30)
	if err != nil {
		t.Fatal(err)
	}
	demandAt := func(k int) []float64 {
		d := make([]float64, c)
		for i := range d {
			d[i] = 9000 * (1 + 0.2*math.Sin(0.4*float64(k)+float64(i)))
		}
		if k >= 8 && k < 12 {
			d[0] = 0
		}
		return d
	}
	ref, err := alloc.Optimize(top, pricesA, demandAt(0))
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 4, PredHorizon: 6, CtrlHorizon: 3})
	if err != nil {
		t.Fatal(err)
	}

	sum := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		sum.Write(buf[:])
	}
	model := modelA
	state := make([]float64, model.StateDim())
	prevU := ref.Allocation.Vector()
	iters := 0
	for k := 0; k < 40; k++ {
		if k == 20 {
			model = modelB
			if ref, err = alloc.Optimize(top, pricesB, demandAt(k)); err != nil {
				t.Fatal(err)
			}
		}
		in := StepInput{
			Model:    model,
			State:    state,
			PrevU:    prevU,
			Demands:  demandAt(k),
			RefPower: ref.PowerWatts,
		}
		out, err := mpc.Step(in)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		iters += out.QPIterations
		put(uint64(out.QPIterations))
		for _, v := range out.U {
			put(math.Float64bits(v))
		}
		// The loop follows the MPC's own prediction X(k+1|k). Outputs alias
		// the controller's scratch: copy what the next step reads.
		state = predictedStates(t, mpc, in)[0]
		prevU = append([]float64(nil), out.U...)
	}
	if got := sum.Sum64(); got != gridBits {
		t.Errorf("C8×N6 hash %#x (%d QP iterations), want %#x: a pivot, a prune decision or a result bit changed",
			got, iters, uint64(gridBits))
	}
}
