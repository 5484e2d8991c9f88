package qp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// phase1StartBits is the FNV-64a hash of the solves in
// TestPhase1StartBitsUnchanged, recorded on amd64 at commit 9cc4f4c,
// before the dense tableau priced row by row and findFeasible filled its
// matrices through row views.
const phase1StartBits = 0x5288b195053e8df9

// TestPhase1StartBitsUnchanged pins the solves that start from the phase-1
// LP. It re-solves the paper-scale MPC constraint structure (C5×N3, three
// steps) with 30 moving conservation right-hand sides through one
// workspace; the zero start violates conservation every time, so each
// solve runs findFeasible first. The hash covers the iteration count, the
// active set and the bits of X and Obj, so a changed pivot in the feasible
// start — which moves the start point and with it the active-set path —
// changes it.
func TestPhase1StartBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// rounding the recorded hash captures.
		t.Skipf("hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	const c, nIDC, b2 = 5, 3, 3
	r := rand.New(rand.NewSource(14))
	h, aeq, ain := mpcShapedFixture(r, c, nIDC, b2)
	ws := NewWorkspace()
	sum := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		sum.Write(buf[:])
	}
	for trial := 0; trial < 30; trial++ {
		p := mpcShapedProblem(r, h, aeq, ain, b2)
		// Bin's first block is U(k−1); move each portal's total by up to
		// −40%…+60% of its current load at every step.
		for s := 0; s < b2; s++ {
			for i := 0; i < c; i++ {
				var load float64
				for j := 0; j < nIDC; j++ {
					load += p.Bin[i*nIDC+j]
				}
				p.Beq[s*c+i] = (r.Float64() - 0.4) * load
			}
		}
		if p.feasible(p.X0, featol) {
			t.Fatalf("trial %d: the zero start is feasible; the solve would skip phase 1", trial)
		}
		res, err := SolveWith(p, ws)
		if err != nil {
			t.Fatalf("trial %d: SolveWith: %v", trial, err)
		}
		put(uint64(res.Iterations))
		put(uint64(len(res.Active)))
		for _, a := range res.Active {
			put(uint64(a))
		}
		put(uint64(len(res.X)))
		for _, v := range res.X {
			put(math.Float64bits(v))
		}
		put(math.Float64bits(res.Obj))
	}
	if got := sum.Sum64(); got != phase1StartBits {
		t.Errorf("phase-1-start corpus hash %#x, want %#x: a pivot or a result bit changed", got, uint64(phase1StartBits))
	}
}
