package qp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// denseRefEntry is one decision of densePruneReference.
type denseRefEntry struct {
	id     int
	vec    []float64
	pruned bool
}

// densePruneReference is pruneDependent before its basis was compressed,
// run cold: the dense modified Gram–Schmidt over full rows, with no cache.
// It prunes active in place and returns every decision in processing
// order.
func densePruneReference(aeqRows, ainRows [][]float64, active []bool, mEq int) []denseRefEntry {
	var entries []denseRefEntry
	residualOf := func(row []float64) []float64 {
		norm0 := mat.NormVec(row)
		if norm0 == 0 {
			return nil
		}
		r := append([]float64{}, row...)
		for pass := 0; pass < 2; pass++ {
			for _, e := range entries {
				if e.vec == nil {
					continue
				}
				dot := mat.Dot(r, e.vec)
				for k := range r {
					r[k] -= dot * e.vec[k]
				}
			}
		}
		nr := mat.NormVec(r)
		if nr <= 1e-10*norm0 {
			return nil
		}
		inv := 1 / nr
		for k := range r {
			r[k] *= inv
		}
		return r
	}
	process := func(id int, row []float64, keepDependent bool) bool {
		vec := residualOf(row)
		pruned := vec == nil && !keepDependent
		entries = append(entries, denseRefEntry{id: id, vec: vec, pruned: pruned})
		return !pruned
	}
	for i := 0; i < mEq; i++ {
		process(i, aeqRows[i], true)
	}
	for i, a := range active {
		if a && !process(mEq+i, ainRows[i], false) {
			active[i] = false
		}
	}
	return entries
}

// stackLatencyRows returns the inequality rows of the condensed MPC as
// ctrl stacks them: the latency rows (IDC j's cumulated intake at step s,
// row s·nIDC+j), then the fixture's cumulated nonnegativity rows.
func stackLatencyRows(c, nIDC, b2 int, nonneg *mat.Dense) *mat.Dense {
	nu := c * nIDC
	ain := mat.Zeros(nIDC*b2+nonneg.Rows(), nu*b2)
	for s := 0; s < b2; s++ {
		for rr := 0; rr <= s; rr++ {
			for j := 0; j < nIDC; j++ {
				for i := 0; i < c; i++ {
					ain.Set(s*nIDC+j, rr*nu+i*nIDC+j, 1)
				}
			}
		}
	}
	for i := 0; i < nonneg.Rows(); i++ {
		copy(ain.RowView(nIDC*b2+i), nonneg.RowView(i))
	}
	return ain
}

// TestPruneDependentMatchesDenseReference drives one pruneState through
// about 400 pruneDependent calls over the C8×N6 MPC row shape and checks
// every call bit for bit against the dense reference run cold: the pruned
// active mask, and for each processed row its id, its pruned flag and its
// basis vector expanded to dense. Each call is one solve's single prune of
// its starting working set. Successive masks grow by one blocking row, so
// the cached sequence is replayed up to the inserted row and
// re-orthogonalized from there; every third call replays an earlier mask,
// so whole sequences and long prefixes are replayed too; and now and then
// a fresh mask diverges right after the equality rows. Dependent sets are
// forced: all of one portal's nonnegativity rows at one step sum to minus
// its conservation row, and all latency rows at one step sum to the sum of
// that step's conservation rows. Entries a miss invalidates must release
// their vectors.
func TestPruneDependentMatchesDenseReference(t *testing.T) {
	const c, nIDC, b2 = 8, 6, 3
	const nu = c * nIDC
	r := rand.New(rand.NewSource(15))
	_, aeq, nonneg := mpcShapedFixture(r, c, nIDC, b2)
	ain := stackLatencyRows(c, nIDC, b2, nonneg)
	mEq, mIn := aeq.Rows(), ain.Rows()
	aeqRows := make([][]float64, mEq)
	for i := range aeqRows {
		aeqRows[i] = aeq.RowView(i)
	}
	ainRows := make([][]float64, mIn)
	for i := range ainRows {
		ainRows[i] = ain.RowView(i)
	}
	aeqS, ainS := mat.SparseRowsFrom(aeq), mat.SparseRowsFrom(ain)

	// randomMask draws a sparse working set and sometimes adds a forced
	// dependent set.
	randomMask := func() []bool {
		active := make([]bool, mIn)
		for i := range active {
			active[i] = r.Intn(8) == 0
		}
		s := r.Intn(b2)
		switch r.Intn(3) {
		case 0: // every nonnegativity row of one portal at step s
			i := r.Intn(c)
			for j := 0; j < nIDC; j++ {
				active[nIDC*b2+s*nu+i*nIDC+j] = true
			}
		case 1: // every latency row at step s
			for j := 0; j < nIDC; j++ {
				active[s*nIDC+j] = true
			}
		}
		return active
	}

	var ps pruneState
	calls, prunes := 0, 0
	active := randomMask()
	var masks [][]bool // every mask pruned so far, as drawn
	for calls < 400 {
		switch {
		case calls%3 == 2:
			copy(active, masks[r.Intn(len(masks))])
		case r.Intn(8) == 0:
			active = randomMask()
		default:
			// One blocking row enters the pruned working set, as the line
			// search adds it.
			active[r.Intn(mIn)] = true
		}
		masks = append(masks, append([]bool(nil), active...))
		want := append([]bool(nil), active...)
		ref := densePruneReference(aeqRows, ainRows, want, mEq)
		pruneDependent(aeqS, ainS, active, mEq, &ps)
		calls++
		for i := range want {
			if active[i] != want[i] {
				t.Fatalf("call %d: active[%d] = %t, dense reference %t", calls, i, active[i], want[i])
			}
		}
		seq := ps.entries
		if len(seq) < len(ref) {
			t.Fatalf("call %d: %d cached entries, dense reference processed %d rows", calls, len(seq), len(ref))
		}
		// A suffix a miss invalidated must not stay reachable through the
		// backing array past the sequence's length.
		for _, e := range seq[len(seq):cap(seq)] {
			if e.vec != nil {
				t.Fatalf("call %d: a dropped basis vector stays in the backing array", calls)
			}
		}
		for pos, e := range ref {
			got := seq[pos]
			if got.id != e.id || got.pruned != e.pruned || (got.vec == nil) != (e.vec == nil) {
				t.Fatalf("call %d pos %d: id %d pruned %t kept-vector %t, dense reference id %d pruned %t kept-vector %t",
					calls, pos, got.id, got.pruned, got.vec != nil, e.id, e.pruned, e.vec != nil)
			}
			if e.pruned {
				prunes++
			}
			if e.vec == nil {
				continue
			}
			dense := make([]float64, len(e.vec))
			for _, nz := range got.vec {
				dense[nz.col] = nz.v
			}
			for col := range dense {
				if math.Float64bits(dense[col]) != math.Float64bits(e.vec[col]) {
					t.Fatalf("call %d pos %d (id %d): basis[%d] = %v, dense reference %v",
						calls, pos, e.id, col, dense[col], e.vec[col])
				}
			}
		}
	}
	if prunes == 0 {
		t.Fatal("no call pruned a row: the dependent sets were not exercised")
	}
	t.Logf("%d calls, %d pruned decisions", calls, prunes)
}
