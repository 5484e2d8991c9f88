package lp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/mat"
)

// hashResult folds one solve outcome into h: the status, the iteration
// count and the bits of every result float, in order.
func hashResult(h hash.Hash64, res *Result) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(res.Status))
	put(uint64(res.Iterations))
	for _, group := range [][]float64{res.X, {res.Obj}, res.DualsEq, res.DualsUb} {
		put(uint64(len(group)))
		for _, v := range group {
			put(math.Float64bits(v))
		}
	}
}

// sparseLP draws a random LP whose rows have roughly half their entries
// zero. Some ≤ rows get a negative rhs, so normalization flips them and
// they need an artificial; without the optional box row Σx ≤ 10n the
// problem may be unbounded, and the rhs draw makes some infeasible.
func sparseLP(rng *rand.Rand, n, mEq, mUb int, box bool) *Problem {
	entry := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		if rng.Intn(3) == 0 {
			return float64(rng.Intn(5) - 1)
		}
		return rng.NormFloat64()
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = rng.NormFloat64()
	}
	p := &Problem{C: c}
	if mEq > 0 {
		p.Aeq = mat.Zeros(mEq, n)
		p.Beq = make([]float64, mEq)
		for r := 0; r < mEq; r++ {
			for j := 0; j < n; j++ {
				p.Aeq.Set(r, j, entry())
			}
			p.Beq[r] = 4*rng.Float64() - 1
		}
	}
	rows := mUb
	if box {
		rows++
	}
	if rows > 0 {
		p.Aub = mat.Zeros(rows, n)
		p.Bub = make([]float64, rows)
		for r := 0; r < mUb; r++ {
			for j := 0; j < n; j++ {
				p.Aub.Set(r, j, entry())
			}
			p.Bub[r] = 6*rng.Float64() - 2
		}
		if box {
			for j := 0; j < n; j++ {
				p.Aub.Set(mUb, j, 1)
			}
			p.Bub[mUb] = 10 * float64(n)
		}
	}
	return p
}

// phase1LP builds the LP qp's feasible-start search solves: a free x split
// as x⁺ − x⁻ over a random mEq×n equality system and an mIn×n inequality
// system, each inequality with its own elastic slack, minimizing the total
// slack — the columns [A, −A, −I]. Some inequality rhs are negative, so
// their rows flip and take an artificial.
func phase1LP(rng *rand.Rand, n, mEq, mIn int) *Problem {
	nv := 2*n + mIn
	c := make([]float64, nv)
	for i := 0; i < mIn; i++ {
		c[2*n+i] = 1
	}
	aeq := mat.Zeros(mEq, nv)
	beq := make([]float64, mEq)
	for i := 0; i < mEq; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				aeq.Set(i, j, 1)
				aeq.Set(i, n+j, -1)
			}
		}
		beq[i] = rng.NormFloat64()
	}
	aub := mat.Zeros(mIn, nv)
	bub := make([]float64, mIn)
	for i := 0; i < mIn; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				v := rng.NormFloat64()
				aub.Set(i, j, v)
				aub.Set(i, n+j, -v)
			}
		}
		aub.Set(i, 2*n+i, -1)
		bub[i] = rng.Float64() - 0.3
	}
	return &Problem{C: c, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub}
}

// denseTableauBits is the FNV-64a hash of the corpus in
// TestDenseTableauBitsUnchanged, recorded on amd64 at commit 9cc4f4c,
// before the tableau priced row by row and dropped its unused artificial
// columns.
const denseTableauBits = 0xc86d184ea77f4724

// TestDenseTableauBitsUnchanged pins the dense tableau's pivots and floats:
// it hashes the status, iteration count and every result bit of a seeded
// corpus — random sparse LPs (optimal, infeasible and unbounded, with
// flipped rows), phase-1-shaped LPs, a Bland-forced degenerate problem and
// warm Solver resolves — against a hash recorded before the pricing loop
// and the tableau layout changed. Any change in a pivot choice or in the
// rounding of a reduced cost moves the hash.
func TestDenseTableauBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// rounding the recorded hash captures.
		t.Skipf("hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	h := fnv.New64a()
	solve := func(p *Problem) *Result {
		t.Helper()
		res, err := SolveMethod(p, DenseTableau)
		if err != nil {
			t.Fatalf("SolveMethod: %v", err)
		}
		hashResult(h, res)
		return res
	}
	rng := rand.New(rand.NewSource(14))
	seen := make(map[Status]int)
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(14)
		mEq := rng.Intn(5)
		mUb := rng.Intn(12)
		res := solve(sparseLP(rng, n, mEq, mUb, trial%3 != 0))
		seen[res.Status]++
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] == 0 {
			t.Errorf("corpus has no %v problem (outcomes %v)", st, seen)
		}
	}
	for trial := 0; trial < 4; trial++ {
		if res := solve(phase1LP(rng, 45, 15, 54)); res.Status != Optimal {
			t.Errorf("phase-1 LP %d: %v", trial, res.Status)
		}
	}

	func() {
		old := blandAfter
		blandAfter = -1
		defer func() { blandAfter = old }()
		// Beale's cycling example, then random degenerate problems (rhs
		// zero on every ≤ row): every pivot runs under Bland's rule.
		solve(&Problem{
			C: []float64{-0.75, 150, -0.02, 6},
			Aub: mat.MustNew(3, 4, []float64{
				0.25, -60, -1.0 / 25, 9,
				0.5, -90, -1.0 / 50, 3,
				0, 0, 1, 0,
			}),
			Bub: []float64{0, 0, 1},
		})
		for trial := 0; trial < 10; trial++ {
			p := sparseLP(rng, 4+rng.Intn(6), rng.Intn(3), 2+rng.Intn(5), true)
			for r := 0; r+1 < len(p.Bub); r++ {
				p.Bub[r] = 0
			}
			solve(p)
		}
	}()

	// Warm resolves: one Solver per constraint set, costs moving.
	var s Solver
	for hour := 0; hour < 48; hour++ {
		res, err := s.Solve(refLPProblem(t, hour%24))
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res)
	}
	base := phase1LP(rng, 12, 4, 14)
	var s2 Solver
	for k := 0; k < 20; k++ {
		p := *base
		p.C = append([]float64(nil), base.C...)
		for j := range p.C {
			p.C[j] += rng.Float64()
		}
		res, err := s2.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res)
	}
	if w, _ := s.Stats(); w == 0 {
		t.Error("no warm resolve of the reference-shaped LP")
	}
	if w, _ := s2.Stats(); w == 0 {
		t.Error("no warm resolve of the phase-1-shaped LP")
	}

	if got := h.Sum64(); got != denseTableauBits {
		t.Errorf("dense-tableau corpus hash %#x, want %#x: a pivot or a result bit changed", got, uint64(denseTableauBits))
	}
}

// TestDenseSolveAllocsFlatInRows pins the dense tableau's allocation count
// as independent of the row count: the rows share one backing slab, so a
// phase-1-shaped solve at 12, 36 or 69 rows allocates the same.
func TestDenseSolveAllocsFlatInRows(t *testing.T) {
	alloctest.Run(t, []alloctest.AllocTest{{
		Name: "phase1-shaped",
		Ns:   []int{12, 36, 69},
		Setup: func(t *testing.T, m int) func() {
			// The C5×N3 proportions: 15 of 69 rows are equalities, and
			// the free variables number 45.
			mEq := m * 15 / 69
			p := phase1LP(rand.New(rand.NewSource(int64(m))), m*45/69, mEq, m-mEq)
			return func() {
				res, err := Solve(p)
				if err != nil || res.Status != Optimal {
					t.Fatalf("Solve: %v / %v", err, res)
				}
			}
		},
		Runs:  5,
		Trend: alloctest.Flat(0),
	}})
}
