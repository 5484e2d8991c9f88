package lp

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// denseTableau is the reference the support-restricted tableau is checked
// against: the dense fill, pricing and pivot loops the tableau ran before
// its rows carried support bitsets. It embeds tableau only for the fields
// and for the helpers that read no support (rhsCol, objective, duals,
// inPhase1, isBasic); every method that fills, prices or pivots is
// redefined here, so none of the support code runs.
type denseTableau struct {
	tableau
}

// newDenseTableau fills the tableau densely: each row is scattered whole
// from its compressed form, and normalization negates the whole row, zeros
// included.
func newDenseTableau(p *Problem) *denseTableau {
	nOrig := len(p.C)
	mEq, mUb := rowCount(p.Aeq), rowCount(p.Aub)
	m := mEq + mUb
	nSlack := mUb
	nArt := mEq
	for _, b := range p.Bub {
		if b < 0 {
			nArt++
		}
	}
	nTotal := nOrig + nSlack + nArt
	t := &denseTableau{tableau{
		a:        make([][]float64, m),
		basis:    make([]int, m),
		nOrig:    nOrig,
		nSlack:   nSlack,
		nTotal:   nTotal,
		m:        m,
		mEq:      mEq,
		artStart: nOrig + nSlack,
		flipped:  make([]bool, m),
		artOfRow: make([]int, m),
	}}
	w := nTotal + 1
	slab := make([]float64, m*w)
	for r := range t.a {
		t.a[r] = slab[r*w : (r+1)*w : (r+1)*w]
	}
	for r := 0; r < mEq; r++ {
		p.Aeq.ScatterRowInto(t.a[r][:nOrig], r)
		t.a[r][nTotal] = p.Beq[r]
	}
	for r := 0; r < mUb; r++ {
		row := t.a[mEq+r]
		p.Aub.ScatterRowInto(row[:nOrig], r)
		row[nOrig+r] = 1 // slack
		row[nTotal] = p.Bub[r]
	}
	for r := 0; r < m; r++ {
		if t.a[r][nTotal] < 0 {
			for j := range t.a[r] {
				t.a[r][j] = -t.a[r][j]
			}
			t.flipped[r] = true
		}
	}
	for r := 0; r < m; r++ {
		t.artOfRow[r] = -1
		if r >= mEq && !t.flipped[r] {
			t.basis[r] = nOrig + (r - mEq)
			continue
		}
		col := t.artStart + t.nArt
		t.nArt++
		t.a[r][col] = 1
		t.basis[r] = col
		t.artOfRow[r] = col
	}
	t.phase2Cost = make([]float64, nTotal)
	copy(t.phase2Cost, p.C)
	return t
}

func (t *denseTableau) run() *Result {
	if t.nArt > 0 {
		cost := make([]float64, t.rhsCol())
		for j := t.artStart; j < t.artStart+t.nArt; j++ {
			cost[j] = 1
		}
		st := t.iterate(cost)
		if st == Unbounded {
			return &Result{Status: Infeasible, Iterations: t.iters}
		}
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iterations: t.iters}
		}
		if obj := t.objective(cost); obj > feasTol {
			return &Result{Status: Infeasible, Iterations: t.iters}
		}
		t.driveOutArtificials()
	}
	return t.phase2()
}

func (t *denseTableau) phase2() *Result {
	switch st := t.iterate(t.phase2Cost); st {
	case Unbounded, IterationLimit:
		return &Result{Status: st, Iterations: t.iters}
	}
	x := make([]float64, t.nOrig)
	rhs := t.rhsCol()
	for r, b := range t.basis {
		if b < t.nOrig {
			x[b] = t.a[r][rhs]
		}
	}
	dualsEq, dualsUb := t.duals()
	return &Result{
		Status: Optimal, X: x,
		Obj:        mat.Dot(t.phase2Cost[:t.nOrig], x),
		Iterations: t.iters,
		DualsEq:    dualsEq,
		DualsUb:    dualsUb,
	}
}

// iterate prices every column of every costed row and pivots densely.
func (t *denseTableau) iterate(cost []float64) Status {
	n := t.rhsCol()
	maxIters := 200 + 50*(2*t.m+t.artStart)
	if len(t.basicMark) < n {
		t.basicMark = make([]bool, n)
	}
	if len(t.rc) < n {
		t.rc = make([]float64, n)
	}
	mark := t.basicMark[:n]
	for j := range mark {
		mark[j] = false
	}
	for _, b := range t.basis {
		mark[b] = true
	}
	rc := t.rc[:n]
	inP1 := t.inPhase1(cost)
	for local := 0; ; local++ {
		if local > maxIters {
			return IterationLimit
		}
		t.iters++
		useBland := local > blandAfter
		copy(rc, cost[:n])
		for r, b := range t.basis {
			cb := cost[b]
			if cb == 0 {
				continue
			}
			for j, v := range t.a[r][:n] {
				if v != 0 {
					rc[j] -= cb * v
				}
			}
		}
		enter := -1
		bestRC := -pivotTol
		for j := 0; j < n; j++ {
			if mark[j] {
				continue
			}
			if cost[j] == 0 && j >= t.artStart && j < t.artStart+t.nArt && !inP1 {
				continue
			}
			if rc[j] < bestRC {
				if useBland {
					enter = j
					break
				}
				bestRC = rc[j]
				enter = j
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		minRatio := math.Inf(1)
		rhs := t.rhsCol()
		for r := 0; r < t.m; r++ {
			d := t.a[r][enter]
			if d <= pivotTol {
				continue
			}
			ratio := t.a[r][rhs] / d
			if ratio < minRatio-1e-12 || (math.Abs(ratio-minRatio) <= 1e-12 && (leave == -1 || t.basis[r] < t.basis[leave])) {
				minRatio = ratio
				leave = r
			}
		}
		if leave == -1 {
			return Unbounded
		}
		if useBland {
			t.blandPivots++
		}
		old := t.basis[leave]
		t.pivot(leave, enter)
		mark[old] = false
		mark[enter] = true
	}
}

// pivot divides and eliminates over every column, rhs included.
func (t *denseTableau) pivot(leave, enter int) {
	prow := t.a[leave]
	p := prow[enter]
	for j := range prow {
		prow[j] /= p
	}
	for r := 0; r < t.m; r++ {
		if r == leave {
			continue
		}
		f := t.a[r][enter]
		if f == 0 {
			continue
		}
		row := t.a[r]
		for j := range row {
			row[j] -= f * prow[j]
		}
	}
	t.basis[leave] = enter
}

func (t *denseTableau) driveOutArtificials() {
	rhs := t.rhsCol()
	for r := 0; r < t.m; r++ {
		b := t.basis[r]
		if b < t.artStart || b >= t.artStart+t.nArt {
			continue
		}
		if math.Abs(t.a[r][rhs]) > feasTol {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[r][j]) > pivotTol && !t.isBasic(j) {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			for j := 0; j <= rhs; j++ {
				if j != b {
					t.a[r][j] = 0
				}
			}
		}
	}
}

// denseSolver mirrors Solver's dense-tableau path for a constraint set that
// never changes: a resolve warm-starts from the retained optimal tableau
// when its rhs is still primal feasible and falls back to a cold solve when
// the warm phase 2 does not reach Optimal.
type denseSolver struct {
	t           *denseTableau
	lastOptimal bool
}

func (s *denseSolver) solve(p *Problem) *Result {
	if s.t != nil && s.lastOptimal {
		feasible := true
		for r := 0; r < s.t.m; r++ {
			if s.t.a[r][s.t.rhsCol()] < -feasTol {
				feasible = false
			}
		}
		if feasible {
			copy(s.t.phase2Cost[:s.t.nOrig], p.C)
			if res := s.t.phase2(); res.Status == Optimal {
				return res
			}
			s.lastOptimal = false
		}
	}
	s.t = newDenseTableau(p)
	res := s.t.run()
	s.lastOptimal = res.Status == Optimal
	return res
}

// sameResult reports the first difference between two results: status,
// iteration count, or the bits of any float in X, Obj, DualsEq or DualsUb.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations {
		t.Fatalf("%s: status %v after %d iterations, dense reference %v after %d",
			what, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	for _, g := range []struct {
		name      string
		got, want []float64
	}{
		{"X", got.X, want.X},
		{"Obj", []float64{got.Obj}, []float64{want.Obj}},
		{"DualsEq", got.DualsEq, want.DualsEq},
		{"DualsUb", got.DualsUb, want.DualsUb},
	} {
		if len(g.got) != len(g.want) {
			t.Fatalf("%s: %s has %d entries, dense reference %d", what, g.name, len(g.got), len(g.want))
		}
		for i := range g.got {
			if math.Float64bits(g.got[i]) != math.Float64bits(g.want[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), dense reference %v (%#x)", what, g.name, i,
					g.got[i], math.Float64bits(g.got[i]), g.want[i], math.Float64bits(g.want[i]))
			}
		}
	}
}

// fuzzValue decodes one byte into a small dyadic value, so eliminations
// often cancel to exact zeros of either sign.
func fuzzValue(b byte) float64 { return float64(int8(b)) / 4 }

// fuzzRHS decodes a right-hand side: +0, −0, or a small value of either
// sign (a negative ≤ rhs flips its row and gives it an artificial).
func fuzzRHS(b byte) float64 {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return fuzzValue(b)
}

// fuzzRows decodes an m×n constraint block. A row is drawn fresh (an entry
// is nonzero when its byte's low two bits do not exceed the row's
// density), left all zero, or made a multiple of an earlier row, so
// redundant and zero rows reach the phase-1 clean-up.
func fuzzRows(r *fuzzReader, m, n int) (*mat.SparseRows, []float64) {
	if m == 0 {
		return nil, nil
	}
	d := mat.Zeros(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		kind, density := r.byte(), r.byte()%4
		row := d.RowView(i)
		switch {
		case kind%8 == 0:
			// all zero
		case kind%8 == 1 && i > 0:
			src := int(r.byte()) % i
			f := fuzzValue(r.byte())
			for j, v := range d.RowView(src) {
				row[j] = f * v
			}
		default:
			for j := range row {
				if e := r.byte(); e%4 <= density {
					row[j] = fuzzValue(r.byte())
				}
			}
		}
		b[i] = fuzzRHS(r.byte())
	}
	return mat.SparseRowsFrom(d), b
}

// FuzzTableauMatchesDenseReference checks the support-restricted tableau
// against the dense reference loops bit for bit: status, iteration count
// and the bits of X, Obj and both dual vectors, through Solve and through a
// Solver's warm resolves, on small sparse LPs with flipped ≤ rows, zero and
// redundant rows, zero and −0 right-hand sides, and blandAfter forced low.
func FuzzTableauMatchesDenseReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04\x02\x03\x07\x02\x03 redundant rows and a low Bland cut-over"))
	f.Add([]byte{5, 1, 3, 2, 3, 1, 1, 2, 9, 2, 0xf0, 3, 7, 1, 3, 2, 4, 2, 0xfc, 1, 1, 0, 0, 2, 0xf8, 9, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + int(r.byte()%8)
		mEq := int(r.byte() % 4)
		mUb := int(r.byte() % 6)
		if bl := r.byte() % 8; bl < 5 {
			old := blandAfter
			blandAfter = int(bl) - 1
			defer func() { blandAfter = old }()
		}
		resolves := int(r.byte() % 4)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = fuzzValue(r.byte())
		}
		p.Aeq, p.Beq = fuzzRows(r, mEq, n)
		p.Aub, p.Bub = fuzzRows(r, mUb, n)

		got, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		sameResult(t, "Solve", got, newDenseTableau(p).run())

		var s Solver
		var ref denseSolver
		for k := 0; k <= resolves; k++ {
			if k > 0 {
				for j := range p.C {
					p.C[j] = fuzzValue(r.byte())
				}
			}
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("Solver.Solve %d: %v", k, err)
			}
			sameResult(t, "Solver.Solve", got, ref.solve(p))
		}
	})
}
