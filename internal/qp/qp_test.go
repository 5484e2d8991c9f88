package qp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// sparse compresses a row-major dense fixture matrix into the form
// Problem takes.
func sparse(rows, cols int, data ...float64) *mat.SparseRows {
	return mat.SparseRowsFrom(mat.MustNew(rows, cols, data))
}

// dense expands a compressed constraint matrix for the dense test oracles.
func dense(a *mat.SparseRows) *mat.Dense {
	d := mat.Zeros(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		a.ScatterRowInto(d.RowView(i), i)
	}
	return d
}

// feasible reports whether x satisfies all constraints of p within tol,
// through dense matrix-vector products: an oracle independent of the
// solver's compressed row dots.
func feasible(p *Problem, x []float64, tol float64) bool {
	if p.Aeq != nil {
		ax, err := mat.MulVec(dense(p.Aeq), x)
		if err != nil {
			return false
		}
		for i, v := range ax {
			if math.Abs(v-p.Beq[i]) > tol {
				return false
			}
		}
	}
	if p.Ain != nil {
		ax, err := mat.MulVec(dense(p.Ain), x)
		if err != nil {
			return false
		}
		for i, v := range ax {
			if v > p.Bin[i]+tol {
				return false
			}
		}
	}
	return true
}

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := SolveWith(p, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Problem
	}{
		{"nil H", Problem{Q: []float64{1}}},
		{"nonsquare H", Problem{H: mat.Zeros(2, 3), Q: []float64{1, 1}}},
		{"q length", Problem{H: mat.Identity(2), Q: []float64{1}}},
		{"aeq shape", Problem{H: mat.Identity(2), Q: []float64{0, 0}, Aeq: sparse(1, 3, 0, 0, 0), Beq: []float64{0}}},
		{"ain shape", Problem{H: mat.Identity(2), Q: []float64{0, 0}, Ain: sparse(2, 2, 0, 0, 0, 0), Bin: []float64{0}}},
		{"x0 length", Problem{H: mat.Identity(2), Q: []float64{0, 0}, X0: []float64{1}}},
		// A right-hand side without its matrix used to be ignored: the
		// solve returned the unconstrained x with a nil error.
		{"beq without aeq", Problem{H: mat.Identity(2), Q: []float64{-1, -1}, Beq: []float64{0}}},
		{"bin without ain", Problem{H: mat.Identity(2), Q: []float64{-1, -1}, Bin: []float64{0}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); !errors.Is(err, ErrBadProblem) {
				t.Fatalf("Validate = %v, want ErrBadProblem", err)
			}
		})
	}
}

// TestSolveRejectsNonFinite pins the data checks of Validate: a NaN or ±Inf
// in q, beq, bin or X0 is ErrBadProblem naming the vector and the index,
// through Solve and through SolveLSWith (with and without a cached form),
// where a bad residual d reaches q. Without the check such a solve returned
// a wrong or NaN x with a nil error. So did a NaN or ±Inf in H, which
// SolveWith rejects where it factors H, naming the entry; through
// SolveLSWith a bad regularization weight wr reaches H alone. And so did one
// in Aeq or Ain, with or without a start point: SolveWith rejects it, naming
// the entry, before the start point's feasibility test or the phase-1 LP
// reads the rows.
func TestSolveRejectsNonFinite(t *testing.T) {
	// min ½‖x‖² − x₁ − x₂ s.t. x₁ + x₂ = 1, x ≤ 1, from the feasible
	// [0.5 0.5], which is also the minimizer. As a least-squares problem:
	// M = I, d = [0.5 0.5], wr = 1.
	problem := func() *Problem {
		return &Problem{
			H: mat.Identity(2), Q: []float64{-1, -1},
			Aeq: sparse(1, 2, 1, 1), Beq: []float64{1},
			Ain: sparse(2, 2, 1, 0, 0, 1), Bin: []float64{1, 1},
			X0: []float64{0.5, 0.5},
		}
	}
	form, err := NewLSForm(mat.Identity(2), nil, []float64{1, 1})
	if err != nil {
		t.Fatalf("NewLSForm: %v", err)
	}
	lsProblem := func() *LSProblem {
		return &LSProblem{
			M: form.m, D: []float64{0.5, 0.5}, Wr: []float64{1, 1},
			Aeq: sparse(1, 2, 1, 1), Beq: []float64{1},
			Ain: sparse(2, 2, 1, 0, 0, 1), Bin: []float64{1, 1},
			X0: []float64{0.5, 0.5},
		}
	}
	if res := solveOK(t, problem()); res.X[0] != 0.5 || res.X[1] != 0.5 {
		t.Fatalf("finite problem: X = %v, want [0.5 0.5]", res.X)
	}
	for _, f := range []*LSForm{nil, form} {
		if res, err := SolveLSWith(lsProblem(), f, nil); err != nil || res.X[0] != 0.5 || res.X[1] != 0.5 {
			t.Fatalf("finite LS problem (form %t): X = %v, err = %v, want [0.5 0.5]", f != nil, res, err)
		}
	}

	wantErr := func(t *testing.T, err error, name string) {
		t.Helper()
		if !errors.Is(err, ErrBadProblem) {
			t.Fatalf("err = %v, want ErrBadProblem", err)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("err = %q, want it to name %s", err, name)
		}
	}
	fields := []struct {
		name   string // as Validate names it
		lsName string // the LSProblem field that feeds it
		vec    func(*Problem) []float64
		lsVec  func(*LSProblem) []float64
	}{
		{"Q", "D", func(p *Problem) []float64 { return p.Q }, func(l *LSProblem) []float64 { return l.D }},
		{"Beq", "Beq", func(p *Problem) []float64 { return p.Beq }, func(l *LSProblem) []float64 { return l.Beq }},
		{"Bin", "Bin", func(p *Problem) []float64 { return p.Bin }, func(l *LSProblem) []float64 { return l.Bin }},
		{"X0", "X0", func(p *Problem) []float64 { return p.X0 }, func(l *LSProblem) []float64 { return l.X0 }},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, fd := range fields {
			for i := range fd.vec(problem()) {
				name := fmt.Sprintf("%s[%d]", fd.name, i)
				lsWant := name
				if fd.lsName != fd.name {
					// q = −2·Mᵀd: the dense product also carries 0·NaN = NaN
					// and 0·Inf = NaN into the other entries of q.
					lsWant = fd.name + "["
				}
				t.Run(fmt.Sprintf("Solve/%s=%v", name, v), func(t *testing.T) {
					p := problem()
					fd.vec(p)[i] = v
					_, err := SolveWith(p, nil)
					wantErr(t, err, name)
				})
				for _, f := range []*LSForm{nil, form} {
					t.Run(fmt.Sprintf("SolveLSWith/form=%t/%s[%d]=%v", f != nil, fd.lsName, i, v), func(t *testing.T) {
						l := lsProblem()
						fd.lsVec(l)[i] = v
						_, err := SolveLSWith(l, f, NewWorkspace())
						wantErr(t, err, lsWant)
					})
				}
			}
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				name := fmt.Sprintf("H[%d][%d]", i, j)
				t.Run(fmt.Sprintf("Solve/%s=%v", name, v), func(t *testing.T) {
					p := problem()
					p.H.Set(i, j, v)
					_, err := SolveWith(p, nil)
					wantErr(t, err, name)
				})
			}
			t.Run(fmt.Sprintf("SolveLSWith/Wr[%d]=%v", i, v), func(t *testing.T) {
				l := lsProblem()
				l.Wr[i] = v
				_, err := SolveLSWith(l, nil, NewWorkspace())
				wantErr(t, err, fmt.Sprintf("H[%d][%d]", i, i))
			})
		}
		rows := []struct {
			name string
			a    func(*Problem) **mat.SparseRows
			lsA  func(*LSProblem) **mat.SparseRows
		}{
			{"Aeq", func(p *Problem) **mat.SparseRows { return &p.Aeq }, func(l *LSProblem) **mat.SparseRows { return &l.Aeq }},
			{"Ain", func(p *Problem) **mat.SparseRows { return &p.Ain }, func(l *LSProblem) **mat.SparseRows { return &l.Ain }},
		}
		for _, rw := range rows {
			a := *rw.a(problem())
			for i := 0; i < a.Rows(); i++ {
				for j := 0; j < a.Cols(); j++ {
					name := fmt.Sprintf("%s[%d][%d]", rw.name, i, j)
					set := func(a **mat.SparseRows) {
						d := dense(*a)
						d.Set(i, j, v)
						*a = mat.SparseRowsFrom(d)
					}
					for _, x0 := range []bool{true, false} {
						t.Run(fmt.Sprintf("Solve/x0=%t/%s=%v", x0, name, v), func(t *testing.T) {
							p := problem()
							set(rw.a(p))
							if !x0 {
								p.X0 = nil
							}
							_, err := SolveWith(p, nil)
							wantErr(t, err, name)
						})
					}
					for _, f := range []*LSForm{nil, form} {
						t.Run(fmt.Sprintf("SolveLSWith/form=%t/%s=%v", f != nil, name, v), func(t *testing.T) {
							l := lsProblem()
							set(rw.lsA(l))
							_, err := SolveLSWith(l, f, NewWorkspace())
							wantErr(t, err, name)
						})
					}
				}
			}
		}
	}
	// The one-variable cases: a NaN row entry was ignored, returning the
	// unconstrained minimizer x = [10] with a nil error, or held the start
	// x = [0].
	for _, tc := range []struct {
		name, want string
		p          *Problem
	}{
		{"Ain", "Ain[0][0]", &Problem{H: mat.Identity(1), Q: []float64{-10}, Ain: sparse(1, 1, math.NaN()), Bin: []float64{1}}},
		{"Ain/x0", "Ain[0][0]", &Problem{H: mat.Identity(1), Q: []float64{-10}, Ain: sparse(1, 1, math.NaN()), Bin: []float64{1}, X0: []float64{0}}},
		{"Aeq/x0", "Aeq[0][0]", &Problem{H: mat.Identity(1), Q: []float64{-10}, Aeq: sparse(1, 1, math.NaN()), Beq: []float64{1}, X0: []float64{0}}},
	} {
		t.Run("Solve/1-var/"+tc.name, func(t *testing.T) {
			_, err := SolveWith(tc.p, nil)
			wantErr(t, err, tc.want)
		})
	}
}

func TestUnconstrained(t *testing.T) {
	// min ½xᵀHx + qᵀx with H = 2I, q = [-2, -4] → x = [1, 2].
	p := &Problem{
		H: mat.Scale(2, mat.Identity(2)),
		Q: []float64{-2, -4},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1) > 1e-9 || math.Abs(res.X[1]-2) > 1e-9 {
		t.Fatalf("X = %v, want [1 2]", res.X)
	}
}

func TestEqualityConstrained(t *testing.T) {
	// min ½‖x‖² s.t. x1 + x2 = 2 → x = [1, 1] (projection of origin).
	p := &Problem{
		H:   mat.Identity(2),
		Q:   []float64{0, 0},
		Aeq: sparse(1, 2, 1, 1),
		Beq: []float64{2},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1) > 1e-9 || math.Abs(res.X[1]-1) > 1e-9 {
		t.Fatalf("X = %v, want [1 1]", res.X)
	}
}

func TestActiveInequality(t *testing.T) {
	// min (x1-2)² + (x2-2)² s.t. x1 + x2 ≤ 2 → x = [1, 1].
	p := &Problem{
		H:   mat.Scale(2, mat.Identity(2)),
		Q:   []float64{-4, -4},
		Ain: sparse(1, 2, 1, 1),
		Bin: []float64{2},
		X0:  []float64{0, 0},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1) > 1e-8 || math.Abs(res.X[1]-1) > 1e-8 {
		t.Fatalf("X = %v, want [1 1]", res.X)
	}
	if len(res.Active) != 1 || res.Active[0] != 0 {
		t.Fatalf("Active = %v, want [0]", res.Active)
	}
}

func TestInactiveInequality(t *testing.T) {
	// Same objective but constraint x1+x2 ≤ 10 is slack → x = [2, 2].
	p := &Problem{
		H:   mat.Scale(2, mat.Identity(2)),
		Q:   []float64{-4, -4},
		Ain: sparse(1, 2, 1, 1),
		Bin: []float64{10},
		X0:  []float64{0, 0},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]-2) > 1e-8 {
		t.Fatalf("X = %v, want [2 2]", res.X)
	}
	if len(res.Active) != 0 {
		t.Fatalf("Active = %v, want empty", res.Active)
	}
}

func TestBoxConstrained(t *testing.T) {
	// min (x1+1)² + (x2-3)² s.t. 0 ≤ xi ≤ 2 (as Ain rows).
	// Unconstrained optimum (-1, 3) clips to (0, 2).
	p := &Problem{
		H: mat.Scale(2, mat.Identity(2)),
		Q: []float64{2, -6},
		Ain: sparse(4, 2,
			1, 0,
			0, 1,
			-1, 0,
			0, -1,
		),
		Bin: []float64{2, 2, 0, 0},
		X0:  []float64{1, 1},
	}
	res := solveOK(t, p)
	if math.Abs(res.X[0]) > 1e-8 || math.Abs(res.X[1]-2) > 1e-8 {
		t.Fatalf("X = %v, want [0 2]", res.X)
	}
}

func TestMixedEqualityInequality(t *testing.T) {
	// min ½‖x‖² s.t. x1+x2+x3 = 3, x1 ≤ 0.5.
	// Without the bound: x = [1,1,1]. With it: x1 = 0.5, x2 = x3 = 1.25.
	p := &Problem{
		H:   mat.Identity(3),
		Q:   []float64{0, 0, 0},
		Aeq: sparse(1, 3, 1, 1, 1),
		Beq: []float64{3},
		Ain: sparse(1, 3, 1, 0, 0),
		Bin: []float64{0.5},
		X0:  []float64{0, 1.5, 1.5},
	}
	res := solveOK(t, p)
	want := []float64{0.5, 1.25, 1.25}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-8 {
			t.Fatalf("X = %v, want %v", res.X, want)
		}
	}
}

func TestPhase1FindsFeasibleStart(t *testing.T) {
	// No X0 given; solver must construct one via the LP phase.
	p := &Problem{
		H:   mat.Identity(2),
		Q:   []float64{0, 0},
		Aeq: sparse(1, 2, 1, -1),
		Beq: []float64{4},
		Ain: sparse(1, 2, 0, 1),
		Bin: []float64{-1}, // x2 ≤ -1, feasible with free-signed vars
	}
	res := solveOK(t, p)
	// Optimum of ½‖x‖² s.t. x1-x2=4, x2≤-1: Lagrange gives x=(2,-2) which
	// satisfies x2 ≤ -1, so it is the unconstrained-on-manifold optimum.
	if math.Abs(res.X[0]-2) > 1e-7 || math.Abs(res.X[1]+2) > 1e-7 {
		t.Fatalf("X = %v, want [2 -2]", res.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		H:   mat.Identity(1),
		Q:   []float64{0},
		Aeq: sparse(1, 1, 1),
		Beq: []float64{5},
		Ain: sparse(1, 1, 1),
		Bin: []float64{2},
	}
	if _, err := SolveWith(p, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Solve = %v, want ErrInfeasible", err)
	}
}

// movingDemandProblem builds an MPC-shaped problem (mpcShapedFixture plus
// one capacity row per step and IDC, like the MPC's latency caps) whose
// conservation right-hand sides have moved, as under moving demand: the
// zero move the shifted warm start offers violates conservation. It
// returns the problem with that zero start and a feasible start.
func movingDemandProblem(r *rand.Rand, c, nIDC, b2 int) (*Problem, []float64) {
	h, aeq, ain := mpcShapedFixture(r, c, nIDC, b2)
	p := mpcShapedProblem(r, h, aeq, ain, b2)
	nu := c * nIDC
	n := nu * b2
	// The feasible start moves each allocation in the first step only, and
	// by no more than it holds, so every cumulated allocation stays ≥ 0.
	start := make([]float64, n)
	for k := 0; k < nu; k++ {
		start[k] = p.Bin[k] * (1.5*r.Float64() - 1)
	}
	in := mat.Zeros(ain.Rows()+nIDC*b2, n)
	for i := 0; i < ain.Rows(); i++ {
		copy(in.RowView(i), ain.RowView(i))
	}
	bin := make([]float64, in.Rows())
	copy(bin, p.Bin)
	for s := 0; s < b2; s++ {
		for j := 0; j < nIDC; j++ {
			row := ain.Rows() + s*nIDC + j
			for rr := 0; rr <= s; rr++ {
				for i := 0; i < c; i++ {
					in.Set(row, rr*nu+i*nIDC+j, 1)
				}
			}
			for i := 0; i < c; i++ {
				bin[row] += start[i*nIDC+j]
			}
			bin[row] += 0.5
		}
	}
	p.Ain, p.Bin = mat.SparseRowsFrom(in), bin
	for s := 0; s < b2; s++ {
		for i := 0; i < c; i++ {
			for j := 0; j < nIDC; j++ {
				p.Beq[s*c+i] += start[i*nIDC+j]
			}
		}
	}
	return p, start
}

// TestInfeasibleX0Recovered solves feasible problems from an infeasible X0,
// so the solve starts from the phase-1 LP, and requires a feasible result
// whose objective matches a solve started from a feasible point. The
// MPC-shaped case at C12×N8 with β2 = 3 has 288 variables, and its phase-1
// LP has 888.
func TestInfeasibleX0Recovered(t *testing.T) {
	mpc, start := movingDemandProblem(rand.New(rand.NewSource(24)), 12, 8, 3)
	cases := []struct {
		name     string
		p        *Problem
		feasible []float64
		ph1Vars  int
	}{
		{"box", &Problem{
			H:   mat.Identity(2),
			Q:   []float64{0, 0},
			Ain: sparse(1, 2, 1, 1),
			Bin: []float64{1},
			X0:  []float64{5, 5},
		}, []float64{0, 0}, 5},
		{"mpc-C12xN8", mpc, start, 888},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			if p.feasible(p.X0, featol) {
				t.Fatal("X0 is feasible; the solve would skip phase 1")
			}
			ws := NewWorkspace()
			res, err := SolveWith(p, ws)
			if err != nil {
				t.Fatalf("SolveWith: %v", err)
			}
			if got := len(ws.ph1.cost); got != tc.ph1Vars {
				t.Fatalf("phase-1 LP has %d variables, want %d", got, tc.ph1Vars)
			}
			if !p.feasible(res.X, featol) {
				t.Fatal("the result violates a constraint")
			}
			q := *p
			q.X0 = tc.feasible
			if !q.feasible(q.X0, featol) {
				t.Fatal("the reference start is infeasible")
			}
			ref, err := SolveWith(&q, nil)
			if err != nil {
				t.Fatalf("SolveWith from a feasible start: %v", err)
			}
			if math.Abs(res.Obj-ref.Obj) > 1e-9*math.Abs(ref.Obj) {
				t.Fatalf("objective %v from phase 1, %v from a feasible start", res.Obj, ref.Obj)
			}
		})
	}
}

func TestRedundantActiveConstraintsPruned(t *testing.T) {
	// Duplicate rows both active at X0: pruneDependent must drop one or the
	// KKT system would be singular.
	p := &Problem{
		H: mat.Scale(2, mat.Identity(2)),
		Q: []float64{-4, -4},
		Ain: sparse(2, 2,
			1, 1,
			1, 1,
		),
		Bin: []float64{2, 2},
		X0:  []float64{1, 1}, // both constraints tight here
	}
	ws := NewWorkspace()
	res, err := SolveWith(p, ws)
	if err != nil {
		t.Fatalf("SolveWith: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-8 || math.Abs(res.X[1]-1) > 1e-8 {
		t.Fatalf("X = %v, want [1 1]", res.X)
	}
	// With the prune the loop stops in one iteration. Without it the dense
	// KKT fallback and dropAny still reach [1 1], but take a second one.
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
	want := []pruneEntry{{id: 0}, {id: 1, pruned: true}}
	got := ws.prune.entries
	if len(got) != len(want) {
		t.Fatalf("prune entries %+v, want ids 0 kept and 1 pruned", got)
	}
	for k := range want {
		if got[k].id != want[k].id || got[k].pruned != want[k].pruned {
			t.Fatalf("prune entry %d = %+v, want %+v", k, got[k], want[k])
		}
	}
}

// kktResidual returns the max-norm of the stationarity residual
// Hx + q + Aeqᵀy + Ainᵀz with z ≥ 0 supported on active constraints,
// reconstructing multipliers by least squares.
func kktResidual(p *Problem, res *Result) float64 {
	n := p.H.Rows()
	hx, _ := mat.MulVec(p.H, res.X)
	grad := mat.AddVec(hx, p.Q)
	var rows [][]float64
	if p.Aeq != nil {
		aeq := dense(p.Aeq)
		for i := 0; i < aeq.Rows(); i++ {
			rows = append(rows, aeq.RowView(i))
		}
	}
	if len(res.Active) > 0 {
		ain := dense(p.Ain)
		for _, i := range res.Active {
			rows = append(rows, ain.RowView(i))
		}
	}
	if len(rows) == 0 {
		return mat.NormInfVec(grad)
	}
	at := mat.Zeros(n, len(rows))
	for j, r := range rows {
		for i := 0; i < n; i++ {
			at.Set(i, j, r[i])
		}
	}
	mult, err := mat.LeastSquares(at, mat.ScaleVec(-1, grad))
	if err != nil {
		return math.Inf(1)
	}
	recon, _ := mat.MulVec(at, mult)
	return mat.NormInfVec(mat.AddVec(grad, recon))
}

func TestPropertyKKTOnRandomProblems(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		// H = MᵀM + I (SPD).
		m := mat.Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		mt, _ := mat.Mul(m.T(), m)
		h, _ := mat.Add(mt, mat.Identity(n))
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64()
		}
		// Box constraints −2 ≤ xi ≤ 2 → always feasible, x0 = 0.
		ain := mat.Zeros(2*n, n)
		bin := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			ain.Set(i, i, 1)
			bin[i] = 2
			ain.Set(n+i, i, -1)
			bin[n+i] = 2
		}
		p := &Problem{H: h, Q: q, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: make([]float64, n)}
		res, err := SolveWith(p, nil)
		if err != nil {
			return false
		}
		if !feasible(p, res.X, 1e-6) {
			return false
		}
		return kktResidual(p, res) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyObjectiveNotWorseThanProjectedSamples(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		h := mat.Scale(2, mat.Identity(n))
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64() * 3
		}
		// Simplex constraint Σx = 1, x ≥ 0.
		aeq := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			aeq.Set(0, j, 1)
		}
		ain := mat.Zeros(n, n)
		bin := make([]float64, n)
		for i := 0; i < n; i++ {
			ain.Set(i, i, -1)
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 1.0 / float64(n)
		}
		p := &Problem{H: h, Q: q, Aeq: mat.SparseRowsFrom(aeq), Beq: []float64{1}, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: x0}
		res, err := SolveWith(p, nil)
		if err != nil {
			return false
		}
		ws := NewWorkspace()
		for k := 0; k < 25; k++ {
			// Random point on the simplex.
			x := make([]float64, n)
			var sum float64
			for i := range x {
				x[i] = r.Float64()
				sum += x[i]
			}
			for i := range x {
				x[i] /= sum
			}
			if ws.objective(p, x) < res.Obj-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLSUnconstrainedMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 8, 3
	design := mat.Zeros(m, n)
	d := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			design.Set(i, j, rng.NormFloat64())
		}
		d[i] = rng.NormFloat64()
	}
	want, err := mat.LeastSquares(design, d)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	res, err := SolveLSWith(&LSProblem{M: design, D: d}, nil, nil)
	if err != nil {
		t.Fatalf("SolveLS: %v", err)
	}
	if mat.NormInfVec(mat.SubVec(res.X, want)) > 1e-7 {
		t.Fatalf("SolveLS = %v, QR = %v", res.X, want)
	}
}

func TestSolveLSRegularizationShrinks(t *testing.T) {
	design := mat.Identity(2)
	d := []float64{4, 4}
	plain, err := SolveLSWith(&LSProblem{M: design, D: d}, nil, nil)
	if err != nil {
		t.Fatalf("SolveLS: %v", err)
	}
	ridge, err := SolveLSWith(&LSProblem{M: design, D: d, Wr: []float64{3, 3}}, nil, nil)
	if err != nil {
		t.Fatalf("SolveLS ridge: %v", err)
	}
	if !(mat.NormVec(ridge.X) < mat.NormVec(plain.X)) {
		t.Fatalf("ridge %v not smaller than plain %v", ridge.X, plain.X)
	}
	// Closed form: x = d/(1+w) = 1.
	if math.Abs(ridge.X[0]-1) > 1e-8 {
		t.Fatalf("ridge.X = %v, want [1 1]", ridge.X)
	}
}

func TestSolveLSWeightedRows(t *testing.T) {
	// Two conflicting observations of a scalar; the heavier row wins.
	design := mat.MustNew(2, 1, []float64{1, 1})
	d := []float64{0, 10}
	res, err := SolveLSWith(&LSProblem{M: design, D: d, Wq: []float64{1, 9}}, nil, nil)
	if err != nil {
		t.Fatalf("SolveLS: %v", err)
	}
	if math.Abs(res.X[0]-9) > 1e-8 {
		t.Fatalf("X = %v, want [9]", res.X)
	}
}

func TestSolveLSValidate(t *testing.T) {
	if _, err := SolveLSWith(&LSProblem{}, nil, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("nil M: %v, want ErrBadProblem", err)
	}
	if _, err := SolveLSWith(&LSProblem{M: mat.Identity(2), D: []float64{1}}, nil, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("short d: %v, want ErrBadProblem", err)
	}
	if _, err := SolveLSWith(&LSProblem{M: mat.Identity(2), D: []float64{1, 1}, Wq: []float64{1}}, nil, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("short wq: %v, want ErrBadProblem", err)
	}
	if _, err := SolveLSWith(&LSProblem{M: mat.Identity(2), D: []float64{1, 1}, Wr: []float64{1}}, nil, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("short wr: %v, want ErrBadProblem", err)
	}
}

func TestSolveLSConstrained(t *testing.T) {
	// Fit x to d = [3, 5] with constraint x1 = x2: optimum x = [4, 4].
	res, err := SolveLSWith(&LSProblem{
		M:   mat.Identity(2),
		D:   []float64{3, 5},
		Aeq: sparse(1, 2, 1, -1),
		Beq: []float64{0},
	}, nil, nil)
	if err != nil {
		t.Fatalf("SolveLS: %v", err)
	}
	if math.Abs(res.X[0]-4) > 1e-8 || math.Abs(res.X[1]-4) > 1e-8 {
		t.Fatalf("X = %v, want [4 4]", res.X)
	}
}

// TestPropertyMixedConstraintsKKT stresses both KKT paths (Schur and dense)
// on random strictly convex problems with equalities and many inequalities,
// verifying feasibility and the stationarity residual at the solution.
func TestPropertyMixedConstraintsKKT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		// H = MᵀM + εI with ε spanning well- to ill-conditioned.
		m := mat.Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		mt, _ := mat.Mul(m.T(), m)
		eps := math.Pow(10, -6*r.Float64()) // 1 … 1e-6
		h, _ := mat.Add(mt, mat.Scale(eps, mat.Identity(n)))
		q := make([]float64, n)
		for i := range q {
			q[i] = 3 * r.NormFloat64()
		}
		// One equality: sum(x) = s0 with s0 chosen feasible.
		aeq := mat.Zeros(1, n)
		for j := 0; j < n; j++ {
			aeq.Set(0, j, 1)
		}
		beq := []float64{float64(n) / 2}
		// Box inequalities −1 ≤ x ≤ 1; x0 = (1/2, …) satisfies everything.
		ain := mat.Zeros(2*n, n)
		bin := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			ain.Set(i, i, 1)
			bin[i] = 1
			ain.Set(n+i, i, -1)
			bin[n+i] = 1
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 0.5
		}
		p := &Problem{H: h, Q: q, Aeq: mat.SparseRowsFrom(aeq), Beq: beq, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: x0}
		res, err := SolveWith(p, nil)
		if err != nil {
			return false
		}
		if !feasible(p, res.X, 1e-5) {
			return false
		}
		return kktResidual(p, res) < 1e-4*(1+mat.NormInfVec(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSchurAndDenseAgree compares the two KKT paths on the same problem.
func TestSchurAndDenseAgree(t *testing.T) {
	n := 6
	h := mat.Scale(2, mat.Identity(n))
	q := []float64{-1, 2, -3, 4, -5, 6}
	aeq := mat.Zeros(1, n)
	for j := 0; j < n; j++ {
		aeq.Set(0, j, 1)
	}
	ain := mat.Zeros(n, n)
	bin := make([]float64, n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, -1) // x ≥ 0
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 0.5
	}
	p := &Problem{H: h, Q: q, Aeq: mat.SparseRowsFrom(aeq), Beq: []float64{3}, Ain: mat.SparseRowsFrom(ain), Bin: bin, X0: x0}
	// The public path (Schur-enabled).
	schur, err := SolveWith(p, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Force the dense path directly.
	dense, err := activeSetLoop(p, nil, x0, n, 1, n, NewWorkspace())
	if err != nil {
		t.Fatalf("dense loop: %v", err)
	}
	if mat.NormInfVec(mat.SubVec(schur.X, dense.X)) > 1e-7 {
		t.Fatalf("paths disagree:\nschur %v\ndense %v", schur.X, dense.X)
	}
}
