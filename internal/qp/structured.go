package qp

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Structure-exploiting condensed form (DESIGN.md §3.10). The condensed MPC
// Hessian H = 2(MᵀWqM + Wr) is diagonal-plus-low-rank whenever the design
// matrix is wide: M has ns·β1 rows against nu·β2 columns, so the tracking
// term has rank at most ns·β1 ≪ n at planet-scale topologies (126 vs 3000
// at C50×N20). Materializing and Cholesky-factoring the dense n×n H is
// O(n²) memory and O(n³) time; the structured form never builds it.
//
// With SM = diag(√wq)·M and D = 2·diag(wr),
//
//	H = D + 2·SMᵀ·SM,
//
// so H·x costs O(mn) (two thin products plus a diagonal), and H⁻¹·b follows
// from the Woodbury identity through the m×m capacitance matrix
//
//	K = ½I + SM·D⁻¹·SMᵀ:    H⁻¹b = D⁻¹b − D⁻¹·SMᵀ·K⁻¹·SM·D⁻¹b.
//
// K is symmetric positive definite by construction (½I plus a Gram matrix),
// factored once per form build; every later solve is O(mn + m²). This is
// block elimination on the KKT system of the lowered least-squares problem:
// eliminating the residual block leaves exactly K.

// StructuredMinVars is the variable-count threshold at which the condensed
// MPC switches from the dense lowered Hessian to the structured form. Below
// it the dense path wins (no Woodbury detour) and — more importantly — the
// paper-scale problems keep their bit-identical legacy arithmetic; the
// threshold sits above every checksummed benchmark topology.
const StructuredMinVars = 256

// structured reports whether the form solves through the Woodbury identity
// instead of a materialized Hessian.
func (f *LSForm) structured() bool { return f.sm != nil }

// vars returns the decision-variable count n.
func (f *LSForm) vars() int { return f.m.Cols() }

// NewStructuredLSForm precomputes the structure-exploiting lowering of
// (M, Wq, Wr): the scaled design matrix SM, the diagonal D = 2·Wr and the
// Cholesky-factored capacitance matrix K. It requires every wr entry to be
// strictly positive (D must be invertible — the condensed builder's ridge
// floor guarantees this) and every wq entry nonnegative; otherwise it
// returns ErrBadProblem and the caller should fall back to NewLSForm.
//
// Unlike a dense LSForm, a structured form carries solve scratch and is NOT
// safe for concurrent use; it follows the Workspace sharing contract.
func NewStructuredLSForm(m *mat.Dense, wq, wr []float64) (*LSForm, error) {
	if m == nil {
		return nil, fmt.Errorf("nil design matrix: %w", ErrBadProblem)
	}
	rows, n := m.Rows(), m.Cols()
	if rows == 0 || n == 0 {
		return nil, fmt.Errorf("empty design matrix %dx%d: %w", rows, n, ErrBadProblem)
	}
	if wq != nil && len(wq) != rows {
		return nil, fmt.Errorf("wq has length %d, want %d: %w", len(wq), rows, ErrBadProblem)
	}
	if len(wr) != n {
		return nil, fmt.Errorf("structured form needs wr of length %d, got %d: %w", n, len(wr), ErrBadProblem)
	}
	for j, w := range wr {
		if !(w > 0) {
			return nil, fmt.Errorf("structured form needs wr > 0, wr[%d]=%g: %w", j, w, ErrBadProblem)
		}
	}
	if wq != nil {
		for i, w := range wq {
			if !(w >= 0) {
				return nil, fmt.Errorf("structured form needs wq ≥ 0, wq[%d]=%g: %w", i, w, ErrBadProblem)
			}
		}
	}
	// SM = diag(√wq)·M.
	sm := m.Clone()
	if wq != nil {
		for i := 0; i < rows; i++ {
			s := math.Sqrt(wq[i])
			row := sm.RowView(i)
			for j := range row {
				row[j] *= s
			}
		}
	}
	diag := make([]float64, n)
	dinv := make([]float64, n)
	for j := range wr {
		diag[j] = 2 * wr[j]
		dinv[j] = 1 / diag[j]
	}
	// K = ½I + (SM·D⁻¹)·SMᵀ, one MulInto; smd and smt are build-time only.
	smd := sm.Clone()
	for i := 0; i < rows; i++ {
		row := smd.RowView(i)
		for j := range row {
			row[j] *= dinv[j]
		}
	}
	smt := mat.TransposeInto(nil, sm)
	k, err := mat.MulInto(nil, smd, smt)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		k.Set(i, i, k.At(i, i)+0.5)
	}
	f := &LSForm{
		m:    m,
		sm:   sm,
		diag: diag,
		dinv: dinv,
		tm:   make([]float64, rows),
		tn:   make([]float64, n),
	}
	if err := f.kchol.Factor(k); err != nil {
		return nil, fmt.Errorf("qp: capacitance factorization: %w", err)
	}
	return f, nil
}

// hMulVecInto computes dst = H·x = D∘x + 2·SMᵀ(SM·x) without materializing
// H. dst must not alias x.
//
//lint:noalias dst,x
func (f *LSForm) hMulVecInto(dst, x []float64) error {
	if err := mat.MulVecInto(f.tm, f.sm, x); err != nil {
		return err
	}
	if err := mat.MulTVecInto(dst, f.sm, f.tm); err != nil {
		return err
	}
	for i, d := range f.diag {
		dst[i] = d*x[i] + 2*dst[i]
	}
	return nil
}

// SolveVecInto computes dst = H⁻¹·b through the Woodbury identity and the
// prefactored capacitance matrix. dst must not alias b (the final combine
// re-reads the scaled b through scratch while dst holds the correction
// term). It satisfies the hSolver interface, standing in for the dense
// path's Cholesky factor of H.
//
//lint:noalias dst,b
func (f *LSForm) SolveVecInto(dst, b []float64) error {
	if len(b) != len(f.tn) || len(dst) != len(f.tn) {
		return fmt.Errorf("qp: structured solve length %d/%d, want %d: %w",
			len(dst), len(b), len(f.tn), ErrBadProblem)
	}
	for i, v := range b {
		f.tn[i] = f.dinv[i] * v
	}
	if err := mat.MulVecInto(f.tm, f.sm, f.tn); err != nil {
		return err
	}
	if err := f.kchol.SolveVecInto(f.tm, f.tm); err != nil {
		return err
	}
	if err := mat.MulTVecInto(dst, f.sm, f.tm); err != nil {
		return err
	}
	for i, v := range f.tn {
		dst[i] = v - f.dinv[i]*dst[i]
	}
	return nil
}

// hSolver abstracts "apply H⁻¹": the dense path's Cholesky factor or the
// structured form's Woodbury solve. A nil hSolver routes kktStep to the
// dense indefinite-KKT fallback (dense problems only).
type hSolver interface {
	SolveVecInto(dst, b []float64) error
}

// hMulVecInto computes dst = H·x through whichever Hessian representation
// the problem carries.
func (p *Problem) hMulVecInto(dst, x []float64) error {
	if p.form != nil && p.form.structured() {
		return p.form.hMulVecInto(dst, x)
	}
	return mat.MulVecInto(dst, p.H, x)
}

// dim returns the decision-variable count.
func (p *Problem) dim() int {
	if p.form != nil {
		return p.form.vars()
	}
	return p.H.Rows()
}
