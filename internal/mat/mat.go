// Package mat implements the dense linear algebra needed by the
// electricity-cost controller: vectors, matrices, factorizations
// (LU, Cholesky, QR), linear solves, and the matrix exponential used
// for zero-order-hold discretization of continuous-time systems.
//
// All types use float64 storage in row-major order. Each kernel runs one
// loop at every size: cache-tiled twins of MulInto, Cholesky and LU were
// slower than these loops at every size measured, up to 2000 rows
// (DESIGN.md §3.10). The loops that work on several output elements per
// pass (MulVecInto, the Cholesky column loop, SolveVecInto's forward and
// row-streaming back sweeps) interleave the accumulation chains of
// different elements but never split or reorder one, so each element gets
// exactly the operations of a one-element loop
// (FuzzDenseKernelsBitIdentical). The one size switch left is
// SolveVecInto's row-streaming back sweep, which does reorder each chain.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Dense is a row-major dense matrix.
//
// The zero value is an empty 0x0 matrix ready for use with Reset-style
// constructors; most callers should use New, Zeros or Identity.
// Dense values move by pointer: a by-value copy would share the backing
// slice with the original, so an in-place kernel reshaping one corrupts
// the other.
//
//lint:nocopy
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns an r-by-c matrix backed by data, which must have length r*c.
// The matrix takes ownership of data (no copy).
func New(r, c int, data []float64) (*Dense, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("mat: negative dimension %dx%d: %w", r, c, ErrShape)
	}
	if len(data) != r*c {
		return nil, fmt.Errorf("mat: data length %d != %d*%d: %w", len(data), r, c, ErrShape)
	}
	return &Dense{rows: r, cols: c, data: data}, nil
}

// MustNew is New but panics on error. Intended for tests and package-level
// literals where dimensions are static.
//
//lint:ignore testonly the matrix literal of the tests of several packages
func MustNew(r, c int, data []float64) *Dense {
	m, err := New(r, c, data)
	if err != nil {
		panic(err)
	}
	return m
}

// Zeros returns an r-by-c matrix of zeros.
func Zeros(r, c int) *Dense {
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.bounds(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.bounds(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) bounds(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := Zeros(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// RowView returns row i as a slice into m's backing storage — no copy.
// The view stays valid until m is reshaped (ReuseDense and friends may
// reallocate the backing array). Callers must treat the view as read-only
// unless they own m; writes through it are writes to m.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// T returns the transpose of m as a new matrix. For an allocation-free
// variant see TransposeInto.
func (m *Dense) T() *Dense { return TransposeInto(nil, m) }

// Add returns a + b.
func Add(a, b *Dense) (*Dense, error) { return AddInto(nil, a, b) }

// Scale returns s*a as a new matrix.
func Scale(s float64, a *Dense) *Dense { return ScaleInto(nil, s, a) }

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) (*Dense, error) { return MulInto(nil, a, b) }

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, vecShapeErr("mulvec", a, len(x))
	}
	out := make([]float64, a.rows)
	if err := MulVecInto(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulTVec returns aᵀ*x.
func MulTVec(a *Dense, x []float64) ([]float64, error) {
	if a.rows != len(x) {
		return nil, vecShapeErr("multvec", a, len(x))
	}
	out := make([]float64, a.cols)
	if err := MulTVecInto(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
}

// Equalish reports whether a and b have the same shape and all entries
// within tol of each other.
//
//lint:ignore testonly the tolerance comparison of the tests of several packages
func Equalish(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Slice returns a copy of the submatrix rows [r0,r1) and columns [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d,%d:%d] of %dx%d out of range", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := Zeros(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetBlock copies src into m starting at row r0, column c0.
func (m *Dense) SetBlock(r0, c0 int, src *Dense) {
	if r0 < 0 || c0 < 0 || r0+src.rows > m.rows || c0+src.cols > m.cols {
		panic(fmt.Sprintf("mat: block %dx%d at (%d,%d) exceeds %dx%d", src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// Dot returns the inner product of equal-length vectors x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AddVec returns x + y.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: addvec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x - y.
//
//lint:ignore testonly the residual of the tests of several packages
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: subvec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// ScaleVec returns s*x.
func ScaleVec(s float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = s * x[i]
	}
	return out
}

// NormVec returns the Euclidean norm of x.
func NormVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInfVec returns the max-abs entry of x.
func NormInfVec(x []float64) float64 {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// SameBits reports whether x and y have the same length and hold
// bitwise-identical values: −0 differs from +0, and a NaN equals only a NaN
// of the same bits. It is the test for reusing a value computed from x in
// place of one computed from y, which float == cannot give.
func SameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
