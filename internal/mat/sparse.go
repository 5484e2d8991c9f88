package mat

import "fmt"

// SparseRows is a compressed row-wise view of a matrix that stores the
// entries of each row in ascending column order, leaving out exact zeros:
// CSR without the column-pointer indirection per element. The condensed
// MPC constraint matrices are the motivating case — at planet-scale topologies each row of Aeq/Ain touches
// at most one horizon block (tens of entries against thousands of columns),
// so row dot products against dense vectors drop from O(cols) to
// O(nnz(row)).
//
// Dot products over a SparseRows row are bit-identical to the dense row dot
// for finite inputs: skipped entries are exact IEEE zeros, and 0*x
// contributes exactly 0 to the running sum for any finite x, so the partial
// sums visit the same values in the same (ascending-column) order.
//
// SparseRowsFrom compresses a dense matrix; MakeSparseRows takes rows a
// caller built directly.
type SparseRows struct {
	rows, cols int
	// rowStart[i]..rowStart[i+1] index idx/val for row i (len rows+1).
	rowStart []int
	idx      []int
	val      []float64
}

// SparseRowsFrom compresses m into a SparseRows, dropping exact zeros.
func SparseRowsFrom(m *Dense) *SparseRows {
	s := &SparseRows{
		rows:     m.rows,
		cols:     m.cols,
		rowStart: make([]int, m.rows+1),
	}
	nnz := 0
	for _, v := range m.data {
		//lint:ignore floateq exact-zero dropping is the compression criterion
		if v != 0 {
			nnz++
		}
	}
	s.idx = make([]int, 0, nnz)
	s.val = make([]float64, 0, nnz)
	for i := 0; i < m.rows; i++ {
		s.rowStart[i] = len(s.idx)
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			//lint:ignore floateq exact-zero dropping is the compression criterion
			if v != 0 {
				s.idx = append(s.idx, j)
				s.val = append(s.val, v)
			}
		}
	}
	s.rowStart[m.rows] = len(s.idx)
	return s
}

// MakeSparseRows returns the cols-wide compressed rows held in rowStart, idx
// and val, which the caller fills row by row: row i holds val[k] at column
// idx[k] for rowStart[i] ≤ k < rowStart[i+1], so len(rowStart) is the row
// count plus one. The slices are kept, not copied, so a caller may carve
// them from storage it owns, and it returns a value for the same reason.
// It returns ErrShape unless rowStart starts at 0, never decreases and ends
// at len(idx) == len(val), and each row's indices ascend strictly within
// [0, cols). The values are not checked: an exact zero is stored like any
// other entry.
func MakeSparseRows(cols int, rowStart, idx []int, val []float64) (SparseRows, error) {
	if cols < 0 || len(rowStart) == 0 || rowStart[0] != 0 || rowStart[len(rowStart)-1] != len(idx) || len(idx) != len(val) {
		return SparseRows{}, fmt.Errorf("mat: sparse rows with %d columns, %d row starts, %d indices and %d values: %w",
			cols, len(rowStart), len(idx), len(val), ErrShape)
	}
	for i := 0; i+1 < len(rowStart); i++ {
		lo, hi := rowStart[i], rowStart[i+1]
		if hi < lo {
			return SparseRows{}, fmt.Errorf("mat: sparse row %d ends at %d before its start %d: %w", i, hi, lo, ErrShape)
		}
		prev := -1
		for _, j := range idx[lo:hi] {
			if j <= prev || j >= cols {
				return SparseRows{}, fmt.Errorf("mat: sparse row %d column %d after %d, want ascending within [0, %d): %w",
					i, j, prev, cols, ErrShape)
			}
			prev = j
		}
	}
	return SparseRows{rows: len(rowStart) - 1, cols: cols, rowStart: rowStart, idx: idx, val: val}, nil
}

// Rows returns the number of rows.
func (s *SparseRows) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *SparseRows) Cols() int { return s.cols }

// NNZ returns the stored nonzero count.
func (s *SparseRows) NNZ() int { return len(s.idx) }

// RowDot returns the dot product of row i with the dense vector x.
func (s *SparseRows) RowDot(i int, x []float64) float64 {
	if len(x) != s.cols {
		panic(fmt.Sprintf("mat: sparse rowdot length %d, want %d", len(x), s.cols))
	}
	var sum float64
	for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
		sum += s.val[k] * x[s.idx[k]]
	}
	return sum
}

// MulVecInto computes dst = S*x. dst must have length Rows and must not
// alias x.
//
//lint:noalias dst,x
func (s *SparseRows) MulVecInto(dst []float64, x []float64) error {
	if len(x) != s.cols {
		return fmt.Errorf("mat: sparse mulvec %dx%d with len %d: %w", s.rows, s.cols, len(x), ErrShape)
	}
	if len(dst) != s.rows {
		return dstLenErr("sparse mulvec", len(dst), s.rows)
	}
	for i := 0; i < s.rows; i++ {
		var sum float64
		for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
			sum += s.val[k] * x[s.idx[k]]
		}
		dst[i] = sum
	}
	return nil
}

// AddScaledRowInto computes dst += a * row_i, touching only the row's
// nonzero columns. dst must have length Cols.
func (s *SparseRows) AddScaledRowInto(dst []float64, i int, a float64) {
	if len(dst) != s.cols {
		panic(fmt.Sprintf("mat: sparse addrow length %d, want %d", len(dst), s.cols))
	}
	for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
		dst[s.idx[k]] += a * s.val[k]
	}
}

// ScatterRowInto writes row i densely into dst (zeroing it first). dst must
// have length Cols.
func (s *SparseRows) ScatterRowInto(dst []float64, i int) {
	if len(dst) != s.cols {
		panic(fmt.Sprintf("mat: sparse scatter length %d, want %d", len(dst), s.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
		dst[s.idx[k]] = s.val[k]
	}
}

// RowNNZ returns the index and value slices of row i. The slices alias s
// and must be treated as read-only.
func (s *SparseRows) RowNNZ(i int) ([]int, []float64) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	return s.idx[lo:hi:hi], s.val[lo:hi:hi]
}

// EqualSparse reports whether a and b have the same shape and store the same
// entries, comparing values with == (so NaN is never equal). Two nil
// matrices are equal.
func EqualSparse(a, b *SparseRows) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.rows != b.rows || a.cols != b.cols || len(a.rowStart) != len(b.rowStart) || len(a.idx) != len(b.idx) {
		return false
	}
	for i, v := range a.rowStart {
		if b.rowStart[i] != v {
			return false
		}
	}
	for k, j := range a.idx {
		//lint:ignore floateq EqualSparse is documented as bit-exact IEEE comparison
		if b.idx[k] != j || b.val[k] != a.val[k] {
			return false
		}
	}
	return true
}

// CloneSparseInto deep-copies src into dst, reusing dst's storage when it
// is large enough, and returns dst; a nil dst allocates. It returns nil for
// a nil src.
func CloneSparseInto(dst, src *SparseRows) *SparseRows {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = &SparseRows{}
	}
	dst.rows, dst.cols = src.rows, src.cols
	dst.rowStart = append(dst.rowStart[:0], src.rowStart...)
	dst.idx = append(dst.idx[:0], src.idx...)
	dst.val = append(dst.val[:0], src.val...)
	return dst
}
