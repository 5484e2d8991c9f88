package mat

import (
	"errors"
	"math/rand"
	"testing"
)

func sparseTestMatrix(rng *rand.Rand, r, c int) *Dense {
	d := Zeros(r, c)
	for i := range d.data {
		// ~85% exact zeros, like the condensed constraint rows.
		if rng.Intn(7) != 0 {
			continue
		}
		d.data[i] = float64(rng.Intn(255)-127) / 4
	}
	return d
}

func TestSparseRowsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range [][2]int{{0, 5}, {1, 1}, {3, 7}, {20, 45}, {50, 120}} {
		r, c := sh[0], sh[1]
		d := sparseTestMatrix(rng, r, c)
		s := SparseRowsFrom(d)
		if s.Rows() != r || s.Cols() != c {
			t.Fatalf("%dx%d: shape %dx%d", r, c, s.Rows(), s.Cols())
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// RowDot and MulVecInto are bit-identical to the dense row dots:
		// dropped entries are exact zeros contributing exact zeros in the
		// same accumulation positions.
		wantV := make([]float64, r)
		if err := MulVecInto(wantV, d, x); err != nil {
			t.Fatal(err)
		}
		gotV := make([]float64, r)
		if err := s.MulVecInto(gotV, x); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r; i++ {
			//lint:ignore floateq sparse and dense dots visit the same nonzero products in the same order
			if gotV[i] != wantV[i] {
				t.Errorf("%dx%d: MulVecInto[%d] = %g, dense %g", r, c, i, gotV[i], wantV[i])
			}
			//lint:ignore floateq sparse and dense dots visit the same nonzero products in the same order
			if got := s.RowDot(i, x); got != wantV[i] {
				t.Errorf("%dx%d: RowDot(%d) = %g, dense %g", r, c, i, got, wantV[i])
			}
		}
		// ScatterRowInto reconstructs each dense row exactly.
		row := make([]float64, c)
		for i := 0; i < r; i++ {
			s.ScatterRowInto(row, i)
			for j := 0; j < c; j++ {
				//lint:ignore floateq scatter restores stored values verbatim
				if row[j] != d.At(i, j) {
					t.Errorf("%dx%d: scatter(%d)[%d] = %g, want %g", r, c, i, j, row[j], d.At(i, j))
				}
			}
		}
		// AddScaledRowInto accumulates a*row into a dense target.
		if r > 0 {
			acc := make([]float64, c)
			s.AddScaledRowInto(acc, 0, 2.5)
			for j := 0; j < c; j++ {
				//lint:ignore floateq both sides compute 2.5*v once per stored entry
				if acc[j] != 2.5*d.At(0, j) {
					t.Errorf("%dx%d: addscaled[%d] = %g, want %g", r, c, j, acc[j], 2.5*d.At(0, j))
				}
			}
		}
	}
}

func TestSparseRowsNNZ(t *testing.T) {
	d := MustNew(2, 3, []float64{0, 1, 0, -2, 0, 3})
	s := SparseRowsFrom(d)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	idx, val := s.RowNNZ(1)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 || val[0] != -2 || val[1] != 3 {
		t.Fatalf("RowNNZ(1) = %v %v", idx, val)
	}
}

func TestMakeSparseRows(t *testing.T) {
	d := MustNew(3, 4, []float64{0, 1, 0, 2, 0, 0, 0, 0, -3, 0, 0, 4})
	s, err := MakeSparseRows(4, []int{0, 2, 2, 4}, []int{1, 3, 0, 3}, []float64{1, 2, -3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualSparse(&s, SparseRowsFrom(d)) {
		t.Fatal("rows built directly differ from the compressed dense matrix")
	}
	for _, bad := range []struct {
		name     string
		cols     int
		rowStart []int
		idx      []int
		val      []float64
	}{
		{"no row starts", 4, nil, nil, nil},
		{"first start", 4, []int{1, 1}, []int{0}, []float64{1}},
		{"last start", 4, []int{0, 1}, []int{0, 1}, []float64{1, 2}},
		{"values", 4, []int{0, 2}, []int{0, 1}, []float64{1}},
		{"decreasing starts", 4, []int{0, 2, 1, 2}, []int{0, 1}, []float64{1, 2}},
		{"repeated column", 4, []int{0, 2}, []int{1, 1}, []float64{1, 2}},
		{"descending columns", 4, []int{0, 2}, []int{2, 1}, []float64{1, 2}},
		{"negative column", 4, []int{0, 1}, []int{-1}, []float64{1}},
		{"column past the width", 4, []int{0, 1}, []int{4}, []float64{1}},
	} {
		if _, err := MakeSparseRows(bad.cols, bad.rowStart, bad.idx, bad.val); !errors.Is(err, ErrShape) {
			t.Errorf("%s: error %v, want ErrShape", bad.name, err)
		}
	}
	// A column index may repeat across rows, and a row may be empty.
	if _, err := MakeSparseRows(2, []int{0, 0, 1, 2}, []int{1, 1}, []float64{1, 1}); err != nil {
		t.Errorf("empty row and repeated column across rows: %v", err)
	}
}

func TestEqualAndCloneSparse(t *testing.T) {
	a := SparseRowsFrom(MustNew(2, 3, []float64{0, 1, 0, -2, 0, 3}))
	c := CloneSparseInto(nil, a)
	if !EqualSparse(a, c) || !EqualSparse(nil, nil) || EqualSparse(a, nil) {
		t.Fatal("EqualSparse disagrees with the clone or with nil")
	}
	_, val := c.RowNNZ(1)
	val[1] = 4
	if EqualSparse(a, c) {
		t.Fatal("a changed value compares equal")
	}
	if _, av := a.RowNNZ(1); av[1] != 3 {
		t.Fatal("the clone shares storage with its source")
	}
	// Reusing the clone's storage for a different shape.
	b := SparseRowsFrom(MustNew(1, 3, []float64{5, 0, 0}))
	if c = CloneSparseInto(c, b); !EqualSparse(b, c) || EqualSparse(a, c) {
		t.Fatal("reused clone does not match its new source")
	}
	if CloneSparseInto(c, nil) != nil {
		t.Fatal("clone of nil is not nil")
	}
}
