package mat

import "fmt"

// In-place kernels. Every *Into function writes its result into a
// caller-owned destination and returns it, so hot loops (the MPC fast loop,
// the QP active-set iteration) can run without per-call heap allocations.
//
// Conventions (see DESIGN.md §3.5):
//
//   - A nil dst is allowed everywhere and means "allocate for me"; the
//     allocating wrappers (Mul, Add, …) are exactly the Into kernels with a
//     nil destination, so both paths run identical arithmetic.
//   - Destinations are reshaped to the result size, reusing their backing
//     storage whenever it has capacity. Matrix destinations keep their
//     identity (the same *Dense is returned) so scratch fields stay stable.
//   - Elementwise kernels (AddInto, SubInto, ScaleInto, AddVecInto,
//     ScaleVecInto) may alias dst with either operand: they read and write
//     the same index only.
//   - Product and transpose kernels (MulInto, MulVecInto, MulTVecInto,
//     TransposeInto) must NOT alias dst with any operand — they revisit
//     operand entries after writing dst. Aliasing is the caller's contract;
//     it is not detected.
//   - Scratch ownership: a workspace that hands out one of these
//     destinations owns it until the next call that reuses it. Callers that
//     retain results across calls must copy.

// ReuseDense returns an r-by-c matrix of zeros, reusing d's backing storage
// when it has capacity. d may be nil. When d is non-nil the same *Dense is
// returned (reshaped in place).
func ReuseDense(d *Dense, r, c int) *Dense {
	d = reuseUnset(d, r, c)
	for i := range d.data {
		d.data[i] = 0
	}
	return d
}

// reuseUnset reshapes d to r-by-c reusing storage, leaving the element
// values unspecified. For kernels that overwrite every entry.
func reuseUnset(d *Dense, r, c int) *Dense {
	if d == nil {
		//lint:ignore hotalloc nil dst means "allocate for me"; hot callers pass reused matrices
		d = &Dense{}
	}
	n := r * c
	if cap(d.data) < n {
		//lint:ignore hotalloc grow-only scratch: allocates only until the steady size is reached
		d.data = make([]float64, n)
	} else {
		d.data = d.data[:n]
	}
	d.rows, d.cols = r, c
	return d
}

// GrowVec returns a length-n slice, reusing buf's backing array when it has
// capacity. The contents are unspecified — callers must overwrite fully.
func GrowVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		//lint:ignore hotalloc grow-only scratch: allocates only until the steady size is reached
		return make([]float64, n)
	}
	return buf[:n]
}

// MulInto computes dst = a*b. dst must not alias a or b; nil allocates.
//
//lint:noalias dst,a,b
func MulInto(dst, a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, shapeErr("mul", a, b)
	}
	dst = ReuseDense(dst, a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst, nil
}

// MulVecInto computes dst = a*x. dst must have length a.Rows() and must not
// alias x.
//
//lint:noalias dst,x
func MulVecInto(dst []float64, a *Dense, x []float64) error {
	if a.cols != len(x) {
		return vecShapeErr("mulvec", a, len(x))
	}
	if len(dst) != a.rows {
		return dstLenErr("mulvec", len(dst), a.rows)
	}
	// Four rows per pass keep four independent chains in flight; each
	// dst[i] still sums its own products in ascending j (DESIGN.md §3.10).
	n := len(x)
	i := 0
	for ; i+4 <= a.rows; i += 4 {
		r0 := a.data[i*n:][:n]
		r1 := a.data[(i+1)*n:][:n]
		r2 := a.data[(i+2)*n:][:n]
		r3 := a.data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < a.rows; i++ {
		row := a.data[i*n:][:n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// MulTVecInto computes dst = aᵀ*x. dst must have length a.Cols() and must
// not alias x.
//
//lint:noalias dst,x
func MulTVecInto(dst []float64, a *Dense, x []float64) error {
	if a.rows != len(x) {
		return vecShapeErr("multvec", a, len(x))
	}
	if len(dst) != a.cols {
		return dstLenErr("multvec", len(dst), a.cols)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		//lint:ignore floateq skip-zero fast path is exact by design: only true zeros skip
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
	return nil
}

// AddInto computes dst = a + b elementwise. dst may alias a and/or b; nil
// allocates.
func AddInto(dst, a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, shapeErr("add", a, b)
	}
	dst = reuseUnset(dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst, nil
}

// SubInto computes dst = a - b elementwise. dst may alias a and/or b; nil
// allocates.
func SubInto(dst, a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, shapeErr("sub", a, b)
	}
	dst = reuseUnset(dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst, nil
}

// ScaleInto computes dst = s*a elementwise. dst may alias a; nil allocates.
func ScaleInto(dst *Dense, s float64, a *Dense) *Dense {
	dst = reuseUnset(dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = s * a.data[i]
	}
	return dst
}

// TransposeInto computes dst = aᵀ. dst must not alias a; nil allocates.
//
//lint:noalias dst,a
func TransposeInto(dst, a *Dense) *Dense {
	dst = reuseUnset(dst, a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*dst.cols+i] = a.data[i*a.cols+j]
		}
	}
	return dst
}

// AddVecInto computes dst = x + y. dst may alias x and/or y and must have
// their common length.
func AddVecInto(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(vecLenPanic("addvec", len(dst), len(x), len(y)))
	}
	for i := range x {
		dst[i] = x[i] + y[i]
	}
}

// ScaleVecInto computes dst = s*x. dst may alias x and must have its length.
func ScaleVecInto(dst []float64, s float64, x []float64) {
	if len(dst) != len(x) {
		panic(vecLenPanic("scalevec", len(dst), len(x), len(x)))
	}
	for i := range x {
		dst[i] = s * x[i]
	}
}

func shapeErr(op string, a, b *Dense) error {
	return fmt.Errorf("mat: %s %dx%d with %dx%d: %w", op, a.rows, a.cols, b.rows, b.cols, ErrShape)
}

func vecShapeErr(op string, a *Dense, n int) error {
	return fmt.Errorf("mat: %s %dx%d with len %d: %w", op, a.rows, a.cols, n, ErrShape)
}

func dstLenErr(op string, got, want int) error {
	return fmt.Errorf("mat: %s dst length %d, want %d: %w", op, got, want, ErrShape)
}

func vecLenPanic(op string, d, x, y int) string {
	return fmt.Sprintf("mat: %s length mismatch dst %d, x %d, y %d", op, d, x, y)
}
