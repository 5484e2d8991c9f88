package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m-by-n matrix with m >= n:
// A = Q*R with Q orthogonal (m-by-m, applied implicitly) and R upper
// triangular (n-by-n as returned by R).
type QR struct {
	qr   *Dense    // packed Householder vectors below the diagonal, R on/above
	tau  []float64 // Householder scalars
	m, n int
}

// FactorQR computes the QR factorization of a (rows >= cols).
//
//lint:ignore testonly reached only through LeastSquares and Rank, the tests' independent least-squares and rank reference
func FactorQR(a *Dense) (*QR, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("mat: QR of %dx%d needs rows >= cols: %w", a.rows, a.cols, ErrShape)
	}
	m, n := a.rows, a.cols
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the Householder vector for column k.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.data[i*n+k])
		}
		//lint:ignore floateq exactly-zero column has no reflector; any nonzero norm is usable
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.data[k*n+k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.data[i*n+k] /= norm
		}
		qr.data[k*n+k] += 1
		tau[k] = qr.data[k*n+k]
		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.data[i*n+k] * qr.data[i*n+j]
			}
			s = -s / qr.data[k*n+k]
			for i := k; i < m; i++ {
				qr.data[i*n+j] += s * qr.data[i*n+k]
			}
		}
		// Store the R diagonal as -norm (sign folded in).
		qr.data[k*n+k] = -norm
		// Stash the vector head implicitly: entries below diag hold v, the
		// diagonal holds R. tau[k] keeps v[k] (=1+old) for applyQT.
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}, nil
}

// R returns the n-by-n upper-triangular factor.
func (f *QR) R() *Dense {
	r := Zeros(f.n, f.n)
	for i := 0; i < f.n; i++ {
		for j := i; j < f.n; j++ {
			r.data[i*f.n+j] = f.qr.data[i*f.n+j]
		}
	}
	return r
}

// applyQT overwrites b (length m) with Qᵀ*b.
func (f *QR) applyQT(b []float64) {
	for k := 0; k < f.n; k++ {
		//lint:ignore floateq tau is set to exactly 0 as the no-reflector sentinel
		if f.tau[k] == 0 {
			continue
		}
		// v[k] = tau[k], v[i>k] = qr[i,k].
		s := f.tau[k] * b[k]
		for i := k + 1; i < f.m; i++ {
			s += f.qr.data[i*f.n+k] * b[i]
		}
		s = -s / f.tau[k]
		b[k] += s * f.tau[k]
		for i := k + 1; i < f.m; i++ {
			b[i] += s * f.qr.data[i*f.n+k]
		}
	}
}

// SolveVec returns the least-squares solution x minimizing ||A*x - b||₂.
// It returns ErrSingular when R has a (near-)zero diagonal entry.
func (f *QR) SolveVec(b []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("mat: QR solve rhs length %d, want %d: %w", len(b), f.m, ErrShape)
	}
	w := make([]float64, f.m)
	copy(w, b)
	f.applyQT(w)
	x := make([]float64, f.n)
	for i := f.n - 1; i >= 0; i-- {
		d := f.qr.data[i*f.n+i]
		if math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("mat: rank-deficient least squares at column %d: %w", i, ErrSingular)
		}
		s := w[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.data[i*f.n+j] * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// RankTol reports an estimated numerical rank of R using tol as the relative
// diagonal threshold against the largest diagonal magnitude.
func (f *QR) RankTol(tol float64) int {
	var max float64
	for i := 0; i < f.n; i++ {
		if v := math.Abs(f.qr.data[i*f.n+i]); v > max {
			max = v
		}
	}
	//lint:ignore floateq an exactly-zero diagonal means rank 0 regardless of tol
	if max == 0 {
		return 0
	}
	rank := 0
	for i := 0; i < f.n; i++ {
		if math.Abs(f.qr.data[i*f.n+i]) > tol*max {
			rank++
		}
	}
	return rank
}

// LeastSquares solves min ||A*x - b||₂ via QR.
//
//lint:ignore testonly independent reference of qp's KKT-multiplier check and power's eq. (5) fit test
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Rank returns the numerical rank of a at relative tolerance tol, computed
// via QR on a (or aᵀ when a is wide).
//
//lint:ignore testonly independent rank reference of ctrl's controllability test
func Rank(a *Dense, tol float64) (int, error) {
	work := a
	if a.rows < a.cols {
		work = a.T()
	}
	f, err := FactorQR(work)
	if err != nil {
		return 0, err
	}
	return f.RankTol(tol), nil
}
