package mat

import (
	"fmt"
	"math"
	"sync"
)

// Cache-tiled (blocked) kernels for the planet-scale topologies of ROADMAP
// Open item 2. The naive triple loops stream O(n³) doubles through memory;
// at condensed-MPC sizes (thousands of decision variables) that traffic, not
// the flops, dominates. The kernels here tile the iteration space and pack
// operand panels into contiguous scratch so the working set stays
// cache-resident.
//
// Bit-identity contract (DESIGN.md §3.10): every blocked kernel performs,
// for each output element, exactly the same floating-point operations in
// exactly the same order as its naive counterpart — tiling only reorders
// work *across* elements, never the accumulation chain *within* one, and
// the skip-zero fast paths test the same conditions. Blocked and naive
// results are therefore bit-identical (pinned by TestBlockedMulIntoBitIdentical
// and friends plus FuzzBlockedMulInto), which is what makes the size
// dispatch below safe: crossing a threshold can never change a result.
//
// One documented carve-out: the large-system triangular back-substitution
// (triSolveSaxpyMin, used by Cholesky.SolveVecInto) switches to the
// row-streaming saxpy order, which DOES reorder each element's accumulation
// chain — a back solve that preserves the naive order must either walk the
// row-major factor by column (the stride-n access the switch exists to
// avoid) or keep a transposed copy of every cached factor. Results above
// the threshold agree with the naive sweep only to rounding; every
// checksummed paper-scale artifact stays far below it.
//
// Thresholds are chosen so every paper-scale problem (tens of variables)
// stays on the naive path untouched; only the C20×N10-and-up scaling
// topologies reach the blocked code.

const (
	// blockedMulMinFlops dispatches MulInto to the blocked kernel when
	// rows·inner·cols meets it. 2²⁰ keeps every paper-scale product (≤ ~45
	// variables) on the naive loop.
	blockedMulMinFlops = 1 << 20
	// mulTileK/mulTileJ are the packed-panel tile sizes: a tileK×tileJ
	// panel of B (64×128 doubles = 64 KiB) plus the touched A and dst
	// strips fit comfortably in L2.
	mulTileK = 64
	mulTileJ = 128

	// cholBlockMin/luBlockMin dispatch the factorizations to their blocked
	// variants; paper-scale systems (≤ ~45) stay unblocked.
	cholBlockMin = 128
	luBlockMin   = 128
	// triSolveSaxpyMin dispatches the Cholesky backward sweep to the
	// row-streaming saxpy order (see the contract carve-out above).
	triSolveSaxpyMin = 128
	// factorPanel is the panel width of the blocked factorizations and
	// factorTileK the k-tile depth of their deferred trailing updates.
	factorPanel = 48
	factorTileK = 64
)

// panelPool recycles packing buffers across blocked matmuls so repeated
// large products (condensed-cache rebuilds, scaling benchmarks) allocate
// only until the pool is warm. Pool access is safe under the concurrent
// experiment runner.
var panelPool = sync.Pool{
	New: func() any {
		buf := make([]float64, mulTileK*mulTileJ)
		return &buf
	},
}

// blockedMulInto computes dst += a*b over the already-zeroed dst using
// j/k tiling with a packed B panel. Loop order guarantees each dst element
// accumulates its a[i][k]*b[k][j] products in ascending k — the naive
// MulInto order — so the result is bit-identical to the naive loop.
func blockedMulInto(dst, a, b *Dense) {
	nTiles := (b.cols + mulTileJ - 1) / mulTileJ
	pp := panelPool.Get().(*[]float64)
	mulTileRange(dst, a, b, 0, nTiles, *pp)
	panelPool.Put(pp)
}

// mulTileRange runs the blocked matmul body over j-tiles [t0, t1), where
// tile t covers dst columns [t·mulTileJ, (t+1)·mulTileJ) clamped to b's
// width; panel must hold mulTileK·mulTileJ doubles.
func mulTileRange(dst, a, b *Dense, t0, t1 int, panel []float64) {
	ar, ac, bc := a.rows, a.cols, b.cols
	for tile := t0; tile < t1; tile++ {
		j0 := tile * mulTileJ
		j1 := j0 + mulTileJ
		if j1 > bc {
			j1 = bc
		}
		w := j1 - j0
		for k0 := 0; k0 < ac; k0 += mulTileK {
			k1 := k0 + mulTileK
			if k1 > ac {
				k1 = ac
			}
			// Pack B[k0:k1, j0:j1] contiguously; copying moves values
			// without touching them, so packing cannot affect results.
			for k := k0; k < k1; k++ {
				copy(panel[(k-k0)*w:(k-k0)*w+w], b.data[k*bc+j0:k*bc+j1])
			}
			for i := 0; i < ar; i++ {
				arow := a.data[i*ac+k0 : i*ac+k1]
				orow := dst.data[i*bc+j0 : i*bc+j1]
				for kk, av := range arow {
					//lint:ignore floateq skip-zero fast path mirrors the naive kernel exactly
					if av == 0 {
						continue
					}
					brow := panel[kk*w : kk*w+w]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// factorBlocked is the right-looking blocked Cholesky behind
// Cholesky.Factor for n ≥ cholBlockMin. Each element's update chain —
// subtract l[i][k]·l[j][k] for k ascending, then sqrt/divide — matches the
// unblocked loop operation for operation, so factors are bit-identical and
// the non-PD error fires at the same column with the same d.
func (c *Cholesky) factorBlocked(a, l *Dense, n int) error {
	ld := l.data
	ad := a.data
	for p0 := 0; p0 < n; p0 += factorPanel {
		p1 := p0 + factorPanel
		if p1 > n {
			p1 = n
		}
		// Seed the panel's lower region from a.
		for i := p0; i < n; i++ {
			jmax := p1
			if i+1 < jmax {
				jmax = i + 1
			}
			copy(ld[i*n+p0:i*n+jmax], ad[i*n+p0:i*n+jmax])
		}
		// Deferred trailing update from all prior columns, row-outer with
		// k-tiles ascending inside each row, so each element still subtracts
		// its products in the unblocked order.
		if p0 > 0 {
			cholUpdateRows(ld, n, p0, p1, p0, n)
		}
		// Factor the panel with the unblocked loop, k restricted to the
		// panel (earlier k's were subtracted above).
		for j := p0; j < p1; j++ {
			d := ld[j*n+j]
			for k := p0; k < j; k++ {
				d -= ld[j*n+k] * ld[j*n+k]
			}
			if d <= 0 {
				c.n = 0
				return fmt.Errorf("mat: non-positive-definite at column %d (d=%g): %w", j, d, ErrSingular)
			}
			dj := math.Sqrt(d)
			ld[j*n+j] = dj
			for i := j + 1; i < n; i++ {
				s := ld[i*n+j]
				for k := p0; k < j; k++ {
					s -= ld[i*n+k] * ld[j*n+k]
				}
				ld[i*n+j] = s / dj
			}
		}
	}
	return nil
}

// cholUpdateRows applies the deferred trailing update to rows [i0, i1) of
// the current panel [p0, p1): for each row, k-tiles of prior columns
// ascend so every element's subtraction chain matches the unblocked loop.
// Row i reads only columns < p0, finalized by earlier panels, and writes
// only its own [p0, p1) region.
func cholUpdateRows(ld []float64, n, p0, p1, i0, i1 int) {
	for i := i0; i < i1; i++ {
		jmax := p1
		if i+1 < jmax {
			jmax = i + 1
		}
		for k0 := 0; k0 < p0; k0 += factorTileK {
			k1 := k0 + factorTileK
			if k1 > p0 {
				k1 = p0
			}
			irow := ld[i*n+k0 : i*n+k1]
			for j := p0; j < jmax; j++ {
				jrow := ld[j*n+k0 : j*n+k1]
				s := ld[i*n+j]
				for k, lik := range irow {
					s -= lik * jrow[k]
				}
				ld[i*n+j] = s
			}
		}
	}
}

// factorBlocked is the panel-deferred blocked LU behind LU.Factor for
// n ≥ luBlockMin. Pivot choices see fully-updated columns (prior panels via
// the deferred update, the current panel via its right-looking sweep), so
// the pivot sequence — and with it every multiplier and update chain — is
// identical to the unblocked loop's.
func (f *LU) factorBlocked(lu *Dense, piv []int, n int) error {
	ld := lu.data
	signs := 1
	for p0 := 0; p0 < n; p0 += factorPanel {
		p1 := p0 + factorPanel
		if p1 > n {
			p1 = n
		}
		// Deferred update of panel columns from all prior pivots, k-tiled
		// ascending; the per-(i,k) skip-zero test mirrors the unblocked loop.
		// Row i reads rows [k0, min(i, k1)), which this same pass updated
		// first, so rows go in ascending order.
		for k0 := 0; k0 < p0; k0 += factorTileK {
			k1 := k0 + factorTileK
			if k1 > p0 {
				k1 = p0
			}
			luUpdateRows(ld, n, k0, k1, p0, p1, k0+1, n)
		}
		// Right-looking factorization within the panel; row swaps span the
		// full matrix exactly as in the unblocked loop.
		for k := p0; k < p1; k++ {
			p := k
			max := math.Abs(ld[k*n+k])
			for i := k + 1; i < n; i++ {
				if v := math.Abs(ld[i*n+k]); v > max {
					max, p = v, i
				}
			}
			//lint:ignore floateq singularity gate is intentionally exact: any nonzero pivot factors
			if max == 0 {
				f.n = 0
				return fmt.Errorf("mat: zero pivot at column %d: %w", k, ErrSingular)
			}
			if p != k {
				swapRows(lu, p, k)
				piv[p], piv[k] = piv[k], piv[p]
				signs = -signs
			}
			pivot := ld[k*n+k]
			for i := k + 1; i < n; i++ {
				m := ld[i*n+k] / pivot
				ld[i*n+k] = m
				//lint:ignore floateq skip-zero fast path mirrors the naive kernel exactly
				if m == 0 {
					continue
				}
				for j := k + 1; j < p1; j++ {
					ld[i*n+j] -= m * ld[k*n+j]
				}
			}
		}
	}
	f.signs = signs
	return nil
}

// luUpdateRows applies one k-tile [k0, k1) of the deferred LU update to
// rows [i0, i1) of the panel columns [p0, p1). Per row, kmax clamps the
// tile to the strictly-lower multipliers exactly as the unblocked loop
// does.
func luUpdateRows(ld []float64, n, k0, k1, p0, p1, i0, i1 int) {
	for i := i0; i < i1; i++ {
		kmax := k1
		if i < kmax {
			kmax = i
		}
		for j := p0; j < p1; j++ {
			s := ld[i*n+j]
			for k := k0; k < kmax; k++ {
				m := ld[i*n+k]
				//lint:ignore floateq skip-zero fast path mirrors the naive kernel exactly
				if m == 0 {
					continue
				}
				s -= m * ld[k*n+j]
			}
			ld[i*n+j] = s
		}
	}
}
