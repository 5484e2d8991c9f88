package lp

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/mat"
)

// fuzzReader decodes a fuzz byte stream into problem dimensions and float
// values. Floats come straight from the bit pattern so the fuzzer can steer
// NaN and ±Inf into the vectors Validate must reject.
type fuzzReader struct {
	data []byte
	off  int
}

func (r *fuzzReader) byte() byte {
	if r.off >= len(r.data) {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *fuzzReader) float() float64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (r *fuzzReader) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

func (r *fuzzReader) matrix(rows, cols int) *mat.Dense {
	if rows == 0 {
		return nil
	}
	return mat.MustNew(rows, cols, r.floats(rows*cols))
}

// FuzzLPValidate checks the Validate/Solve gate: Validate never panics,
// and any problem Validate accepts must go through Solve without panicking
// and without being rejected as malformed. For moderate finite inputs an
// Optimal result must also be primal feasible.
func FuzzLPValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 0, 0, 0, 0, 0, 0, 0x3f})
	f.Add([]byte("\x03\x02\x00 seed bytes that become float bits"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := int(r.byte() % 8)
		mEq := int(r.byte() % 4)
		mUb := int(r.byte() % 4)
		p := &Problem{
			C:   r.floats(n),
			Aeq: sparse(r.matrix(mEq, max(n, 1))),
			Beq: r.floats(mEq),
			Aub: sparse(r.matrix(mUb, max(n, 1))),
			Bub: r.floats(mUb),
		}
		if err := p.Validate(); err != nil {
			// Rejected input: Solve must reject it identically, not panic.
			if _, serr := Solve(p); serr == nil {
				t.Fatalf("Validate rejected (%v) but Solve accepted", err)
			}
			return
		}
		res, err := Solve(p)
		if err != nil {
			t.Fatalf("Validate accepted but Solve errored: %v", err)
		}
		if res == nil {
			t.Fatal("Solve returned nil result without error")
		}

		// Feasibility is only asserted for well-scaled finite data; wild
		// magnitudes can legitimately overflow tableau arithmetic.
		if !moderate(p) || res.Status != Optimal {
			return
		}
		const tol = 1e-6
		for i, v := range res.X {
			if v < -tol || math.IsNaN(v) {
				t.Fatalf("optimal X[%d] = %g violates x >= 0", i, v)
			}
		}
		if p.Aeq != nil {
			ax := make([]float64, p.Aeq.Rows())
			if aerr := p.Aeq.MulVecInto(ax, res.X); aerr != nil {
				t.Fatal(aerr)
			}
			for i := range ax {
				if math.Abs(ax[i]-p.Beq[i]) > tol*(1+math.Abs(p.Beq[i])) {
					t.Fatalf("optimal X violates equality row %d: %g != %g", i, ax[i], p.Beq[i])
				}
			}
		}
		if p.Aub != nil {
			ax := make([]float64, p.Aub.Rows())
			if aerr := p.Aub.MulVecInto(ax, res.X); aerr != nil {
				t.Fatal(aerr)
			}
			for i := range ax {
				if ax[i] > p.Bub[i]+tol*(1+math.Abs(p.Bub[i])) {
					t.Fatalf("optimal X violates inequality row %d: %g > %g", i, ax[i], p.Bub[i])
				}
			}
		}
	})
}

// moderate reports whether every coefficient of p is finite and small
// enough for the feasibility tolerances to be meaningful.
func moderate(p *Problem) bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && math.Abs(v) <= 1e6 }
	for _, v := range p.C {
		if !ok(v) {
			return false
		}
	}
	for _, v := range p.Beq {
		if !ok(v) {
			return false
		}
	}
	for _, v := range p.Bub {
		if !ok(v) {
			return false
		}
	}
	for _, m := range []*mat.SparseRows{p.Aeq, p.Aub} {
		if m == nil {
			continue
		}
		for i := 0; i < m.Rows(); i++ {
			_, val := m.RowNNZ(i)
			for _, v := range val {
				if !ok(v) {
					return false
				}
			}
		}
	}
	return true
}
