package ctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/idc"
	"repro/internal/mat"
)

// fullBlock holds the matrices of the full-block reference.
type fullBlock struct {
	a, b, f, phi, g, gamma *mat.Dense
}

// fullBlockModel is the reference TestModelMatchesFullBlock and
// FuzzModelMatchesFullBlock check NewFoldedModel against: the
// discretization as it ran while the Van Loan block carried every portal
// column of B, (N+1+NC+N)-square. It fills A, B and F as the model of
// eq. (36) does, discretizes A over the concatenated [B | F] in one call
// and slices G and Γ out of the result.
func fullBlockModel(top *idc.Topology, prices []float64, ts float64) (*fullBlock, error) {
	n, c := top.N(), top.C()
	ns := n + 1

	a := mat.Zeros(ns, ns)
	for j := 0; j < n; j++ {
		a.Set(0, 1+j, prices[j])
	}
	b := mat.Zeros(ns, top.NU())
	f := mat.Zeros(ns, n)
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		eff := d.Power.B1 + d.Power.B0/d.ServiceRate
		for i := 0; i < c; i++ {
			b.Set(1+j, top.Index(i, j), eff)
		}
		f.Set(1+j, j, d.Power.B0)
	}

	// Discretize A with the concatenated input [B | F] in one Van Loan call.
	bf := mat.Zeros(ns, top.NU()+n)
	bf.SetBlock(0, 0, b)
	bf.SetBlock(0, top.NU(), f)
	phi, gAll, err := mat.Discretize(a, bf, ts)
	if err != nil {
		return nil, fmt.Errorf("ctrl: discretize: %w", err)
	}
	return &fullBlock{
		a:     a,
		b:     b,
		f:     f,
		phi:   phi,
		g:     gAll.Slice(0, ns, 0, top.NU()),
		gamma: gAll.Slice(0, ns, top.NU(), top.NU()+n),
	}, nil
}

// finite reports whether every entry of the reference's Φ, G and Γ is
// finite: the condition under which the constructors return a model.
func (fb *fullBlock) finite() bool {
	for _, d := range []*mat.Dense{fb.phi, fb.g, fb.gamma} {
		for i := 0; i < d.Rows(); i++ {
			if !finite(d.RowView(i)) {
				return false
			}
		}
	}
	return true
}

// diffFullBlock names the first of m's Φ, G and Γ whose bits differ from
// the reference's, or returns "".
func diffFullBlock(m *Model, fb *fullBlock) string {
	for _, p := range []struct {
		name      string
		got, want *mat.Dense
	}{
		{"Phi", m.phi, fb.phi}, {"G", m.g, fb.g}, {"Gamma", m.gamma, fb.gamma},
	} {
		if !sameDenseBits(p.got, p.want) {
			return p.name
		}
	}
	return ""
}

// checkMatchesFullBlock builds the model both ways and fails t unless they
// agree: the same bits in every matrix when the reference is finite, and
// ErrBadModel when it is not.
func checkMatchesFullBlock(t *testing.T, top *idc.Topology, prices []float64, ts float64) {
	t.Helper()
	at := fmt.Sprintf("C%d×N%d ts=%g prices %v", top.C(), top.N(), ts, prices)
	fb, refErr := fullBlockModel(top, prices, ts)
	m, err := NewFoldedModel(top, prices, ts)
	switch {
	case refErr != nil:
		if err == nil {
			t.Fatalf("%s: reference failed (%v), model built", at, refErr)
		}
	case !fb.finite():
		if !errors.Is(err, ErrBadModel) {
			t.Fatalf("%s: reference not finite, err = %v, want ErrBadModel", at, err)
		}
	case err != nil:
		t.Fatalf("%s: reference finite, err = %v", at, err)
	default:
		if what := diffFullBlock(m, fb); what != "" {
			t.Fatalf("%s: %s differs from the full block", at, what)
		}
	}
}

// TestModelMatchesFullBlock checks that the model, discretized over one
// input column per IDC, carries the full block's Φ, G and Γ bit for bit
// across topologies from C1×N1 to C20×N10, zero, paper-scale, 1e8 and
// mixed prices, and Ts from 0.01 to 3600 s.
func TestModelMatchesFullBlock(t *testing.T) {
	tops := []*idc.Topology{idc.PaperTopology()}
	for _, s := range []struct{ c, n int }{{1, 1}, {4, 3}, {8, 6}, {20, 10}} {
		top, err := idc.SyntheticTopology(s.c, s.n, 20000)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	mixed := []float64{43.26, 0, 1e8, -12.5, 19.06, 5e8, 1e-3}
	for _, top := range tops {
		n := top.N()
		vectors := map[string][]float64{
			"zero":  make([]float64, n),
			"paper": make([]float64, n),
			"1e8":   make([]float64, n),
			"mixed": make([]float64, n),
		}
		for j := 0; j < n; j++ {
			vectors["paper"][j] = testPrices6H[j%len(testPrices6H)]
			vectors["1e8"][j] = 1e8
			vectors["mixed"][j] = mixed[j%len(mixed)]
		}
		for _, name := range []string{"zero", "paper", "1e8", "mixed"} {
			for _, ts := range []float64{0.01, 30, 300, 3600} {
				checkMatchesFullBlock(t, top, vectors[name], ts)
			}
		}
	}
}

// FuzzModelMatchesFullBlock checks the one-column-per-IDC discretization
// against the full block over a synthetic topology with C ≤ 8 and N ≤ 6,
// any Ts > 0 and fuzzed finite prices, the overflow range included: either both sides give the same bits, or
// the model is ErrBadModel exactly when the reference has a non-finite
// entry. The checked-in seeds cover paper prices, a zero price, 1e302 and
// Ts 0.01.
func FuzzModelMatchesFullBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, c, n uint8, ts float64, priceBits []byte) {
		ts = math.Abs(ts)
		if ts == 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
			t.Skip("sampling period not positive and finite")
		}
		top, err := idc.SyntheticTopology(1+int(c%8), 1+int(n%6), 1000)
		if err != nil {
			t.Fatal(err)
		}
		// priceBits holds N little-endian float64s; missing bytes read as
		// 0 and a non-finite value as 0.
		prices := make([]float64, top.N())
		for j := range prices {
			var raw [8]byte
			copy(raw[:], priceBits[min(8*j, len(priceBits)):])
			p := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			if math.IsNaN(p) || math.IsInf(p, 0) {
				p = 0
			}
			prices[j] = p
		}
		checkMatchesFullBlock(t, top, prices, ts)
	})
}
