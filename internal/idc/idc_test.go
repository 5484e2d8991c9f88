package idc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/price"
)

func validIDC() IDC {
	pm, _ := power.NewServerModel(150, 285, 2)
	return IDC{
		Name: "test", Region: price.Michigan,
		TotalServers: 100, ServiceRate: 2, DelayBound: 0.001, Power: pm,
	}
}

func TestIDCValidate(t *testing.T) {
	good := validIDC()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid IDC rejected: %v", err)
	}
	cases := map[string]func(*IDC){
		"servers":     func(d *IDC) { d.TotalServers = 0 },
		"rate":        func(d *IDC) { d.ServiceRate = 0 },
		"delay":       func(d *IDC) { d.DelayBound = 0 },
		"budget":      func(d *IDC) { d.BudgetWatts = -1 },
		"NaN budget":  func(d *IDC) { d.BudgetWatts = math.NaN() },
		"+Inf budget": func(d *IDC) { d.BudgetWatts = math.Inf(1) },
		"NaN rate":    func(d *IDC) { d.ServiceRate = math.NaN() },
		"+Inf rate":   func(d *IDC) { d.ServiceRate = math.Inf(1) },
		"NaN delay":   func(d *IDC) { d.DelayBound = math.NaN() },
		"+Inf delay":  func(d *IDC) { d.DelayBound = math.Inf(1) },
	}
	for name, mutate := range cases {
		d := validIDC()
		mutate(&d)
		if err := d.Validate(); !errors.Is(err, ErrBadTopology) {
			t.Errorf("%s: err = %v, want ErrBadTopology", name, err)
		}
	}
}

// TestIDCValidatePowerModel pins the power model as part of a topology's
// validation: a NaN, infinite or negative B0 or B1 is ErrBadTopology
// naming the IDC and the field, from Validate and from NewTopology, rather
// than a NaN model blamed on the prices or a silently negative draw.
func TestIDCValidatePowerModel(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*power.ServerModel)
	}{
		{"B0", func(m *power.ServerModel) { m.B0 = math.NaN() }},
		{"B0", func(m *power.ServerModel) { m.B0 = math.Inf(1) }},
		{"B0", func(m *power.ServerModel) { m.B0 = math.Inf(-1) }},
		{"B0", func(m *power.ServerModel) { m.B0 = -150 }},
		{"B1", func(m *power.ServerModel) { m.B1 = math.NaN() }},
		{"B1", func(m *power.ServerModel) { m.B1 = math.Inf(1) }},
		{"B1", func(m *power.ServerModel) { m.B1 = math.Inf(-1) }},
		{"B1", func(m *power.ServerModel) { m.B1 = -5 }},
	} {
		d := validIDC()
		tc.mutate(&d.Power)
		err := d.Validate()
		if !errors.Is(err, ErrBadTopology) {
			t.Errorf("%s %+v: err = %v, want ErrBadTopology", tc.field, d.Power, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, d.Name) || !strings.Contains(msg, tc.field) {
			t.Errorf("%s %+v: err %q does not name the IDC and the field", tc.field, d.Power, msg)
		}
		if _, err := NewTopology(2, []IDC{validIDC(), d}); !errors.Is(err, ErrBadTopology) {
			t.Errorf("%s %+v: NewTopology err = %v, want ErrBadTopology", tc.field, d.Power, err)
		}
	}
	d := validIDC()
	d.Power = power.ServerModel{}
	if err := d.Validate(); err != nil {
		t.Errorf("zero power model rejected: %v", err)
	}
}

func TestIDCCapacity(t *testing.T) {
	d := validIDC()
	// 100·2 − 1/0.001 = 200 − 1000 < 0 → clamp path exercised below with
	// realistic numbers instead.
	d.TotalServers = 30000
	if got := d.Capacity(); math.Abs(got-59000) > 1e-9 {
		t.Fatalf("Capacity = %g, want 59000", got)
	}
}

func TestIDCMinServersClamped(t *testing.T) {
	d := validIDC()
	d.TotalServers = 10
	m, err := d.MinServersFor(1e6)
	if err != nil {
		t.Fatalf("MinServersFor: %v", err)
	}
	if m != 10 {
		t.Fatalf("MinServersFor clamped = %d, want 10", m)
	}
	if _, err := d.MinServersFor(-1); err == nil {
		t.Fatal("negative workload accepted")
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(0, []IDC{validIDC()}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("0 portals: %v", err)
	}
	if _, err := NewTopology(2, nil); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("no IDCs: %v", err)
	}
	bad := validIDC()
	bad.ServiceRate = -1
	if _, err := NewTopology(2, []IDC{bad}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("bad IDC: %v", err)
	}
}

func TestTopologyAccessors(t *testing.T) {
	top := PaperTopology()
	if top.C() != 5 || top.N() != 3 || top.NU() != 15 {
		t.Fatalf("C=%d N=%d NU=%d, want 5/3/15", top.C(), top.N(), top.NU())
	}
	if top.IDC(0).Region != price.Michigan {
		t.Fatalf("IDC(0).Region = %s", top.IDC(0).Region)
	}
	ids := top.IDCs()
	ids[0].Name = "mutated"
	if top.IDC(0).Name == "mutated" {
		t.Fatal("IDCs returned a view")
	}
}

func TestIndexConvention(t *testing.T) {
	top := PaperTopology()
	// Block j = IDC, portal-major inside: index(i, j) = j·C + i.
	if got := top.Index(0, 0); got != 0 {
		t.Fatalf("Index(0,0) = %d", got)
	}
	if got := top.Index(4, 0); got != 4 {
		t.Fatalf("Index(4,0) = %d", got)
	}
	if got := top.Index(0, 1); got != 5 {
		t.Fatalf("Index(0,1) = %d", got)
	}
	if got := top.Index(2, 2); got != 12 {
		t.Fatalf("Index(2,2) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Index did not panic")
		}
	}()
	top.Index(5, 0)
}

func TestPaperTopologyCapacitiesAndFeasibility(t *testing.T) {
	top := PaperTopology()
	caps := top.Capacities()
	want := []float64{39000, 49000, 34000} // M·µ − 1/D with M1 = 20000
	for j := range want {
		if math.Abs(caps[j]-want[j]) > 1e-9 {
			t.Fatalf("capacity[%d] = %g, want %g", j, caps[j], want[j])
		}
	}
	if !top.Feasible([]float64{30000, 15000, 15000, 20000, 20000}) {
		t.Fatal("Table I demand should be feasible")
	}
	if top.Feasible([]float64{1e6, 0, 0, 0, 0}) {
		t.Fatal("absurd demand should be infeasible")
	}
}

func TestConservationMatrix(t *testing.T) {
	top := PaperTopology()
	h := top.ConservationMatrix()
	if h.Rows() != 5 || h.Cols() != 15 {
		t.Fatalf("H is %dx%d, want 5x15", h.Rows(), h.Cols())
	}
	// Row i has exactly N ones, at positions j·C+i.
	for i := 0; i < 5; i++ {
		var count int
		for col := 0; col < 15; col++ {
			v := h.At(i, col)
			switch {
			case v == 1:
				count++
				if col%5 != i {
					t.Fatalf("H[%d][%d] = 1 at wrong offset", i, col)
				}
			case v != 0:
				t.Fatalf("H[%d][%d] = %g", i, col, v)
			}
		}
		if count != 3 {
			t.Fatalf("row %d has %d ones, want 3", i, count)
		}
	}
}

func TestLatencyCapsMatrix(t *testing.T) {
	top := PaperTopology()
	psi := top.LatencyMatrix()
	if psi.Rows() != 3 || psi.Cols() != 15 {
		t.Fatalf("Ψ is %dx%d, want 3x15", psi.Rows(), psi.Cols())
	}
	// Row j selects block j.
	for j := 0; j < 3; j++ {
		for col := 0; col < 15; col++ {
			want := 0.0
			if col/5 == j {
				want = 1
			}
			if psi.At(j, col) != want {
				t.Fatalf("Ψ[%d][%d] = %g, want %g", j, col, psi.At(j, col), want)
			}
		}
	}
}

func TestAllocationRoundTrip(t *testing.T) {
	top := PaperTopology()
	a := NewAllocation(top)
	a.Set(2, 1, 123)
	if a.At(2, 1) != 123 {
		t.Fatal("Set/At mismatch")
	}
	v := a.Vector()
	if v[top.Index(2, 1)] != 123 {
		t.Fatal("Vector missing entry")
	}
	v[0] = 7
	if a.At(0, 0) != 0 {
		t.Fatal("Vector returned a view")
	}
	b, err := AllocationFromVector(top, a.Vector())
	if err != nil {
		t.Fatalf("AllocationFromVector: %v", err)
	}
	if b.At(2, 1) != 123 {
		t.Fatal("round trip lost data")
	}
	if _, err := AllocationFromVector(top, []float64{1}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("short vector: %v", err)
	}
}

func TestAllocationSums(t *testing.T) {
	top := PaperTopology()
	a := NewAllocation(top)
	a.Set(0, 0, 10)
	a.Set(1, 0, 20)
	a.Set(0, 2, 5)
	per := a.PerIDC()
	if per[0] != 30 || per[1] != 0 || per[2] != 5 {
		t.Fatalf("PerIDC = %v", per)
	}
	pp := a.PerPortal()
	if pp[0] != 15 || pp[1] != 20 {
		t.Fatalf("PerPortal = %v", pp)
	}
	c := a.Clone()
	c.Set(0, 0, 999)
	if a.At(0, 0) != 10 {
		t.Fatal("Clone aliased")
	}
	if a.Topology() != top {
		t.Fatal("Topology accessor broken")
	}
}
