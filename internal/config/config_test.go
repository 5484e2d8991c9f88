package config

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

const validJSON = `{
  "name": "two-region",
  "portals": [12000, 8000],
  "idcs": [
    {"name": "east", "region": "michigan", "servers": 10000,
     "serviceRate": 2.0, "delayBoundMs": 1, "idleWatts": 150,
     "peakWatts": 285, "budgetMW": 4.5},
    {"name": "west", "region": "wisconsin", "servers": 8000,
     "serviceRate": 1.5, "delayBoundMs": 1, "idleWatts": 150,
     "peakWatts": 285}
  ],
  "steps": 12, "tsSeconds": 30, "startHour": 6, "slowEvery": 4,
  "mpc": {"powerWeight": 1, "smoothWeight": 6},
  "prices": {"kind": "embedded"}
}`

func TestParseValid(t *testing.T) {
	f, err := Parse(strings.NewReader(validJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "two-region" || len(f.IDCs) != 2 {
		t.Fatalf("parsed %+v", f)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if sc.Topology.C() != 2 || sc.Topology.N() != 2 {
		t.Fatalf("topology C=%d N=%d", sc.Topology.C(), sc.Topology.N())
	}
	if sc.Topology.IDC(0).BudgetWatts != 4.5e6 {
		t.Fatalf("budget = %g", sc.Topology.IDC(0).BudgetWatts)
	}
	if sc.Topology.IDC(0).DelayBound != 0.001 {
		t.Fatalf("delay bound = %g", sc.Topology.IDC(0).DelayBound)
	}
	if d := peekDemands(t, f, 1); d[0][0] != 12000 {
		t.Fatalf("constant demand[0] = %g, want 12000", d[0][0])
	}
}

func TestParsedScenarioRuns(t *testing.T) {
	f, err := Parse(strings.NewReader(validJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	res, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Control.Steps() != 12 {
		t.Fatalf("steps = %d", res.Control.Steps())
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(validJSON, `"name"`, `"nmae"`, 1)
	if _, err := Parse(strings.NewReader(bad)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown field: %v", err)
	}
}

func TestParseValidation(t *testing.T) {
	mutations := map[string]func(string) string{
		"no portals": func(s string) string {
			return strings.Replace(s, `"portals": [12000, 8000]`, `"portals": []`, 1)
		},
		"negative portal": func(s string) string {
			return strings.Replace(s, `[12000, 8000]`, `[-1, 8000]`, 1)
		},
		"no idcs": func(s string) string {
			i := strings.Index(s, `"idcs": [`)
			j := i + strings.Index(s[i:], "],")
			return s[:i] + `"idcs": [` + s[j:]
		},
		"zero steps": func(s string) string {
			return strings.Replace(s, `"steps": 12`, `"steps": 0`, 1)
		},
		"bad price kind": func(s string) string {
			return strings.Replace(s, `"kind": "embedded"`, `"kind": "oracle"`, 1)
		},
		"zero servers": func(s string) string {
			return strings.Replace(s, `"servers": 10000`, `"servers": 0`, 1)
		},
		"peak below idle": func(s string) string {
			return strings.Replace(s, `"peakWatts": 285, "budgetMW": 4.5`, `"peakWatts": 100, "budgetMW": 4.5`, 1)
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(mutate(validJSON))); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestBidstackAndDiurnalAndForecast(t *testing.T) {
	j := strings.Replace(validJSON, `"prices": {"kind": "embedded"}`,
		`"prices": {"kind": "bidstack", "sensitivity": 2, "sigma": 1, "seed": 5},
		 "diurnal": true, "seed": 9,
		 "forecast": {"order": 4, "lambda": 0.99}`, 1)
	f, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if !sc.UseForecast {
		t.Fatal("forecast not enabled")
	}
	// Peek through a second Scenario: the run below consumes sc's source.
	d := peekDemands(t, f, 101)
	if d[0][0] == d[100][0] {
		t.Fatal("diurnal demands look constant")
	}
	res, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Control.Steps() != 12 {
		t.Fatalf("steps = %d", res.Control.Steps())
	}
}

// peekDemands pulls the first n demand vectors from a fresh Scenario of f.
func peekDemands(t *testing.T, f *File, n int) [][]float64 {
	t.Helper()
	sc, err := f.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if sc.DemandSource == nil {
		t.Fatal("demands not materialized")
	}
	out := make([][]float64, n)
	for k := range out {
		smp, err := sc.DemandSource.Next(context.Background())
		if err != nil {
			t.Fatalf("demand sample %d: %v", k, err)
		}
		out[k] = smp.Values
	}
	return out
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/scenario.json"
	if err := writeFile(path, validJSON); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if f.Name != "two-region" {
		t.Fatalf("Name = %s", f.Name)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
