package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestRunContextCancelReturnsPartialResult(t *testing.T) {
	sc := paperScenario()
	sc.Steps = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the demand callback: the step being fed still
	// completes, the next iteration's ctx check stops the loop.
	table := workload.TableI()
	sc.DemandSource = feed.FromFunc(func(step int) []float64 {
		if step == 9 {
			cancel()
		}
		return table
	})
	res, err := RunContext(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if got := res.Control.Steps(); got != 10 {
		t.Fatalf("partial control steps = %d, want 10", got)
	}
	// The pipelined baseline must have drained to the same length.
	if res.Optimal == nil || res.Optimal.Steps() != 10 {
		t.Fatalf("partial baseline steps = %d, want 10", res.Optimal.Steps())
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := paperScenario()
	sc.Steps = 5
	res, err := RunContext(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Control.Steps() != 0 {
		t.Fatal("want an empty (zero-step) partial result")
	}
}

func TestScenarioObservabilityHooks(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	observed := 0
	sc := paperScenario()
	sc.Steps = 6
	sc.SkipBaseline = true
	sc.Metrics = reg
	sc.TraceWriter = &buf
	sc.Observer = core.ObserverFunc(func(*core.Telemetry) { observed++ })
	if _, err := Run(sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if observed != 6 {
		t.Errorf("observer saw %d steps, want 6", observed)
	}
	if v, ok := reg.Snapshot().Counter("idc_steps_total"); !ok || v != 6 {
		t.Errorf("idc_steps_total = %d (ok=%v), want 6", v, ok)
	}
	lines := 0
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec core.Telemetry
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace record %d: %v", lines, err)
		}
		lines++
	}
	if lines != 6 {
		t.Errorf("trace has %d records, want 6", lines)
	}
}
