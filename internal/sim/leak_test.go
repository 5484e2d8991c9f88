package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/feed"
	"repro/internal/leaktest"
	"repro/internal/workload"
)

// TestRunContextPanicDoesNotLeakBaseline pins the deferred baseline join:
// a panic out of the demand callback must still close the pipeline channel
// and wait for the worker, not strand it parked on baseCh forever.
func TestRunContextPanicDoesNotLeakBaseline(t *testing.T) {
	leaktest.Check(t, func() {
		sc := paperScenario()
		sc.Steps = 20
		table := workload.TableI()
		sc.DemandSource = feed.FromFunc(func(step int) []float64 {
			if step == 5 {
				panic("demand source failed")
			}
			return table
		})
		panicked := false
		func() {
			defer func() {
				panicked = recover() != nil
			}()
			_, _ = RunContext(context.Background(), sc)
		}()
		if !panicked {
			t.Fatal("expected the demand panic to propagate")
		}
	})
}

// TestRunContextEarlyCancelDoesNotLeak covers the zero-step path: with ctx
// already canceled the baseline goroutine has been spawned but fed
// nothing, and must still be joined before RunContext returns.
func TestRunContextEarlyCancelDoesNotLeak(t *testing.T) {
	leaktest.Check(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sc := paperScenario()
		sc.Steps = 8
		if _, err := RunContext(ctx, sc); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}
