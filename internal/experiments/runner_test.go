package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// runnerSubset picks experiments that together exercise static tables,
// price/forecast figures, a shared-scenario figure pair and the closed-loop
// daily/billing runs — enough surface to catch any ordering or sharing bug
// in the pool, while staying much cheaper than running all 14 twice.
func runnerSubset(t *testing.T) []Experiment {
	t.Helper()
	ids := []string{"table1", "table3", "fig2", "fig3", "fig4", "fig5", "billing", "daily"}
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		exps = append(exps, e)
	}
	return exps
}

// stripFuncs drops the (incomparable) Run closure so results can be
// compared with reflect.DeepEqual.
func stripFuncs(rs []RunResult) []RunResult {
	out := make([]RunResult, len(rs))
	for i, r := range rs {
		r.Experiment.Run = nil
		out[i] = r
	}
	return out
}

// TestRunAllMatchesSequential pins the parallel runner's determinism: a
// worker pool of 4 must produce exactly the outputs of a pool of 1, in the
// same (input) order.
func TestRunAllMatchesSequential(t *testing.T) {
	exps := runnerSubset(t)
	seq := RunAllContext(context.Background(), exps, 1)
	par := RunAllContext(context.Background(), exps, 4)
	for i, r := range seq {
		if r.Err != nil {
			t.Fatalf("sequential %s: %v", r.Experiment.ID, r.Err)
		}
		if par[i].Err != nil {
			t.Fatalf("parallel %s: %v", par[i].Experiment.ID, par[i].Err)
		}
		if par[i].Experiment.ID != r.Experiment.ID {
			t.Fatalf("result %d: order diverged (%s vs %s)", i, r.Experiment.ID, par[i].Experiment.ID)
		}
	}
	if !reflect.DeepEqual(stripFuncs(seq), stripFuncs(par)) {
		t.Fatalf("parallel outputs differ from sequential outputs")
	}
}

// TestRunAllPropagatesPerExperimentErrors verifies failures are isolated to
// their slot and do not stop the pool.
func TestRunAllPropagatesPerExperimentErrors(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok1", Run: func() (*Output, error) { return &Output{Notes: []string{"a"}}, nil }},
		{ID: "bad", Run: func() (*Output, error) { return nil, boom }},
		{ID: "ok2", Run: func() (*Output, error) { return &Output{Notes: []string{"b"}}, nil }},
	}
	rs := RunAllContext(context.Background(), exps, 2)
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy experiments reported errors: %v, %v", rs[0].Err, rs[2].Err)
	}
	if !errors.Is(rs[1].Err, boom) {
		t.Fatalf("failing experiment error = %v, want %v", rs[1].Err, boom)
	}
	if rs[0].Output.Notes[0] != "a" || rs[2].Output.Notes[0] != "b" {
		t.Fatalf("outputs landed in the wrong slots")
	}
}

// TestRunAllEmptyAndOversizedPool covers the worker-count edge cases.
func TestRunAllEmptyAndOversizedPool(t *testing.T) {
	if got := RunAllContext(context.Background(), nil, 8); len(got) != 0 {
		t.Fatalf("RunAllContext(nil) returned %d results", len(got))
	}
	one := []Experiment{{ID: "solo", Run: func() (*Output, error) { return &Output{}, nil }}}
	rs := RunAllContext(context.Background(), one, 16) // more workers than jobs
	if len(rs) != 1 || rs[0].Err != nil || rs[0].Output == nil {
		t.Fatalf("oversized pool mishandled a single job: %+v", rs)
	}
}

// TestRunAllContextCancelSkipsUndispatched verifies the cancellation
// contract: experiments already dispatched finish, the rest come back with
// ctx's error, and completed outputs stay in their slots.
func TestRunAllContextCancelSkipsUndispatched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	exps := []Experiment{
		{ID: "first", Run: func() (*Output, error) {
			// Cancel while the pool is mid-flight, then let the running
			// experiment finish: one worker, so nothing else dispatches.
			cancel()
			close(release)
			return &Output{Notes: []string{"done"}}, nil
		}},
		{ID: "second", Run: func() (*Output, error) {
			<-release
			return &Output{}, nil
		}},
		{ID: "third", Run: func() (*Output, error) { return &Output{}, nil }},
	}
	rs := RunAllContext(ctx, exps, 1)
	if rs[0].Err != nil || rs[0].Output == nil || rs[0].Output.Notes[0] != "done" {
		t.Fatalf("dispatched experiment did not finish cleanly: %+v", rs[0])
	}
	skipped := 0
	for _, r := range rs[1:] {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
			if r.Output != nil {
				t.Errorf("%s: canceled slot carries an output", r.Experiment.ID)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no experiment was marked canceled")
	}
}

// TestRunAllContextAlreadyCanceled: a dead context runs nothing.
func TestRunAllContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	exps := []Experiment{{ID: "x", Run: func() (*Output, error) { ran = true; return &Output{}, nil }}}
	rs := RunAllContext(ctx, exps, 2)
	if ran {
		t.Fatal("experiment ran despite pre-canceled context")
	}
	if !errors.Is(rs[0].Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rs[0].Err)
	}
}
