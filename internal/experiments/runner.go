package experiments

import (
	"context"
	"runtime"
	"sync"
)

// RunResult pairs an experiment with its outcome.
type RunResult struct {
	Experiment Experiment
	Output     *Output
	Err        error
}

// RunAllContext executes the given experiments on a bounded worker pool and
// returns their results in input order. workers ≤ 0 selects
// runtime.GOMAXPROCS(0). Every experiment runs regardless of other
// experiments' failures; per-experiment errors land in the corresponding
// RunResult.
//
// Each experiment owns its scenario state, so they are safe to run
// concurrently; the two figure pairs that share an expensive scenario run
// (fig4/fig5 and fig6/fig7) coordinate through sync.Once and compute it
// exactly once no matter which worker gets there first. Outputs are
// deterministic: a pool of 1 and a pool of N produce identical results.
//
// Once ctx is canceled no new experiment starts, and every undispatched
// experiment's RunResult carries ctx's error. Experiments already running
// finish normally (an experiment is an atomic unit of work), so the
// returned slice mixes completed and canceled entries — callers report the
// completed ones as a partial result.
func RunAllContext(ctx context.Context, exps []Experiment, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]RunResult, len(exps))
	if len(exps) == 0 {
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The dispatch select below commits a job even when ctx is
				// already done (both cases ready, runtime picks either), so
				// the no-new-experiment-after-cancel guarantee needs this
				// second check on the receiving side.
				if err := ctx.Err(); err != nil {
					results[i] = RunResult{Experiment: exps[i], Err: err}
					continue
				}
				out, err := exps[i].Run()
				results[i] = RunResult{Experiment: exps[i], Output: out, Err: err}
			}
		}()
	}
	canceledFrom := len(exps)
dispatch:
	for i := range exps {
		if ctx.Err() != nil {
			canceledFrom = i
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			canceledFrom = i
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	for i := canceledFrom; i < len(exps); i++ {
		results[i] = RunResult{Experiment: exps[i], Err: ctx.Err()}
	}
	return results
}
