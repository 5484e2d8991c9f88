package bench

import (
	"fmt"
	"io"
	"time"
)

// Options configure one benchmark run.
type Options struct {
	// Seed generates the workload's inputs.
	Seed int64
	// Seconds is the measurement budget.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// Ticks overrides the workload's episode length when positive.
	Ticks int
	// Spans, when non-nil, receives the traced run's spans as JSONL.
	Spans io.Writer
}

// traceShare is the part of a traced run's budget spent on the timed
// episodes; the rest replays.
const traceShare = 0.5

// Run measures workload w and returns the run's settings and result. An
// error means the run could not be made at all; failed output checks are
// reported through Result.Correct and Settings.Checks instead.
func Run(w *Workload, opt Options) (Settings, Result, error) {
	in, err := w.Build(opt.Seed, opt.Ticks)
	if err != nil {
		return Settings{}, Result{}, err
	}
	st := newSettings(w, in, opt.Seed, opt.Seconds, opt.Trace)
	budget := time.Duration(opt.Seconds * float64(time.Second))
	cal := newCalibrator()
	if !opt.Trace {
		ref, err := w.Reference(opt.Ticks)
		if err != nil {
			return st, Result{}, err
		}
		m := Measure(in, ref, budget, cal)
		st.record(m, cal)
		res, checks := result(EndToEnd, m.endToEnd(), m.Attempted, m.Failed, m.checks())
		st.Checks = append(st.Checks, checks...)
		return st, res, nil
	}

	start := time.Now()
	m := Measure(in, nil, time.Duration(traceShare*float64(budget)), cal)
	checks := m.checks()
	vals := map[string]float64{}
	if m.Err == nil {
		var more []string
		vals, more, err = traceLayers(m, start.Add(budget), opt.Spans, cal, &st)
		if err != nil {
			return st, Result{}, err
		}
		checks = append(checks, more...)
	}
	st.record(m, cal)
	res, checks := result(PerLayer, vals, m.Attempted, m.Failed, checks)
	st.Checks = append(st.Checks, checks...)
	return st, res, nil
}

// traceLayers records one episode of the measured path, replays it until
// deadline (at least once), and computes the per-layer metrics.
func traceLayers(m *Measurement, deadline time.Time, spans io.Writer, cal *calibrator, st *Settings) (map[string]float64, []string, error) {
	var checks []string
	in := m.In
	rec := runEpisode(in, true, -1)
	if rec.err != nil {
		return nil, nil, fmt.Errorf("bench: recorded episode: %w", rec.err)
	}
	if rec.hash != m.FirstHash {
		checks = append(checks, "recorded episode differs from the timed episodes")
	}
	var runs []*replayRun
	for len(runs) == 0 || time.Now().Before(deadline) {
		cal.probe(calEpisodeReps)
		r, err := replay(in, rec.ep.kept)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
	}
	st.Replays = len(runs)
	if spans != nil {
		if err := writeSpans(spans, runs[0].spans); err != nil {
			return nil, nil, fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	self, dur, err := minTimes(runs)
	if err != nil {
		return nil, nil, err
	}
	// A replay mismatch is reported through trace.replay_mismatches, not as
	// a failed check: it means core has drifted from the replay's copy of
	// Controller.Step, not that the program's outputs are wrong.
	return perLayer(m, runs[0], aggregate(runs[0].spans, self, dur)), checks, nil
}

// perLayer computes the per-layer metrics from the timed episodes
// (counters and tick times) and the replay's span times.
func perLayer(m *Measurement, r *replayRun, lt layerTimes) map[string]float64 {
	c := func(name string) float64 {
		n, _ := m.Counters.Counter(name)
		return float64(n)
	}
	ratio := func(a, b float64) float64 {
		//lint:ignore floateq an exactly-zero denominator means no events
		if b == 0 {
			return 0
		}
		return a / b
	}
	tickMean := mean(m.TickUS)
	steps := c("idc_steps_total")
	hits, misses := c("idc_mpc_cache_hits_total"), c("idc_mpc_cache_misses_total")
	warm, cold := c("idc_lp_warm_solves_total"), c("idc_lp_cold_solves_total")
	layers := lt.layersPerTick()
	mpcSum := lt.sum[spanMPCHit] + lt.sum[spanMPCMiss]
	var iters int
	for _, n := range r.qpIters[1:] {
		iters += n
	}
	return map[string]float64{
		"ctrl.model_builds":             c("idc_slow_ticks_total") - c("idc_price_stale_holds_total"),
		"ctrl.model_build_useful_ratio": ratio(float64(r.useful), float64(r.builds)),
		"ctrl.model_build_us":           lt.meanSelf(spanModel),
		"ctrl.mpc_miss_us":              lt.meanSelf(spanMPCMiss),
		"ctrl.mpc_cache_hit_ratio":      ratio(hits, hits+misses),
		"ctrl.mpc_hit_us":               lt.meanSelf(spanMPCHit),
		"ctrl.mpc_share":                ratio(mpcSum/float64(lt.ticks), tickMean),
		"qp.iters_per_step":             ratio(c("idc_qp_iterations_total"), steps),
		"qp.us_per_iter":                ratio(mpcSum, float64(iters)),
		"qp.factorizations_per_step":    ratio(c("idc_qp_factorizations_total"), steps),
		"qp.factor_reuse_ratio":         ratio(c("idc_qp_factor_reuse_total"), steps),
		"alloc.traj_lp_us":              lt.meanSelf(spanTrajLP),
		"forecast.observe_us":           lt.meanSelf(spanObserve),
		"forecast.predict_us":           lt.meanSelf(spanPredict),
		"alloc.ref_lp_us":               lt.meanSelf(spanRefLP),
		"lp.warm_ratio":                 ratio(warm, warm+cold),
		"lp.pivots_per_solve":           ratio(c("idc_lp_pivots_total"), warm+cold),
		"price.query_us":                lt.meanSelf(spanPrice),
		"core.glue_us":                  lt.sum[spanTick] / float64(lt.ticks),
		"runtime.gc_per_1k_ticks":       ratio(1000*float64(m.GCs), float64(m.TimedTicks)),
		"sim.baseline_us":               lt.meanSelf(spanBaseline),
		"sleep.counts_us":               lt.meanSelf(spanSleep),
		"ctrl.plant_us":                 lt.meanSelf(spanPlant),
		"queueing.latency_us":           lt.meanSelf(spanLatency),
		"trace.overhead_ratio":          ratio(lt.tickDur/float64(lt.ticks), tickMean),
		"trace.coverage":                ratio(layers, tickMean),
		"trace.replay_mismatches":       float64(r.mismatches),
	}
}
