package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// fakeClock hands out timestamps advancing a fixed tick per call, making
// the latency instruments deterministic.
type fakeClock struct {
	t    time.Time
	tick time.Duration
}

func (f *fakeClock) now() time.Time {
	f.t = f.t.Add(f.tick)
	return f.t
}

func stepN(t *testing.T, c *Controller, steps int) []*Telemetry {
	t.Helper()
	demands := workload.TableI()
	tels := make([]*Telemetry, 0, steps)
	for k := 0; k < steps; k++ {
		tel, err := c.Step(demands)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		tels = append(tels, tel)
	}
	return tels
}

func TestWithObserverReceivesEveryStep(t *testing.T) {
	var seen []*Telemetry
	var second int
	c, err := New(baseConfig(),
		WithMetrics(obs.NewRegistry()),
		WithObserver(ObserverFunc(func(tel *Telemetry) { seen = append(seen, tel) })),
		WithObserver(ObserverFunc(func(*Telemetry) { second++ })),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tels := stepN(t, c, 5)
	if len(seen) != 5 || second != 5 {
		t.Fatalf("observers saw %d/%d steps, want 5/5", len(seen), second)
	}
	for k, tel := range tels {
		if seen[k] != tel {
			t.Errorf("step %d: observer got a different record than Step returned", k)
		}
	}
}

func TestWithTraceWritesJSONLPerStep(t *testing.T) {
	var buf bytes.Buffer
	c, err := New(baseConfig(), WithMetrics(obs.NewRegistry()), WithTrace(&buf))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tels := stepN(t, c, 4)
	dec := json.NewDecoder(&buf)
	for k := 0; k < 4; k++ {
		var rec Telemetry
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace line %d: %v", k, err)
		}
		if rec.Step != tels[k].Step || rec.CumulativeCost != tels[k].CumulativeCost {
			t.Errorf("trace line %d = step %d cost %g, want step %d cost %g",
				k, rec.Step, rec.CumulativeCost, tels[k].Step, tels[k].CumulativeCost)
		}
	}
	if dec.More() {
		t.Error("trace has extra records beyond the steps run")
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestTraceWriteFailureFailsStep(t *testing.T) {
	sentinel := errors.New("disk full")
	c, err := New(baseConfig(), WithMetrics(obs.NewRegistry()), WithTrace(failWriter{sentinel}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Step(workload.TableI()); !errors.Is(err, sentinel) {
		t.Fatalf("Step with failing trace writer: %v, want %v", err, sentinel)
	}
}

func TestWithMetricsPopulatesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	// §V.C budgets bind after the hour-7 price flip, so the clamp and the
	// violation counters both have something to do.
	cfg.Budgets = []float64{5.13e6, 10.26e6, 4.275e6}
	// WithSampleEvery(1) disables the fast-loop decimation so the
	// histogram count is exactly the step count.
	c, err := New(cfg, WithMetrics(reg), WithSampleEvery(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Metrics() != reg {
		t.Fatal("Metrics() does not return the WithMetrics registry")
	}
	const steps = 130 // crosses the hour-7 boundary at Ts=30, StartHour=6
	tels := stepN(t, c, steps)
	s := reg.Snapshot()

	if v, ok := s.Counter("idc_steps_total"); !ok || v != steps {
		t.Errorf("idc_steps_total = %d (ok=%v), want %d", v, ok, steps)
	}
	// Slow ticks: step 0, then every SlowEvery-th step.
	wantTicks := uint64(1 + (steps-1)/cfg.SlowEvery)
	if v, ok := s.Counter("idc_slow_ticks_total"); !ok || v != wantTicks {
		t.Errorf("idc_slow_ticks_total = %d (ok=%v), want %d", v, ok, wantTicks)
	}
	// The reference LP re-solves each tick: the first is cold, re-solves
	// with unchanged demands warm-start until the hour-7 price flip changes
	// only the cost vector — still warm. At least one of each must fire.
	warm, _ := s.Counter("idc_lp_warm_solves_total")
	cold, _ := s.Counter("idc_lp_cold_solves_total")
	if cold == 0 || warm == 0 {
		t.Errorf("lp solves warm=%d cold=%d, want both > 0", warm, cold)
	}
	if warm+cold != wantTicks {
		t.Errorf("lp solves warm+cold = %d, want %d (one per slow tick)", warm+cold, wantTicks)
	}
	if v, _ := s.Counter("idc_lp_pivots_total"); v == 0 {
		t.Error("idc_lp_pivots_total never fired")
	}
	for _, name := range []string{
		"idc_qp_iterations_total", "idc_qp_factor_reuse_total",
		"idc_mpc_cache_hits_total", "idc_mpc_cache_misses_total",
		"idc_ref_clamp_total",
	} {
		if v, ok := s.Counter(name); !ok || v == 0 {
			t.Errorf("%s = %d (ok=%v), want > 0", name, v, ok)
		}
	}
	// The model rebuilds only when the prices change, so the only swap is
	// the hour-7 price flip; the other slow ticks keep the model.
	if v, _ := s.Counter("idc_mpc_model_swaps_total"); v != 1 {
		t.Errorf("idc_mpc_model_swaps_total = %d, want 1 (the hour-7 price change)", v)
	}
	last := tels[len(tels)-1]
	if v, ok := s.Gauge("idc_cost_dollars_total"); !ok || v != last.CumulativeCost {
		t.Errorf("idc_cost_dollars_total = %g, want %g", v, last.CumulativeCost)
	}
	if v, ok := s.Gauge("idc_cost_rate_dollars_per_hour"); !ok || v != last.CostRate {
		t.Errorf("idc_cost_rate_dollars_per_hour = %g, want %g", v, last.CostRate)
	}
	if h, ok := s.Histogram("idc_fast_loop_seconds"); !ok || h.Count != steps {
		t.Errorf("idc_fast_loop_seconds count = %d (ok=%v), want %d", h.Count, ok, steps)
	}
	if h, ok := s.Histogram("idc_slow_tick_seconds"); !ok || h.Count != wantTicks {
		t.Errorf("idc_slow_tick_seconds count = %d (ok=%v), want %d", h.Count, ok, wantTicks)
	}
}

func TestWithClockMakesLatencyDeterministic(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), tick: time.Millisecond}
	reg := obs.NewRegistry()
	cfg := baseConfig()
	cfg.SlowEvery = 1000 // single slow tick at step 0
	c, err := New(cfg, WithMetrics(reg), WithClock(clk.now), WithSampleEvery(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stepN(t, c, 2)
	s := reg.Snapshot()
	// Clock calls: step0 start, slowTick start, slowTick end (1 ms),
	// step0 end (3 ms), step1 start, step1 end (1 ms).
	fast, _ := s.Histogram("idc_fast_loop_seconds")
	if math.Abs(fast.Sum-0.004) > 1e-12 {
		t.Errorf("fast-loop latency sum = %g s, want 0.004", fast.Sum)
	}
	slow, _ := s.Histogram("idc_slow_tick_seconds")
	if math.Abs(slow.Sum-0.001) > 1e-12 {
		t.Errorf("slow-tick latency sum = %g s, want 0.001", slow.Sum)
	}
}

// TestDefaultRegistriesIsolated pins the satellite-1 fix: two controllers
// built without WithMetrics must not share instruments (the old default was
// the process-wide obs.Default(), which silently double-counted), and
// neither may leak counts into obs.Default().
func TestDefaultRegistriesIsolated(t *testing.T) {
	before, _ := obs.Default().Snapshot().Counter("idc_steps_total")
	a, err := New(baseConfig())
	if err != nil {
		t.Fatalf("New a: %v", err)
	}
	b, err := New(baseConfig())
	if err != nil {
		t.Fatalf("New b: %v", err)
	}
	if a.Metrics() == nil || b.Metrics() == nil {
		t.Fatal("default Metrics() is nil")
	}
	if a.Metrics() == b.Metrics() {
		t.Fatal("two default controllers share a registry")
	}
	if a.Metrics() == obs.Default() || b.Metrics() == obs.Default() {
		t.Fatal("default controller instruments into the process-wide registry")
	}
	stepN(t, a, 3)
	stepN(t, b, 5)
	if v, _ := a.Metrics().Snapshot().Counter("idc_steps_total"); v != 3 {
		t.Errorf("controller a counted %d steps, want 3 (cross-talk?)", v)
	}
	if v, _ := b.Metrics().Snapshot().Counter("idc_steps_total"); v != 5 {
		t.Errorf("controller b counted %d steps, want 5 (cross-talk?)", v)
	}
	if after, _ := obs.Default().Snapshot().Counter("idc_steps_total"); after != before {
		t.Errorf("obs.Default() idc_steps_total moved %d → %d during default-controller steps", before, after)
	}

	// Explicit sharing still aggregates.
	shared := obs.NewRegistry()
	c1, err := New(baseConfig(), WithMetrics(shared))
	if err != nil {
		t.Fatalf("New c1: %v", err)
	}
	c2, err := New(baseConfig(), WithMetrics(shared))
	if err != nil {
		t.Fatalf("New c2: %v", err)
	}
	stepN(t, c1, 2)
	stepN(t, c2, 2)
	if v, _ := shared.Snapshot().Counter("idc_steps_total"); v != 4 {
		t.Errorf("shared registry counted %d steps, want 4", v)
	}
}

// countingClock counts calls, proving the sampler gates the clock reads.
type countingClock struct {
	fakeClock
	calls int
}

func (c *countingClock) now() time.Time {
	c.calls++
	return c.fakeClock.now()
}

// TestSampleEveryDecimatesFastLoop pins the sampling contract end to end:
// at 1-in-4 only every fourth step reads the clock, yet the histogram's
// weighted count still reports the full step total.
func TestSampleEveryDecimatesFastLoop(t *testing.T) {
	clk := &countingClock{fakeClock: fakeClock{t: time.Unix(0, 0), tick: time.Millisecond}}
	reg := obs.NewRegistry()
	cfg := baseConfig()
	cfg.SlowEvery = 1000 // single slow tick at step 0
	c, err := New(cfg, WithMetrics(reg), WithClock(clk.now), WithSampleEvery(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const steps = 16
	stepN(t, c, steps)
	s := reg.Snapshot()
	fast, _ := s.Histogram("idc_fast_loop_seconds")
	if fast.Count != steps {
		t.Errorf("weighted fast-loop count = %d, want %d", fast.Count, steps)
	}
	// Sampled steps 0, 4, 8, 12 read the clock twice each; step 0 adds the
	// slow tick's own exact pair. Decimated steps read it zero times.
	const wantCalls = 4*2 + 2
	if clk.calls != wantCalls {
		t.Errorf("clock calls = %d, want %d (decimated steps must not read the clock)", clk.calls, wantCalls)
	}
	// Sampled durations: step 0 spans the slow tick (3 ticks), the other
	// three sampled steps span 1 tick; each carries weight 4.
	want := 4 * (0.003 + 3*0.001)
	if math.Abs(fast.Sum-want) > 1e-12 {
		t.Errorf("fast-loop latency sum = %g s, want %g", fast.Sum, want)
	}
	slow, _ := s.Histogram("idc_slow_tick_seconds")
	if slow.Count != 1 || math.Abs(slow.Sum-0.001) > 1e-12 {
		t.Errorf("slow-tick count/sum = %d/%g, want 1/0.001 (never decimated)", slow.Count, slow.Sum)
	}
}

// TestNewWithoutOptionsUnchanged pins the compatibility guarantee: a plain
// New(cfg) and a fully-optioned New(cfg, ...) produce bit-identical control
// behavior — options are strictly cross-cutting.
func TestNewWithoutOptionsUnchanged(t *testing.T) {
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4

	plain, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var traced bytes.Buffer
	optioned, err := New(cfg,
		WithMetrics(obs.NewRegistry()),
		WithTrace(&traced),
		WithClock(func() time.Time { return time.Unix(42, 0) }),
		WithObserver(ObserverFunc(func(*Telemetry) {})),
	)
	if err != nil {
		t.Fatalf("New with options: %v", err)
	}
	a := stepN(t, plain, 30)
	b := stepN(t, optioned, 30)
	for k := range a {
		if a[k].CumulativeCost != b[k].CumulativeCost {
			t.Fatalf("step %d: cumulative cost diverged %g vs %g", k, a[k].CumulativeCost, b[k].CumulativeCost)
		}
		for j := range a[k].U {
			if a[k].U[j] != b[k].U[j] {
				t.Fatalf("step %d: allocation diverged at %d", k, j)
			}
		}
		for j := range a[k].PowerWatts {
			if a[k].PowerWatts[j] != b[k].PowerWatts[j] {
				t.Fatalf("step %d: power diverged at idc %d", k, j)
			}
		}
	}
}
