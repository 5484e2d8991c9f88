package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// episode is one sim.Run of a workload. It is the run's demand source and
// its observer: a tick's time runs from Next returning to ObserveStep being
// entered, which is exactly Controller.Step's body.
type episode struct {
	top     *idc.Topology
	demands [][]float64
	next    int
	nextAt  time.Time

	// tickUS[k] is tick k's Step wall time in microseconds, and
	// intervalUS[k] (k ≥ 1) the time from ObserveStep k−1 to ObserveStep k:
	// one whole iteration of sim.Run's loop.
	tickUS     []float64
	intervalUS []float64
	firstObs   time.Time
	lastObs    time.Time
	observed   int
	// failed counts ticks whose outputs broke an invariant.
	failed int
	// hash folds every tick's outputs; episodes of one workload must agree.
	hash uint64
	// record keeps every tick's telemetry in kept (for the replay).
	record bool
	kept   []*core.Telemetry
	// heapAt is the tick whose ObserveStep collects garbage and reads the
	// live heap into liveHeap; -1 for none.
	heapAt   int
	liveHeap uint64
}

// Next implements feed.Source over the pre-generated demand vectors.
func (e *episode) Next(ctx context.Context) (feed.Sample, error) {
	if err := ctx.Err(); err != nil {
		return feed.Sample{}, err
	}
	if e.next >= len(e.demands) {
		return feed.Sample{}, feed.ErrEnd
	}
	k := e.next
	e.next++
	smp := feed.Sample{Seq: k, Values: e.demands[k]}
	e.nextAt = time.Now()
	return smp, nil
}

// ObserveStep implements core.Observer: it closes the tick's timing window
// first, then checks the tick's outputs.
func (e *episode) ObserveStep(tel *core.Telemetry) {
	now := time.Now()
	k := tel.Step
	if k == 0 {
		e.firstObs = now
	}
	if k != e.observed || k >= len(e.demands) {
		e.failed++
		return
	}
	e.tickUS[k] = micros(now.Sub(e.nextAt))
	if k > 0 {
		e.intervalUS[k] = micros(now.Sub(e.lastObs))
	}
	e.lastObs = now
	e.observed++
	if !tickOK(e.top, e.demands[k], tel) {
		e.failed++
	}
	e.hash = hashTelemetry(e.hash, tel)
	if e.record {
		e.kept = append(e.kept, tel)
	}
	if k == e.heapAt {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.liveHeap = ms.HeapAlloc
	}
}

// tickOK checks one tick's invariants: workload conservation (ΣⱼUᵢⱼ = Lᵢ to
// 1e-6 relative), nonnegative allocation, the M/M/n latency bound and
// server counts within each fleet.
func tickOK(top *idc.Topology, demands []float64, tel *core.Telemetry) bool {
	c, n := top.C(), top.N()
	if len(tel.U) != top.NU() || len(tel.Servers) != n || len(tel.LatencySeconds) != n || len(tel.PowerWatts) != n {
		return false
	}
	for _, u := range tel.U {
		if !(u >= 0) {
			return false
		}
	}
	for i := 0; i < c; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += tel.U[top.Index(i, j)]
		}
		if !(math.Abs(s-demands[i]) <= 1e-6*math.Max(1, demands[i])) {
			return false
		}
	}
	for j := 0; j < n; j++ {
		d := top.IDC(j)
		if tel.Servers[j] < 0 || tel.Servers[j] > d.TotalServers {
			return false
		}
		if !(tel.LatencySeconds[j] <= d.DelayBound*(1+1e-9)) {
			return false
		}
	}
	return true
}

// fnv64 folds one 64-bit word into an FNV-1a style hash.
func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

func hashTelemetry(h uint64, tel *core.Telemetry) uint64 {
	for _, v := range tel.U {
		h = fnv64(h, math.Float64bits(v))
	}
	for _, s := range tel.Servers {
		h = fnv64(h, uint64(s))
	}
	for _, w := range tel.PowerWatts {
		h = fnv64(h, math.Float64bits(w))
	}
	for _, p := range tel.Prices {
		h = fnv64(h, math.Float64bits(p))
	}
	return fnv64(h, math.Float64bits(tel.CumulativeCost))
}

// hashSeries folds the optimal baseline's recorded series, which the
// observer never sees.
func hashSeries(h uint64, s *sim.Series) uint64 {
	if s == nil {
		return h
	}
	for _, v := range s.CumulativeCost {
		h = fnv64(h, math.Float64bits(v))
	}
	for _, row := range s.PowerWatts {
		for _, v := range row {
			h = fnv64(h, math.Float64bits(v))
		}
	}
	return h
}

// episodeResult is what one sim.Run leaves behind.
type episodeResult struct {
	ep       *episode
	res      *sim.Result
	counters obs.Snapshot
	setupS   float64
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	hash     uint64
	err      error
}

// runEpisode runs one timed episode. Memory statistics are read just
// outside sim.Run, so they count the user path alone.
func runEpisode(in *Inputs, record bool, heapAt int) episodeResult {
	ep := &episode{
		top:        in.Scenario.Topology,
		demands:    in.Demands,
		tickUS:     make([]float64, len(in.Demands)),
		intervalUS: make([]float64, len(in.Demands)),
		hash:       fnvOffset,
		record:     record,
		heapAt:     heapAt,
	}
	if record {
		ep.kept = make([]*core.Telemetry, 0, len(in.Demands))
	}
	sc := in.scenario()
	sc.DemandSource = ep
	sc.Observer = ep
	reg := obs.NewRegistry()
	sc.Metrics = reg

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sim.Run(sc)
	runtime.ReadMemStats(&after)

	out := episodeResult{
		ep:       ep,
		res:      res,
		counters: reg.Snapshot(),
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcs:      after.NumGC - before.NumGC,
		err:      err,
	}
	if ep.observed > 0 {
		out.setupS = ep.firstObs.Sub(start).Seconds()
	}
	if res != nil {
		out.hash = hashSeries(ep.hash, res.Optimal)
	}
	return out
}

// Quality holds the control results of one episode.
type Quality struct {
	// CostUSD is the control method's final cumulative cost.
	CostUSD float64
	// CostVsOptimal is CostUSD over the optimal baseline's final cost.
	CostVsOptimal float64
	// PowerTVMW is Σₖ |P_fleet(k) − P_fleet(k−1)|, the smoothing objective.
	PowerTVMW float64
	// PeakPowerMW is maxₖ P_fleet(k), the peak-shaving objective.
	PeakPowerMW float64
	// BudgetExcessMWh is Σₖ,ⱼ max(0, Pⱼ(k) − Bⱼ)·Ts.
	BudgetExcessMWh float64
	// PowerSumMW is Σₖ,ⱼ Pⱼ(k), the figure benchmarks' MW-sum checksum.
	PowerSumMW float64
}

func quality(res *sim.Result, budgets []float64, tsSeconds float64) Quality {
	var q Quality
	ctl := res.Control
	steps := ctl.Steps()
	if steps == 0 {
		return q
	}
	q.CostUSD = ctl.CumulativeCost[steps-1]
	if opt := res.Optimal; opt != nil && opt.Steps() == steps {
		q.CostVsOptimal = q.CostUSD / opt.CumulativeCost[steps-1]
	}
	prev := 0.0
	for k := 0; k < steps; k++ {
		var fleet float64
		for j, row := range ctl.PowerWatts {
			w := row[k]
			fleet += w
			if j < len(budgets) && budgets[j] > 0 && w > budgets[j] {
				q.BudgetExcessMWh += (w - budgets[j]) * tsSeconds / 3.6e9
			}
		}
		q.PowerSumMW += fleet / 1e6
		q.PeakPowerMW = math.Max(q.PeakPowerMW, fleet/1e6)
		if k > 0 {
			q.PowerTVMW += math.Abs(fleet-prev) / 1e6
		}
		prev = fleet
	}
	return q
}

// Measurement is the outcome of a workload's episodes: one untimed
// episode of the reference path, then timed episodes of the run's path.
type Measurement struct {
	// In is the run's path, Ref the reference path (nil when the
	// measurement skipped it).
	In, Ref *Inputs
	// Quality is the reference episode's control result, and LiveHeap the
	// heap in use after a collection in its last ObserveStep.
	Quality  Quality
	LiveHeap uint64
	// TickUS is the per-tick-index minimum Step time over the timed
	// episodes, in microseconds, without tick 0 (the cold tick counted in
	// set-up).
	TickUS []float64
	est    indexMin
	// IntervalUS is the per-index minimum of the loop iteration ending at
	// each tick (ObserveStep to ObserveStep), without tick 0.
	IntervalUS []float64
	interval   indexMin
	// Episodes counts the timed episodes.
	Episodes int
	// SetupS is every timed episode's set-up time: sim.Run entry to the
	// first ObserveStep.
	SetupS []float64
	// Mallocs, Bytes and GCs are summed over the timed episodes, whose
	// TimedTicks ticks they cover.
	Mallocs, Bytes uint64
	GCs            uint32
	TimedTicks     int
	// FirstHash folds the first timed episode's series; every later one
	// must repeat it. Mismatched counts those that do not.
	FirstHash  uint64
	Mismatched int
	// Counters is the instrument registry of the last timed episode.
	Counters obs.Snapshot
	// Attempted and Failed count ticks, the reference episode's included;
	// a Step error fails the rest of its episode.
	Attempted, Failed int
	// Err is the first Step error, if any.
	Err error
}

// minEpisodes is the fewest timed episodes a measurement runs.
const minEpisodes = 3

// calWarmReps and calEpisodeReps are the calibration kernel runs at the
// start of a measurement and before each episode or replay (~0.1 ms each).
const (
	calWarmReps    = 20
	calEpisodeReps = 5
)

// Measure runs the reference episode, when ref is not nil, and then timed
// episodes of in for at least budget and at least minEpisodes episodes,
// probing the calibration kernel before each episode. The per-index
// minimum needs many episodes: on a busy machine the mean of the minima
// still fell by 8% from 10 to 20 episodes, and by 2% from 40 to 80.
func Measure(in, ref *Inputs, budget time.Duration, cal *calibrator) *Measurement {
	n := len(in.Demands)
	m := &Measurement{In: in, Ref: ref, est: newIndexMin(n), interval: newIndexMin(n)}
	if ref != nil && !m.reference() {
		return m.finish()
	}
	deadline := time.Now().Add(budget)
	cal.probe(calWarmReps)
	for m.Episodes < minEpisodes || time.Now().Before(deadline) {
		cal.probe(calEpisodeReps)
		if !m.episode() {
			break
		}
	}
	return m.finish()
}

// complete counts an episode's ticks and reports whether it ran them all,
// recording the error that ended it otherwise.
func (m *Measurement) complete(r episodeResult, ticks int) bool {
	m.Attempted += ticks
	m.Failed += r.ep.failed + ticks - r.ep.observed
	if r.err == nil && r.ep.observed == ticks {
		return true
	}
	if r.err == nil {
		r.err = fmt.Errorf("bench: episode ended after %d of %d ticks", r.ep.observed, ticks)
	}
	m.Err = r.err
	return false
}

// reference runs the untimed reference episode, which yields the quality
// metrics and the live heap.
func (m *Measurement) reference() bool {
	ticks := len(m.Ref.Demands)
	r := runEpisode(m.Ref, false, ticks-1)
	if !m.complete(r, ticks) {
		return false
	}
	m.Quality = quality(r.res, m.Ref.Scenario.Budgets, m.Ref.Scenario.Ts)
	m.LiveHeap = r.ep.liveHeap
	return true
}

// episode runs one timed episode and folds it in; it reports false when
// the episode failed to complete, which ends the measurement.
func (m *Measurement) episode() bool {
	ticks := len(m.In.Demands)
	r := runEpisode(m.In, false, -1)
	m.Episodes++
	if !m.complete(r, ticks) {
		return false
	}
	m.est.add(r.ep.tickUS)
	m.interval.add(r.ep.intervalUS)
	m.SetupS = append(m.SetupS, r.setupS)
	m.Counters = r.counters
	m.Mallocs += r.mallocs
	m.Bytes += r.bytes
	m.GCs += r.gcs
	m.TimedTicks += ticks
	if m.Episodes == 1 {
		m.FirstHash = r.hash
	} else if r.hash != m.FirstHash {
		m.Mismatched++
	}
	return true
}

func (m *Measurement) finish() *Measurement {
	if len(m.est) > 1 {
		m.TickUS = append([]float64(nil), m.est[1:]...)
		m.IntervalUS = append([]float64(nil), m.interval[1:]...)
	}
	return m
}
