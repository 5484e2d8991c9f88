// Command idcsim runs a closed-loop scenario of the dynamic electricity-
// cost controller against the per-step optimal baseline and emits per-step
// CSV records.
//
// Usage:
//
//	idcsim -steps 140 -ts 30 -start-hour 6 -smooth 6
//	idcsim -budgets 5.13,10.26,4.275        # peak shaving, budgets in MW
//	idcsim -diurnal -steps 2880             # a full synthetic day
//	demand-producer | idcsim -feed - -steps 1000   # live JSONL demand feed
//
// -feed drives the portals from a JSONL sample stream (one
// {"seq":k,"values":[...]} object per line, "-" for stdin), so the sim can
// be driven live by another process; the run ends cleanly with the partial
// series if the stream ends early. -stale-ticks N tolerates N consecutive
// price-model failures on held prices (the controller reports
// "stale-price" mode) before giving up.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// SIGINT/SIGTERM cancel the context rather than killing the process, so
	// an interrupted run still flushes its trace and emits the partial
	// series instead of dropping everything on the floor.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "idcsim:", err)
		os.Exit(1)
	}
}

// run keeps the historical signature for tests and non-interactive callers.
func run(args []string, out io.Writer) error {
	return runCtx(context.Background(), args, out)
}

func runCtx(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("idcsim", flag.ContinueOnError)
	steps := fs.Int("steps", 140, "fast-loop steps to simulate")
	ts := fs.Float64("ts", 30, "sampling period in seconds")
	startHour := fs.Int("start-hour", 6, "price-trace hour of step 0")
	slowEvery := fs.Int("slow-every", 4, "fast steps per slow (reference) tick")
	smooth := fs.Float64("smooth", 6, "MPC smoothing weight (R)")
	predH := fs.Int("pred-horizon", 8, "MPC prediction horizon β1")
	ctrlH := fs.Int("ctrl-horizon", 3, "MPC control horizon β2")
	budgetsFlag := fs.String("budgets", "", "per-IDC budgets in MW, comma separated (peak shaving)")
	diurnal := fs.Bool("diurnal", false, "drive portals with the daily experiment's diurnal workload (one day = 86400/ts steps) instead of Table I")
	workloadTrace := fs.String("workload-trace", "", "replay a recorded rate trace (one rate per line or CSV) across the portals, scaled by the Table I proportions")
	feedPath := fs.String("feed", "", "drive portal demands from a JSONL sample stream, one {\"seq\":k,\"values\":[...]} per line ('-' = stdin)")
	staleTicks := fs.Int("stale-ticks", 0, "tolerate this many consecutive slow ticks on held prices when the price model fails (0 = fail fast)")
	priceTrace := fs.String("price-trace", "", "load hourly price traces from CSV (header: hour,region,...) instead of the embedded ones")
	seed := fs.Int64("seed", 1, "seed for the diurnal workload")
	stochastic := fs.Bool("stochastic-prices", false, "use the bid-stack stochastic price model")
	noBaseline := fs.Bool("no-baseline", false, "skip the optimal-method baseline")
	configPath := fs.String("config", "", "load the scenario from a JSON file (overrides other flags)")
	format := fs.String("format", "csv", "output format: csv or json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := fs.String("metrics", "", "serve Prometheus /metrics and /debug/vars on this address (e.g. :9090)")
	traceFile := fs.String("trace", "", "write a JSONL per-step telemetry trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, perr := prof.Start(*cpuProfile, *memProfile)
	if perr != nil {
		return perr
	}
	defer func() {
		if serr := stopProf(); err == nil {
			err = serr
		}
	}()
	var emit func(io.Writer, *sim.Result) error
	switch *format {
	case "csv":
		emit = writeCSV
	case "json":
		emit = writeJSON
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	var metricsReg *obs.Registry
	if *metricsAddr != "" {
		reg, closeMetrics, merr := serveMetrics(*metricsAddr)
		if merr != nil {
			return merr
		}
		defer closeMetrics()
		metricsReg = reg
	}
	var traceW io.Writer
	if *traceFile != "" {
		f, terr := os.Create(*traceFile)
		if terr != nil {
			return fmt.Errorf("trace: %w", terr)
		}
		bw := bufio.NewWriter(f)
		// Flush even on the cancellation path: the partial trace is the point.
		defer func() {
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		traceW = bw
	}

	if *configPath != "" {
		file, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		sc, err := file.Scenario()
		if err != nil {
			return err
		}
		sc.TraceWriter = traceW
		sc.Metrics = metricsReg
		closeFeed, ferr := applyFeedFlags(&sc, *feedPath, *staleTicks)
		if ferr != nil {
			return ferr
		}
		rerr := emitMaybePartial(ctx, sc, emit, out)
		if cerr := closeFeed(); rerr == nil {
			rerr = cerr
		}
		return rerr
	}

	top := idc.PaperTopology()
	var budgets []float64
	if *budgetsFlag != "" {
		parts := strings.Split(*budgetsFlag, ",")
		if len(parts) != top.N() {
			return fmt.Errorf("need %d budgets, got %d", top.N(), len(parts))
		}
		budgets = make([]float64, len(parts))
		for j, p := range parts {
			mw, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("budget %q: %w", p, err)
			}
			budgets[j] = mw * 1e6
		}
	}

	var model price.Model = price.NewEmbeddedModel()
	if *priceTrace != "" {
		f, err := os.Open(*priceTrace)
		if err != nil {
			return fmt.Errorf("price trace: %w", err)
		}
		traces, err := price.ReadTraces(f)
		f.Close()
		if err != nil {
			return err
		}
		model = price.NewTraceModel(traces...)
	}
	if *stochastic {
		base, ok := model.(*price.TraceModel)
		if !ok {
			base = price.NewEmbeddedModel()
		}
		model = price.NewBidStackModel(base, price.BidStackConfig{
			Sigma: 2, Seed: *seed,
		})
	}

	sc := sim.Scenario{
		Name:         "idcsim",
		Topology:     top,
		Prices:       model,
		Steps:        *steps,
		Ts:           *ts,
		StartHour:    *startHour,
		SlowEvery:    *slowEvery,
		MPC:          ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: *smooth, PredHorizon: *predH, CtrlHorizon: *ctrlH},
		Budgets:      budgets,
		SkipBaseline: *noBaseline,
		TraceWriter:  traceW,
		Metrics:      metricsReg,
	}
	if *workloadTrace != "" {
		f, err := os.Open(*workloadTrace)
		if err != nil {
			return fmt.Errorf("workload trace: %w", err)
		}
		tr, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		// Split the recorded total across portals in Table I proportions.
		var total float64
		for _, l := range workload.TableI() {
			total += l
		}
		gens := make([]workload.Generator, top.C())
		for i, l := range workload.TableI() {
			g, err := tr.Scaled(l / total)
			if err != nil {
				return err
			}
			gens[i] = g
		}
		portals, err := workload.NewPortals(gens...)
		if err != nil {
			return err
		}
		sc.DemandSource = feed.FromFunc(portals.Demands)
	} else if *diurnal {
		// The daily experiment's synthetic day, one day long at this -ts.
		if !(*ts > 0) || math.IsInf(*ts, 0) {
			return fmt.Errorf("-diurnal needs a positive -ts, got %g", *ts)
		}
		portals, err := workload.DailyPortals(int(math.Round(86400 / *ts)), *seed)
		if err != nil {
			return err
		}
		sc.DemandSource = feed.FromFunc(portals.Demands)
	}

	closeFeed, ferr := applyFeedFlags(&sc, *feedPath, *staleTicks)
	if ferr != nil {
		return ferr
	}
	defer func() {
		if cerr := closeFeed(); err == nil {
			err = cerr
		}
	}()
	return emitMaybePartial(ctx, sc, emit, out)
}

// applyFeedFlags wires -feed (a JSONL demand-sample stream; "-" = stdin)
// and -stale-ticks (the price-feed hold budget, core.FeedPolicy) into sc.
// The returned closer releases the feed file; it is a no-op for stdin or
// when -feed is unset.
func applyFeedFlags(sc *sim.Scenario, feedPath string, staleTicks int) (func() error, error) {
	if staleTicks < 0 {
		return nil, fmt.Errorf("-stale-ticks %d: want a non-negative tick count", staleTicks)
	}
	closer := func() error { return nil }
	if feedPath != "" {
		if sc.DemandSource != nil {
			return nil, errors.New("-feed conflicts with -diurnal, -workload-trace and config-file demands")
		}
		var r io.Reader
		if feedPath == "-" {
			r = bufio.NewReader(os.Stdin)
		} else {
			f, err := os.Open(feedPath)
			if err != nil {
				return nil, fmt.Errorf("feed: %w", err)
			}
			closer = f.Close
			r = bufio.NewReader(f)
		}
		sc.DemandSource = feed.FromJSONL(r)
	}
	if staleTicks > 0 {
		sc.FeedPolicy = core.FeedPolicy{MaxPriceStaleTicks: staleTicks}
	}
	return closer, nil
}

// emitMaybePartial runs sc under ctx and emits its result. A run cut short
// by cancellation (SIGINT/SIGTERM) still emits the steps recorded so far —
// flagged on stderr — and exits cleanly.
func emitMaybePartial(ctx context.Context, sc sim.Scenario, emit func(io.Writer, *sim.Result) error, out io.Writer) error {
	res, err := sim.RunContext(ctx, sc)
	if err != nil {
		if res == nil || !errors.Is(err, context.Canceled) {
			return err
		}
		fmt.Fprintf(os.Stderr, "idcsim: interrupted after %d of %d steps; emitting partial results\n",
			res.Control.Steps(), sc.Steps)
	}
	return emit(out, res)
}

// serveMetrics exposes a fresh instrument registry over HTTP — /metrics
// (Prometheus text) and /debug/vars (expvar JSON) — and returns it so the
// scenario's controller can be wired into it (controllers default to
// private registries; sharing is explicit via Scenario.Metrics).
//
//lint:nocx the server lives until the returned stop closure is called
func serveMetrics(addr string) (*obs.Registry, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	reg := obs.NewRegistry()
	reg.PublishExpvar("idc")
	srv := &http.Server{Handler: reg.ServeMux()}
	//lint:ignore goleak Serve returns ErrServerClosed when the stop closure calls srv.Close
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	fmt.Fprintf(os.Stderr, "idcsim: serving metrics on http://%s/metrics\n", ln.Addr())
	return reg, func() { srv.Close() }, nil
}

// jsonSeries is the JSON projection of one method's record.
type jsonSeries struct {
	TimeMin        []float64            `json:"timeMin"`
	Hours          []int                `json:"hours"`
	PowerMW        map[string][]float64 `json:"powerMW"`
	Servers        map[string][]int     `json:"servers"`
	RefPowerMW     map[string][]float64 `json:"refPowerMW,omitempty"`
	Prices         map[string][]float64 `json:"prices"`
	CostRate       []float64            `json:"costRatePerHour"`
	CumulativeCost []float64            `json:"cumulativeCost"`
}

type jsonResult struct {
	Name    string      `json:"name"`
	Control jsonSeries  `json:"control"`
	Optimal *jsonSeries `json:"optimal,omitempty"`
}

func toJSONSeries(res *sim.Result, s *sim.Series, withRefs bool) jsonSeries {
	top := res.Scenario.Topology
	js := jsonSeries{
		TimeMin:        s.TimeMin,
		Hours:          s.Hours,
		PowerMW:        make(map[string][]float64, top.N()),
		Servers:        make(map[string][]int, top.N()),
		Prices:         make(map[string][]float64, top.N()),
		CostRate:       s.CostRate,
		CumulativeCost: s.CumulativeCost,
	}
	if withRefs {
		js.RefPowerMW = make(map[string][]float64, top.N())
	}
	for j := 0; j < top.N(); j++ {
		name := top.IDC(j).Name
		mw := make([]float64, len(s.PowerWatts[j]))
		for k, w := range s.PowerWatts[j] {
			mw[k] = w / 1e6
		}
		js.PowerMW[name] = mw
		js.Servers[name] = s.Servers[j]
		js.Prices[name] = s.Prices[j]
		if withRefs {
			ref := make([]float64, len(s.RefPowerWatts[j]))
			for k, w := range s.RefPowerWatts[j] {
				ref[k] = w / 1e6
			}
			js.RefPowerMW[name] = ref
		}
	}
	return js
}

func writeJSON(out io.Writer, res *sim.Result) error {
	doc := jsonResult{
		Name:    res.Scenario.Name,
		Control: toJSONSeries(res, res.Control, true),
	}
	if res.Optimal != nil {
		opt := toJSONSeries(res, res.Optimal, false)
		doc.Optimal = &opt
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writeCSV(out io.Writer, res *sim.Result) error {
	top := res.Scenario.Topology
	cols := []string{"minute", "hour"}
	for j := 0; j < top.N(); j++ {
		name := top.IDC(j).Name
		cols = append(cols,
			"ctl_power_mw_"+name, "ctl_servers_"+name, "ctl_ref_mw_"+name, "price_"+name)
	}
	cols = append(cols, "ctl_cost_rate", "ctl_cum_cost")
	if res.Optimal != nil {
		for j := 0; j < top.N(); j++ {
			name := top.IDC(j).Name
			cols = append(cols, "opt_power_mw_"+name, "opt_servers_"+name)
		}
		cols = append(cols, "opt_cost_rate", "opt_cum_cost")
	}
	if _, err := fmt.Fprintln(out, strings.Join(cols, ",")); err != nil {
		return err
	}
	ctl := res.Control
	for k := 0; k < ctl.Steps(); k++ {
		row := []string{
			fmtG(ctl.TimeMin[k]), strconv.Itoa(ctl.Hours[k]),
		}
		for j := 0; j < top.N(); j++ {
			row = append(row,
				fmtG(ctl.PowerWatts[j][k]/1e6),
				strconv.Itoa(ctl.Servers[j][k]),
				fmtG(ctl.RefPowerWatts[j][k]/1e6),
				fmtG(ctl.Prices[j][k]),
			)
		}
		row = append(row, fmtG(ctl.CostRate[k]), fmtG(ctl.CumulativeCost[k]))
		if res.Optimal != nil {
			opt := res.Optimal
			for j := 0; j < top.N(); j++ {
				row = append(row, fmtG(opt.PowerWatts[j][k]/1e6), strconv.Itoa(opt.Servers[j][k]))
			}
			row = append(row, fmtG(opt.CostRate[k]), fmtG(opt.CumulativeCost[k]))
		}
		if _, err := fmt.Fprintln(out, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
