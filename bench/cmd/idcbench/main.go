// Command idcbench runs the closed-loop tick benchmark on one workload and
// prints its metrics, or compares two recorded result sets.
//
//	idcbench -workload fig4-smooth -seed 1 -seconds 25 -trace 0
//	idcbench -workload volatile-shave -trace 1 -spans spans.jsonl
//	idcbench -workload grid-c8n6 -record results/run.json
//	idcbench -compare A.json B.json
//
// A run prints its settings as one JSON line, then, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics; a human-readable table goes to standard error. It
// exits 1 when an output check fails. -trace 1 reports the per-layer
// metrics of a replayed episode instead of the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "fig4-smooth", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 10, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
		spans    = flag.String("spans", "", "traced run: write spans as JSONL here (default .bench_build/spans-<workload>.jsonl)")
		record   = flag.String("record", "", "append the run's settings and result to this results file")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments: A B")
		spec     = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds (with -compare)")
		list     = flag.Bool("list", false, "list the workloads")
	)
	flag.Parse()

	switch {
	case *list:
		for _, w := range bench.Workloads() {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
		return 0
	case *compare:
		return runCompare(*spec, flag.Args())
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "idcbench: usage: idcbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	w, err := bench.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 2
	}
	opt := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	var spanFile *os.File
	if opt.Trace {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.Name+".jsonl")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "idcbench:", err)
			return 2
		}
		if spanFile, err = os.Create(path); err != nil {
			fmt.Fprintln(os.Stderr, "idcbench:", err)
			return 2
		}
		opt.Spans = spanFile
	}
	st, res, err := bench.Run(w, opt)
	if spanFile != nil {
		if cerr := spanFile.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing spans: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 1
	}
	defs := bench.EndToEnd
	if opt.Trace {
		defs = bench.PerLayer
	}
	writeTable(defs, st, res)
	if *record != "" {
		if err := bench.AppendResult(*record, bench.Record{Settings: st, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "idcbench: record:", err)
			return 1
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]bench.Settings{"settings": st}); err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTable(defs []bench.MetricDef, st bench.Settings, res bench.Result) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d episodes", st.Workload, st.Seed, st.Episodes)
	if st.Replays > 0 {
		fmt.Fprintf(os.Stderr, ", %d replays", st.Replays)
	}
	fmt.Fprintf(os.Stderr, ", %d of %d ticks failed\n", res.Failed, res.Attempted)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
	}
	for _, c := range st.Checks {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", c)
	}
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "idcbench: usage: idcbench -compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 2
	}
	a, err := bench.LoadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 2
	}
	b, err := bench.LoadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "idcbench:", err)
		return 2
	}
	if bench.WriteComparison(os.Stdout, bench.Compare(spec, a, b)) {
		return 1
	}
	return 0
}
