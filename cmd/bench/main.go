// Command bench is this repository's benchmark: four seeded closed-loop
// workloads driven from one process, end-to-end metrics measured with
// tracing off, and a separate traced pass that times calls into each
// module's public functions and emits the per-layer metrics. The contract
// (command, workloads, metric names, units, regression bounds) is
// BENCHMARK.json at the repository root; README.md in this directory says
// what each workload and metric is for.
//
//	go run ./cmd/bench                                  # all workloads, both passes
//	go run ./cmd/bench --workload warm_serve --seed 7 --seconds 30 --trace 0
//	go run ./cmd/bench -compare A.json B.json           # apply the bounds to two result files
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"octgb/internal/obs"
)

// maxP caps the workers/clients the harness uses: the reference box has two
// cores and the numbers must stay comparable on anything up to four.
const maxP = 4

// traceCapacity holds every span of a traced pass (harness op and stage
// spans plus the program's own), so the ring never wraps inside a run.
const traceCapacity = 1 << 18

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured seconds per pass")
		trace    = flag.Int("trace", -1, "0 = end-to-end pass (tracing off), 1 = traced per-layer pass, -1 = both")
		scale    = flag.String("scale", "full", "input sizes: full, or tiny (300-atom smoke sizes, op-count bound)")
		out      = flag.String("out", "", "result file; a run is appended to its runs list (default .bench_out/<workload>-seed<n>.json)")
		traceOut = flag.String("trace-file", "", "Chrome trace_event file written by the traced pass (default .bench_out/<workload>-seed<n>.trace.json)")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark contract, read by -compare for the per-metric bounds")
		compare  = flag.Bool("compare", false, "compare two result files (arguments A.json B.json) under the contract's bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two result files, got %d", flag.NArg()))
		}
		code, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}

	sz, err := sizesFor(*scale, parallelism())
	if err != nil {
		fatal(err)
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workload}
	}
	if *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("--trace must be 0, 1 or -1 (both)"))
	}

	cfg := &config{seed: *seed, seconds: *seconds, p: parallelism(), sz: sz}
	hdr := newHeader(cfg, *scale)
	hdr.print(os.Stdout)

	ok := true
	for _, name := range names {
		run := runRecord{Header: hdr, Workload: name, Claim: nil}
		var line contractLine
		if *trace != 1 {
			res, err := endToEndPass(name, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			run.EndToEnd = res
			line = res.line()
		}
		if *trace != 0 {
			ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(traceCapacity)}
			res, err := tracedPass(name, cfg, ob)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			run.PerLayer = res
			if *trace == 1 {
				line = res.line()
			}
			path := defaultPath(*traceOut, name, *seed, ".trace.json")
			if err := writeTrace(path, ob.Trace); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n", path, len(ob.Trace.Spans()))
		}
		run.print(os.Stdout)
		path := defaultPath(*out, name, *seed, ".json")
		if err := appendRun(path, run); err != nil {
			fatal(err)
		}
		fmt.Printf("result: %s\n", path)
		ok = ok && line.Correct
		buf, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(buf))
	}
	if !ok {
		os.Exit(1)
	}
}

// parallelism is P: the workers and clients every workload may use.
func parallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p > maxP {
		p = maxP
	}
	return p
}

func defaultPath(flagValue, workload string, seed int64, suffix string) string {
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d%s", workload, seed, suffix))
}

func writeTrace(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
