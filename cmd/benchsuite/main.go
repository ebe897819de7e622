// Command benchsuite regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded outputs).
//
// Usage:
//
//	benchsuite -fig all                      # everything, laptop-scale defaults
//	benchsuite -fig 5,6 -scale 1             # full-size BTV scalability
//	benchsuite -fig 8 -suite 84              # full ZDock-like suite
//	benchsuite -fig ablations                # design-choice ablations
//	benchsuite -fig env,packages             # Tables I and II
//	benchsuite -fig 11 -scale 1 -exact       # full CMV with naive reference
//	benchsuite -csv out/                     # additionally write CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"octgb/internal/bench"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figures: env,packages,5,6,7,8,9,10,11,ablations or 'all'")
		scale   = flag.Float64("scale", 0.1, "size scale for the CMV/BTV stand-ins (1 = paper's full sizes)")
		suite   = flag.Int("suite", 21, "number of ZDock-like suite molecules (paper: 84)")
		runs    = flag.Int("runs", 20, "jittered repetitions for figure 6")
		exact   = flag.Bool("exact", false, "force naive exact reference even on very large molecules")
		csvDir  = flag.String("csv", "", "directory to also write per-figure CSV files into")
		quiet   = flag.Bool("q", false, "suppress progress logging")
		maxAtom = flag.Int("maxatoms", 0, "filter suite molecules above this atom count (0 = none)")
	)
	flag.Parse()

	cfg := bench.Config{
		Scale:     *scale,
		SuiteSize: *suite,
		Runs:      *runs,
		Exact:     *exact,
		MaxAtoms:  *maxAtom,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	r := bench.NewRunner(cfg)

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	emit := func(name string, tabs ...*bench.Table) {
		if !all && !want[name] {
			return
		}
		for _, t := range tabs {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "write:", err)
				os.Exit(1)
			}
			if *csvDir != "" {
				if _, err := t.WriteCSVFile(*csvDir); err != nil {
					fmt.Fprintln(os.Stderr, "csv:", err)
					os.Exit(1)
				}
			}
		}
	}

	run := func(name string, fn func() *bench.Table) {
		if all || want[name] {
			emit(name, fn())
		}
	}
	run("env", r.TableEnv)
	run("packages", r.TablePackages)
	run("5", r.Fig5Scalability)
	run("6", r.Fig6MinMax)
	run("7", r.Fig7Engines)
	if all || want["8"] {
		a, b := r.Fig8Baselines()
		emit("8", a, b)
	}
	run("9", r.Fig9Energy)
	run("10", r.Fig10Epsilon)
	run("11", r.Fig11CMV)
	if all || want["ablations"] {
		emit("ablations",
			r.AblationWorkDivision(),
			r.AblationOctreeVsNblist(),
			r.AblationEnergyBinning(),
			r.AblationStealing(),
			r.AblationStaticBalance(),
			r.AblationDataDistribution(),
			r.AblationCriterion(),
		)
	}
}
