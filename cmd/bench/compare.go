package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles applies the contract's per-metric bounds to two result
// files — A the baseline, B the candidate — and prints one row per
// (workload, end-to-end metric): ok, regressed (B's median worse than A's
// by more than the bound) or unresolved (either side's own run-to-run
// spread is wider than the bound, so the comparison cannot tell; setup_s is
// exempt from that test). A metric present on one side only is an error.
// The exit code is 1 when any row is not ok.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (int, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := endToEndValues(pathA)
	if err != nil {
		return 0, err
	}
	b, err := endToEndValues(pathB)
	if err != nil {
		return 0, err
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return 0, fmt.Errorf("%s/%s is in %s but not in %s", k.workload, k.metric, pathA, pathB)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return 0, fmt.Errorf("%s/%s is in %s but not in %s", k.workload, k.metric, pathB, pathA)
		}
	}

	fmt.Fprintf(w, "%-12s %-18s %5s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "runs", "A median", "B median", "change", "spreadA", "spreadB", "verdict")
	bad := 0
	for _, name := range workloadNames {
		for _, mt := range sp.EndToEnd {
			k := pairKey{name, mt.Name}
			va, ok := a[k]
			if !ok {
				continue
			}
			vb := b[k]
			ma, mb := median(va), median(vb)
			// worse is the share of A's median by which B is worse.
			worse := (mb - ma) / ma
			if mt.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			// setup_s is three set-ups, not seconds of rounds: like the
			// benchmark driver, hold its median to the bound but not its spread.
			case mt.Name != "setup_s" && (sa > mt.Bound || sb > mt.Bound):
				verdict = "unresolved"
			case worse > mt.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-18s %2d/%-2d %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s (bound %.0f%%)\n",
				name, mt.Name, len(va), len(vb), ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, verdict, 100*mt.Bound)
		}
	}
	if bad > 0 {
		return 1, nil
	}
	return 0, nil
}

type pairKey struct{ workload, metric string }

// endToEndValues collects every run's end-to-end metric values from one
// result file.
func endToEndValues(path string) (map[pairKey][]float64, error) {
	rf, err := readResults(path)
	if err != nil {
		return nil, err
	}
	out := map[pairKey][]float64{}
	for _, run := range rf.Runs {
		if run.EndToEnd == nil {
			continue
		}
		for name, m := range run.EndToEnd.Metrics.byKey {
			k := pairKey{run.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end results", path)
	}
	return out, nil
}

// spread is the run-to-run spread of a metric as a share of its median:
// the interquartile distance with four or more runs, the full range with
// fewer, zero with one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}
