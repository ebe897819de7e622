package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"octgb/internal/obs"
)

const specFile = "../../BENCHMARK.json"

func tinyConfig(t *testing.T) *config {
	t.Helper()
	sz, err := sizesFor("tiny", parallelism())
	if err != nil {
		t.Fatal(err)
	}
	return &config{seed: 5, seconds: 1, p: parallelism(), sz: sz}
}

// checkMetrics asserts that the pass emitted exactly the contract's metrics,
// each finite and in the contract's unit.
func checkMetrics(t *testing.T, pass string, want []metricSpec, got *passResult) {
	t.Helper()
	if got.Failed != 0 || got.Attempted == 0 || !got.Correct {
		t.Errorf("%s: attempted=%d failed=%d correct=%v invalid=%v", pass, got.Attempted, got.Failed, got.Correct, got.Invalid)
	}
	for _, w := range want {
		m, ok := got.Metrics.byKey[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is in BENCHMARK.json but was not emitted", pass, w.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", pass, w.Name, m.Value)
		case m.Unit == "" || m.Unit != w.Unit:
			t.Errorf("%s: metric %s emitted in %q, BENCHMARK.json says %q", pass, w.Name, m.Unit, w.Unit)
		}
	}
	if len(got.Metrics.names) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", pass, len(got.Metrics.names), len(want))
	}
}

// TestSmoke runs all four workloads and their traced passes at the tiny
// scale: schema and wiring, no timing assertions beyond the waterfall's
// own self-check.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	cfg := tinyConfig(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e2e, err := endToEndPass(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end-to-end", sp.EndToEnd, e2e)
			for _, w := range sp.EndToEnd {
				if e2e.Metrics.byKey[w.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", w.Name)
				}
			}

			ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(traceCapacity)}
			layers, err := tracedPass(name, cfg, ob)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "per-layer", sp.PerLayer, layers)
			if c := layers.Metrics.byKey["engine.waterfall_cover"].Value; c < 0.90 || c > 1.10 {
				t.Errorf("engine.waterfall_cover = %.3f, want 0.90–1.10", c)
			}
			checkSpanTrees(t, ob.Trace.Spans())
		})
	}
}

// checkSpanTrees asserts every harness stage span hangs off an op span.
func checkSpanTrees(t *testing.T, spans []obs.Span) {
	t.Helper()
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	stages, ops := 0, 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "op:") {
			ops++
			if s.Parent != 0 {
				t.Errorf("op span %s has parent %d, want a root", s.Name, s.Parent)
			}
		}
		if !strings.HasPrefix(s.Name, "stage:") {
			continue
		}
		stages++
		root := s
		for root.Parent != 0 {
			parent, ok := byID[root.Parent]
			if !ok {
				t.Errorf("stage span %s: ancestor %d was never recorded", s.Name, root.Parent)
				break
			}
			root = parent
		}
		if !strings.HasPrefix(root.Name, "op:") {
			t.Errorf("stage span %s is rooted at %q, want an op span", s.Name, root.Name)
		}
	}
	if stages == 0 || ops == 0 {
		t.Errorf("traced pass recorded %d stage spans under %d op spans", stages, ops)
	}
}

// TestSpecMatchesCommand pins the contract file to what the command emits,
// so neither can change without the other.
func TestSpecMatchesCommand(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the command declares %d", len(sp.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if got := sp.PerLayer[i]; got.Name != lm[0] || got.Unit != lm[1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the command declares %s [%s]", i, got.Name, got.Unit, lm[0], lm[1])
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s [s, lower is better]")
	}
}

func writeRuns(t *testing.T, path string, values ...float64) {
	t.Helper()
	for _, v := range values {
		ms := newMetricSet()
		ms.set("op_ms_p50", "ms", v, 10)
		run := runRecord{Workload: "cold_solve", EndToEnd: &passResult{Attempted: 10, Correct: true, Metrics: ms}}
		if err := appendRun(path, run); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, values ...float64) string {
		p := filepath.Join(dir, name)
		writeRuns(t, p, values...)
		return p
	}
	base := file("base.json", 100, 101, 99)
	for _, tc := range []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", file("same.json", 100, 102, 98), 0, "ok"},
		{"slower", file("slower.json", 130, 131, 129), 1, "regressed"},
		{"faster", file("faster.json", 70, 71, 69), 0, "ok"},
		{"noisy", file("noisy.json", 80, 100, 120), 1, "unresolved"},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, specFile, base, tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.verdict+" (bound") {
			t.Errorf("%s: exit %d, want %d with verdict %q; output:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}

	// A metric on one side only is an error, not a row.
	other := filepath.Join(dir, "other.json")
	ms := newMetricSet()
	ms.set("work_per_s", "1/s", 3, 10)
	if err := appendRun(other, runRecord{Workload: "cold_solve", EndToEnd: &passResult{Attempted: 10, Correct: true, Metrics: ms}}); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, specFile, base, other); err == nil {
		t.Error("comparing files with different metrics: want an error")
	}
}
