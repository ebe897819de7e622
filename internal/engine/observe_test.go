package engine

import (
	"strings"
	"testing"

	"octgb/internal/core"
	"octgb/internal/obs"
)

// TestObserveOffParity pins the acceptance criterion that attaching an
// observer changes nothing numerically: the deterministic engine
// configurations produce bitwise-identical energies and Born radii with
// Observe nil and Observe set. (Multi-thread runs are excluded: worker
// scheduling already reorders their floating-point reductions run to run,
// observer or not.)
func TestObserveOffParity(t *testing.T) {
	pr := testProblem(400, 17)
	for _, tc := range []struct {
		name string
		k    Kind
		o    Options
	}{
		{"cilk-1thread", OctCilk, Options{Threads: 1}},
		{"mpi-3ranks", OctMPI, Options{Ranks: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := RunReal(pr, tc.k, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			on := tc.o
			on.Observe = obs.New()
			got, err := RunReal(pr, tc.k, on)
			if err != nil {
				t.Fatal(err)
			}
			if got.Energy != off.Energy {
				t.Errorf("energy differs with observer: %v vs %v", got.Energy, off.Energy)
			}
			for i := range off.BornRadii {
				if got.BornRadii[i] != off.BornRadii[i] {
					t.Fatalf("BornRadii[%d] differs with observer: %v vs %v", i, got.BornRadii[i], off.BornRadii[i])
				}
			}
			// The observed run must actually have produced phase metrics.
			var sb strings.Builder
			if err := on.Observe.Reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), "octgb_engine_phase_seconds") {
				t.Error("observed run produced no phase histograms")
			}
			if !strings.Contains(sb.String(), "octgb_sched_executed_total") {
				t.Error("observed run produced no scheduler counters")
			}
		})
	}
}

// TestObservedDistributedRecordsCollectives checks the cluster layer's
// collective instrumentation flows through the in-process group wiring.
func TestObservedDistributedRecordsCollectives(t *testing.T) {
	pr := testProblem(300, 23)
	ob := obs.New()
	if _, err := RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: 2, Observe: ob}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ob.Reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"octgb_cluster_collective_seconds",
		"octgb_cluster_collective_bytes_total",
		`kind="allreduce"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered metrics", want)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("engine+cluster metrics render invalid exposition: %v", err)
	}
	// Spans from both layers landed in the trace ring.
	names := map[string]bool{}
	for _, sp := range ob.Trace.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"engine.rank", "engine.born", "cluster.allreduce"} {
		if !names[want] {
			t.Errorf("missing span %q in trace", want)
		}
	}
}

// TestLeafEvalHotPathAllocs pins the acceptance criterion that the
// leaf-evaluation hot paths perform zero allocations per call — the
// instrumentation lives at phase granularity, never inside the kernels:
// the near and far ranges of a dual list, a held root's whole list, and
// the streamed leaf-driven traversal over a reused tile.
func TestLeafEvalHotPathAllocs(t *testing.T) {
	pr := testProblem(300, 7)
	p, err := Prepare(pr, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	es := core.NewEpolSolver(p.bs.TA, pr.Charges, p.BornRadii, core.EpolConfig{Eps: 0.9})
	list := es.BuildEpolDualList()
	if len(list.Near) == 0 || len(list.Far) == 0 {
		t.Fatalf("list of %d near and %d far entries", len(list.Near), len(list.Far))
	}
	held := es.BuildDualList(4)
	root := held.Root(0)
	var tile core.InteractionList
	var sink float64
	es.StreamEpolLeaves(&tile, 0, es.NumLeaves(), &sink) // grows the tile
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"EvalEpolNearRange", func() { sink += es.EvalEpolNearRange(list, 0, len(list.Near)) }},
		{"EvalEpolFarRange", func() { sink += es.EvalEpolFarRange(list, 0, len(list.Far)) }},
		{"EvalEpolList of a held root", func() {
			raw, _ := es.EvalEpolList(&root)
			sink += raw
		}},
		{"StreamEpolLeaves", func() { es.StreamEpolLeaves(&tile, 0, es.NumLeaves(), &sink) }},
	} {
		if allocs := testing.AllocsPerRun(50, c.run); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", c.name, allocs)
		}
	}
	_ = sink
}
