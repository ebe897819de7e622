package engine

import (
	"fmt"
	"testing"

	"octgb/internal/gb"
)

// The engine-level flat-vs-recursive equivalence suite: every real engine
// must produce the same energies, radii and treecode work counters whether
// it runs the default two-phase interaction-list path or the recursive
// fused traversals (UseFlatKernels Off) — OctCilk included, at any thread
// count: both of its paths complete the same frontier pairs and add the
// expansion's own visits.

func runBoth(t *testing.T, pr *Problem, k Kind, o Options) (flat, rec RealReport) {
	t.Helper()
	o.UseFlatKernels = On
	flat, err := RunReal(pr, k, o)
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	o.UseFlatKernels = Off
	rec, err = RunReal(pr, k, o)
	if err != nil {
		t.Fatalf("recursive run: %v", err)
	}
	return flat, rec
}

func TestFlatMatchesRecursiveAcrossEngines(t *testing.T) {
	pr := testProblem(900, 71)
	cases := []struct {
		kind Kind
		o    Options
	}{
		{OctCilk, Options{Threads: 1}},
		{OctCilk, Options{Threads: 4}},
		{OctMPI, Options{Ranks: 3}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3, Math: gb.Approximate}},
		{OctMPICilk, Options{Ranks: 2, Threads: 2, Division: AtomBased}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/P=%d/p=%d", c.kind, c.o.Ranks, c.o.Threads), func(t *testing.T) {
			flat, rec := runBoth(t, pr, c.kind, c.o)
			if e := relErr(flat.Energy, rec.Energy); e > 1e-12 {
				t.Errorf("energy: flat %v vs recursive %v (rel %v)", flat.Energy, rec.Energy, e)
			}
			for i := range rec.BornRadii {
				if e := relErr(flat.BornRadii[i], rec.BornRadii[i]); e > 1e-12 {
					t.Fatalf("radius[%d]: flat %v vs recursive %v", i, flat.BornRadii[i], rec.BornRadii[i])
				}
			}
			if flat.BornStats != rec.BornStats || flat.EpolStats != rec.EpolStats {
				t.Errorf("stats: flat %+v/%+v vs recursive %+v/%+v",
					flat.BornStats, flat.EpolStats, rec.BornStats, rec.EpolStats)
			}
		})
	}
}

// TestFlatDistributedDataEnergy: the NaN-poisoned distributed-data engine
// must agree between the two paths — the flat kernels respect the same
// residency contract as the recursion.
func TestFlatDistributedDataEnergy(t *testing.T) {
	pr := testProblem(600, 72)
	var o Options
	o.UseFlatKernels = On
	flat, err := RunDistributedDataEnergy(pr, 3, o)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	o.UseFlatKernels = Off
	rec, err := RunDistributedDataEnergy(pr, 3, o)
	if err != nil {
		t.Fatalf("recursive: %v", err)
	}
	if e := relErr(flat, rec); e > 1e-12 {
		t.Errorf("distributed-data energy: flat %v vs recursive %v (rel %v)", flat, rec, e)
	}
}

// TestToggleResolution pins the Toggle semantics: Auto means on.
func TestToggleResolution(t *testing.T) {
	if !Auto.enabled(true) || Auto.enabled(false) {
		t.Error("Auto must resolve to the default")
	}
	if !On.enabled(false) || Off.enabled(true) {
		t.Error("On/Off must override the default")
	}
}
