package engine

import (
	"math"
	"testing"

	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

func TestDistributedDataEnergyMatches(t *testing.T) {
	pr := testProblem(900, 201)
	ref, err := RunReal(pr, OctMPI, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, P := range []int{1, 2, 3, 7} {
		e, err := RunDistributedDataEnergy(pr, P, Options{})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if math.IsNaN(e) {
			t.Fatalf("P=%d: NaN energy (non-resident data touched)", P)
		}
		if rel := math.Abs(e-ref.Energy) / math.Abs(ref.Energy); rel > 1e-9 {
			t.Errorf("P=%d: distributed-data energy %v vs replicated %v (rel %v)", P, e, ref.Energy, rel)
		}
	}
}

func TestDistributedDataEnergyCapsid(t *testing.T) {
	// Shell geometry exercises long-range far-field paths across the
	// hollow interior where no ghosts are needed.
	mol := molecule.GenerateCapsid("ddshell", 1500, 6, 202)
	pr := NewProblem(mol, surface.Default())
	ref, err := RunReal(pr, OctMPI, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := RunDistributedDataEnergy(pr, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(e-ref.Energy) / math.Abs(ref.Energy); rel > 1e-9 {
		t.Errorf("capsid: %v vs %v", e, ref.Energy)
	}
}

func TestDistributedDataGhostSufficiencyIsTight(t *testing.T) {
	// Restrict WITHOUT ghosts must poison the near field: the energy of a
	// rank that skips its ghost exchange is NaN. This proves the NaN
	// sentinel actually guards the design (i.e. the main test above is
	// not vacuously passing).
	pr := testProblem(700, 203)
	sm := BuildSimModel(pr, OctMPI, Options{}, simtime.DefaultOpCosts())
	es := sm.es
	segs := 4
	leaves := es.T.Leaves()
	per := len(leaves) / segs
	owned := leaves[:per]
	restricted := es.Restrict(owned)
	var raw float64
	var tile core.InteractionList
	restricted.StreamEpolLeaves(&tile, 0, per, &raw)
	if !math.IsNaN(raw) {
		t.Error("rank without ghosts produced a finite energy — poisoning ineffective or ghost analysis vacuous")
	}
}
