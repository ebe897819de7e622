package simtime

import (
	"math"
	"testing"

	"octgb/internal/core"
)

func TestNICContentionScalesComm(t *testing.T) {
	m := Lonestar4()
	// 12 ranks per node move 6× the hybrid's 2-ranks-per-node volume
	// through the shared port; the t_w term must scale accordingly.
	c2 := m.CollectiveCost(1<<20, 144, 2)
	c12 := m.CollectiveCost(1<<20, 144, 12)
	if c12 <= c2 {
		t.Fatalf("contention not modeled: %v vs %v", c2, c12)
	}
	ratio := (c12 - m.TsSec*8) / (c2 - m.TsSec*8)
	if math.Abs(ratio-6) > 0.2 {
		t.Errorf("contention ratio %v, want ≈6", ratio)
	}
}

func TestHybridOverheadInRange(t *testing.T) {
	m := Lonestar4()
	// The paper reports cilk overheads that are noticeable but bounded;
	// the modeled multiplier must stay in a credible band.
	if m.HybridOverhead < 1.0 || m.HybridOverhead > 1.5 {
		t.Errorf("HybridOverhead %v out of band", m.HybridOverhead)
	}
}

func TestMemoryPenaltyMonotoneInBytes(t *testing.T) {
	m := Lonestar4()
	prev := 0.0
	for _, mb := range []int64{1, 10, 100, 1000, 4000} {
		p := m.MemoryPenalty(mb<<20, 12)
		if p < prev {
			t.Fatalf("penalty not monotone at %d MB: %v < %v", mb, p, prev)
		}
		prev = p
	}
}

func TestCostsBornVsEpolDominance(t *testing.T) {
	oc := DefaultOpCosts()
	// Transcendental-heavy entries must cost more than the plain ones.
	if oc.EpolNearPairSec <= oc.BornNearPairSec {
		t.Error("energy pairs should cost more than Born pairs")
	}
	if oc.PairOBCSec <= oc.PairHCTSec {
		t.Error("OBC pair should cost more than HCT")
	}
	if oc.PairVolR6Sec >= oc.PairHCTSec {
		t.Error("volume-r6 pair (no transcendental) should be cheaper than HCT")
	}
}

func TestWorkLinearInCounters(t *testing.T) {
	oc := DefaultOpCosts()
	a := oc.EpolWork(core.Stats{NearPairs: 100})
	b := oc.EpolWork(core.Stats{NearPairs: 200})
	if math.Abs(b-2*a) > 1e-18 {
		t.Errorf("work not linear: %v vs %v", a, b)
	}
}
