package simtime

import (
	"testing"

	"octgb/internal/core"
)

func TestLonestar4Sanity(t *testing.T) {
	m := Lonestar4()
	if m.CoresPerNode != 12 || m.SocketsPerNode != 2 {
		t.Errorf("node shape: %+v", m)
	}
	if m.RAMBytesPerNode != 24<<30 {
		t.Errorf("RAM: %d", m.RAMBytesPerNode)
	}
}

func TestCollectiveCostGrowsWithRanksAndWords(t *testing.T) {
	m := Lonestar4()
	if m.CollectiveCost(1000, 1, 1) != 0 {
		t.Error("single rank should communicate nothing")
	}
	c2 := m.CollectiveCost(1000, 2, 2)
	c16 := m.CollectiveCost(1000, 16, 2)
	if c16 <= c2 {
		t.Errorf("cost did not grow with ranks: %v vs %v", c2, c16)
	}
	w1 := m.CollectiveCost(1000, 8, 2)
	w2 := m.CollectiveCost(1000000, 8, 2)
	if w2 <= w1 {
		t.Errorf("cost did not grow with words: %v vs %v", w1, w2)
	}
}

func TestAlgoCollectiveCost(t *testing.T) {
	m := Lonestar4()
	for _, kind := range []string{"allreduce", "allgatherv"} {
		if m.AlgoCollectiveCost(kind, 1000, 1, 1) != 0 {
			t.Errorf("%s: single rank should be free", kind)
		}
	}
	// Non-power-of-two allreduce pays the pre/post fold on top of the
	// power-of-two exchange.
	pow2 := m.AlgoCollectiveCost("allreduce", 1000, 8, 1)
	nonPow2 := m.AlgoCollectiveCost("allreduce", 1000, 9, 1)
	if nonPow2 <= pow2 {
		t.Errorf("non-pow2 fold not charged: P=9 %v vs P=8 %v", nonPow2, pow2)
	}
	// Ring allgatherv is bandwidth-optimal: the per-word cost tends to
	// t_w·m (not t_w·m·log P) as P grows.
	g8 := m.AlgoCollectiveCost("allgatherv", 1<<20, 8, 1)
	g64 := m.AlgoCollectiveCost("allgatherv", 1<<20, 64, 1)
	if g64 > 1.2*g8 {
		t.Errorf("ring allgatherv not bandwidth-bound: P=64 %v vs P=8 %v", g64, g8)
	}
}

func TestMemoryPenaltyRegimes(t *testing.T) {
	m := Lonestar4()
	// Fits in L3: no penalty.
	if p := m.MemoryPenalty(1<<20, 12); p != 1 {
		t.Errorf("in-cache penalty %v", p)
	}
	// DRAM regime: mild, monotone in ranks-per-node (the paper's
	// replication argument: 12 ranks × same data worse than 2 ranks).
	p2 := m.MemoryPenalty(700<<20, 2)
	p12 := m.MemoryPenalty(700<<20, 12)
	if !(1 < p2 && p2 < p12) {
		t.Errorf("replication penalties: p2=%v p12=%v", p2, p12)
	}
	if p12 > 3 {
		t.Errorf("DRAM penalty %v unreasonably steep", p12)
	}
	// Paging cliff beyond 24 GB/node.
	pg := m.MemoryPenalty(3<<30, 12) // 36 GB total
	if pg < 3 {
		t.Errorf("paging penalty %v too soft", pg)
	}
}

func TestOpCostsWorkConversion(t *testing.T) {
	oc := DefaultOpCosts()
	st := core.Stats{NearPairs: 1e6, FarEval: 1e5, NodesVisited: 1e5}
	b := oc.BornWork(st)
	e := oc.EpolWork(st)
	if b <= 0 || e <= 0 {
		t.Fatal("non-positive work")
	}
	// Energy pairs are costlier (sqrt+exp) than Born pairs.
	if e <= b {
		t.Errorf("EpolWork %v should exceed BornWork %v for same counters", e, b)
	}
	if oc.BornWork(core.Stats{}) != 0 {
		t.Error("zero stats should cost zero")
	}
}

func TestClocks(t *testing.T) {
	c := NewClocks(4)
	c.Advance(0, 1.0)
	c.Advance(2, 3.0)
	if c.Elapsed() != 3.0 {
		t.Errorf("elapsed %v", c.Elapsed())
	}
}
