// Package simtime is the virtual-time machine model that lets the benchmark
// harness regenerate the paper's cluster-scale figures on hardware we do
// not have (this repository is developed and tested on a single-core box;
// the paper used 12 × 12-core Westmere nodes on InfiniBand).
//
// The model never fabricates *results* — every engine executes the real
// algorithm on real data and produces the real energy. Only the *clock* is
// modeled: deterministic work counters from the treecode/baselines are
// converted to seconds with fixed per-operation costs, intra-node
// parallelism is turned into a makespan with the deterministic
// list-scheduling bound (sched.ListScheduleMakespan), and collectives are
// charged the t_s·log P + t_w·m costs of the paper's §IV-C analysis.
// Modeling constants are defined here in one place and documented.
package simtime

import (
	"math"

	"octgb/internal/core"
)

// Machine describes the modeled cluster node and interconnect. The default
// instance (Lonestar4) matches the paper's Table I.
type Machine struct {
	Name            string
	CoresPerNode    int
	SocketsPerNode  int
	CoreGHz         float64
	L3BytesPerSkt   int64 // shared L3 per socket
	RAMBytesPerNode int64
	// Interconnect α–β model (per collective): startup t_s and per-word
	// (float64) transfer time t_w.
	TsSec        float64
	TwSecPerWord float64
	// HybridOverhead models the paper's observed costs of multithreaded
	// ranks (§V-C and footnote 5): cilk-4.5.4 being less optimized than
	// MPI, no thread-affinity manager, and the cilk++/MPI interfacing
	// overhead — a multiplier on intra-rank compute when ThreadsPerRank
	// exceeds 1.
	HybridOverhead float64
	// StealOverheadSec is charged per spawned task to model scheduling.
	StealOverheadSec float64
}

// Lonestar4 returns the paper's Table I machine: 3.33 GHz hexa-core
// Westmere, 2 sockets × 6 cores, 12 MB L3 per socket, 24 GB/node, QDR
// InfiniBand (40 Gb/s ≈ 5 GB/s ⇒ 1.6 ns per 8-byte word, ~2 µs startup).
func Lonestar4() Machine {
	return Machine{
		Name:             "Lonestar4 (modeled)",
		CoresPerNode:     12,
		SocketsPerNode:   2,
		CoreGHz:          3.33,
		L3BytesPerSkt:    12 << 20,
		RAMBytesPerNode:  24 << 30,
		TsSec:            2e-6,
		TwSecPerWord:     1.6e-9,
		HybridOverhead:   1.20,
		StealOverheadSec: 2e-7,
	}
}

// OpCosts are the per-operation compute costs used to convert deterministic
// work counters into modeled seconds. They approximate instruction counts
// on the modeled 3.33 GHz Westmere core:
//
//   - a Born-integral near pair is ~15 flops with one division (no
//     transcendental): ~8 ns;
//   - an energy near pair has sqrt+exp: ~30 ns;
//   - a far-field (bin-pair) evaluation likewise has sqrt+exp: ~32 ns;
//   - a tree-node visit is pointer chasing + a distance: ~6 ns;
//   - a cutoff-pairwise GB-model pair (HCT/OBC/STILL descreening) has
//     division+exp or several divisions: ~35–55 ns depending on model;
//   - an nblist build step (cell hash + distance test) is ~7 ns.
type OpCosts struct {
	BornNearPairSec float64
	EpolNearPairSec float64
	FarEvalSec      float64
	NodeVisitSec    float64
	PairHCTSec      float64
	PairOBCSec      float64
	PairSTILLSec    float64
	PairVolR6Sec    float64
	NblistStepSec   float64
}

// DefaultOpCosts returns the calibrated defaults described above.
func DefaultOpCosts() OpCosts {
	return OpCosts{
		BornNearPairSec: 8e-9,
		EpolNearPairSec: 30e-9,
		FarEvalSec:      32e-9,
		NodeVisitSec:    6e-9,
		PairHCTSec:      40e-9,
		PairOBCSec:      55e-9,
		PairSTILLSec:    35e-9,
		PairVolR6Sec:    30e-9,
		NblistStepSec:   7e-9,
	}
}

// BornWork converts Born-phase counters to seconds.
func (oc OpCosts) BornWork(st core.Stats) float64 {
	return float64(st.NearPairs)*oc.BornNearPairSec +
		float64(st.FarEval)*oc.FarEvalSec +
		float64(st.NodesVisited)*oc.NodeVisitSec
}

// EpolWork converts energy-phase counters to seconds.
func (oc OpCosts) EpolWork(st core.Stats) float64 {
	return float64(st.NearPairs)*oc.EpolNearPairSec +
		float64(st.FarEval)*oc.FarEvalSec +
		float64(st.NodesVisited)*oc.NodeVisitSec
}

// CollectiveCost returns the modeled time of one collective over nranks
// ranks moving `words` float64 words per rank — the paper's
// t_s·log P + t_w·m·(P−1)/P form (Grama et al. Table 4.1, recursive
// doubling / ring hybrids). ranksPerNode models NIC contention: ranks on
// one node share a single network port, so a node with 12 single-threaded
// ranks moves 12 copies of the payload through the same link where the
// hybrid's 2 ranks move 2 — the mechanism behind the paper's observation
// that OCT_MPI's communication overhead exceeds OCT_MPI+CILK's (§V-B).
// The closed form is the same for both of Fig. 4's collectives.
func (m Machine) CollectiveCost(words, nranks, ranksPerNode int) float64 {
	if nranks <= 1 {
		return 0
	}
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	logP := math.Ceil(math.Log2(float64(nranks)))
	tw := m.TwSecPerWord * float64(ranksPerNode)
	frac := float64(nranks-1) / float64(nranks)
	return m.TsSec*logP + 2*tw*float64(words)*frac
}

// AlgoCollectiveCost returns the modeled time of one collective as the
// cluster layer actually executes it (cluster/collectives.go), stage by
// stage in the α–β model (t_s startup + t_w per word, Grama et al. Table
// 4.1): recursive-doubling allreduce (⌊log₂P⌋ exchanges of the full
// buffer, plus one fold out and one fold back when P is not a power of
// two) and ring allgatherv (P−1 startups but only m·(P−1)/P words moved per
// rank).
//
// words is the payload m in float64 words — for allgatherv the TOTAL
// gathered length, for allreduce the buffer length. ranksPerNode models
// NIC contention exactly as in CollectiveCost.
func (m Machine) AlgoCollectiveCost(kind string, words, nranks, ranksPerNode int) float64 {
	if nranks <= 1 {
		return 0
	}
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	P := float64(nranks)
	mw := float64(words)
	tw := m.TwSecPerWord * float64(ranksPerNode)
	floorLog := math.Floor(math.Log2(P))
	pow2 := math.Exp2(floorLog) == P

	if kind == "allgatherv" {
		return (P-1)*m.TsSec + tw*mw*(P-1)/P
	}
	// allreduce: recursive doubling
	c := floorLog * (m.TsSec + tw*mw)
	if !pow2 {
		c += 2 * (m.TsSec + tw*mw) // pre/post fold
	}
	return c
}

// MemoryPenalty models the cache/memory-pressure slowdown the paper's
// §IV-B argues makes pure-MPI replication lose to the hybrid for large
// inputs. The per-node working set is bytesPerRank × ranksPerNode:
//
//   - while it fits in the node's total L3, no penalty;
//   - beyond L3 the penalty grows logarithmically (working sets stream
//     from DRAM; each doubling adds a fixed miss-cost share, +12 %);
//   - beyond node RAM the run pages: steep linear penalty.
func (m Machine) MemoryPenalty(bytesPerRank int64, ranksPerNode int) float64 {
	total := float64(bytesPerRank) * float64(ranksPerNode)
	l3 := float64(m.L3BytesPerSkt * int64(m.SocketsPerNode))
	if total <= l3 {
		return 1
	}
	p := 1 + 0.12*math.Log2(total/l3)
	ram := float64(m.RAMBytesPerNode)
	if total > ram {
		p *= 1 + 9*(total/ram-1) // paging cliff
	}
	return p
}

// Clocks tracks per-rank virtual time for one simulated run.
type Clocks struct {
	T []float64
}

// NewClocks returns zeroed clocks for n ranks.
func NewClocks(n int) *Clocks { return &Clocks{T: make([]float64, n)} }

// Advance adds dt seconds of compute to one rank's clock.
func (c *Clocks) Advance(rank int, dt float64) { c.T[rank] += dt }

// Elapsed returns the current makespan: the slowest rank's clock.
func (c *Clocks) Elapsed() float64 {
	var max float64
	for _, t := range c.T {
		if t > max {
			max = t
		}
	}
	return max
}
