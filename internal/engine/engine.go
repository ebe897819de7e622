// Package engine assembles the treecode (internal/core), the work-division
// schemes (internal/partition), the shared-memory runtime (internal/sched)
// and the distributed substrate (internal/cluster) into the four programs
// of the paper's Table II:
//
//	OCT_CILK      — shared-memory dual-tree algorithm of [6] (cilk++ style)
//	OCT_MPI       — distributed-memory, single-threaded ranks
//	OCT_MPI+CILK  — hybrid: MPI ranks × work-stealing threads
//	Naive         — exact Eq. 2/Eq. 4 reference
//
// Every engine can run in two modes: a real run (goroutine ranks + real
// threads, measured wall time — correct on any machine) and a virtual-time
// run (the same algorithm executed once, with per-rank clocks assembled
// from deterministic work counters by internal/simtime — how the paper's
// cluster-scale figures are regenerated on hardware we do not have).
package engine

import (
	"fmt"
	"time"

	"octgb/internal/core"
	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/surface"
)

// Kind identifies one of the octree engines (baselines live in
// internal/baselines).
type Kind int

const (
	// OctCilk is the shared-memory dual-tree engine ([6]'s algorithm).
	OctCilk Kind = iota
	// OctMPI is the distributed engine: P single-threaded ranks.
	OctMPI
	// OctMPICilk is the hybrid engine: P ranks × p threads.
	OctMPICilk
	// Naive is the exact quadratic reference.
	Naive
)

func (k Kind) String() string {
	switch k {
	case OctCilk:
		return "OCT_CILK"
	case OctMPI:
		return "OCT_MPI"
	case OctMPICilk:
		return "OCT_MPI+CILK"
	case Naive:
		return "Naive"
	}
	return "unknown"
}

// Options configures an engine run.
type Options struct {
	// Ranks is the number of MPI processes P (OctCilk and Naive use 1).
	Ranks int
	// Threads is the thread count p inside each rank (OctMPI uses 1).
	Threads int
	// BornEps and EpolEps are the two approximation parameters
	// (paper default 0.9 / 0.9).
	BornEps, EpolEps float64
	// Math selects exact or approximate sqrt/exp.
	Math gb.MathMode
	// LeafSize is the octree leaf capacity (0 = default).
	LeafSize int
	// CriterionPower selects the Born well-separatedness criterion
	// (see core.BornConfig; 0 = default).
	CriterionPower int
	// CommTimeout is the failure-detection budget for distributed runs:
	// callers that build a TCP transport (cmd/epolnode, the cluster fault
	// matrix) pass it through to cluster.WithCommTimeout, where a peer
	// silent past the timeout surfaces as cluster.ErrRankFailed from every
	// collective instead of hanging the run. Zero (the default) disables
	// failure detection: reads block forever. The engine itself never arms
	// timers — liveness is the transport's job (heartbeats run at a third
	// of this timeout, so slow compute phases do not trip it).
	CommTimeout time.Duration
	// Observe attaches an observability sink: per-rank phase latency
	// histograms (octgb_engine_phase_seconds), scheduler activity counters
	// (octgb_sched_*_total) and per-phase trace spans are recorded into it
	// during real runs. Nil (the default) disables instrumentation entirely:
	// the hot paths see only nil checks — no allocations, no atomics — and
	// produce bitwise-identical energies (pinned by TestObserveOffParity).
	Observe *obs.Observer
	// WeightedStatic enables explicit work-weighted static balancing
	// across ranks: leaf segments are cut by measured per-leaf work
	// instead of leaf count. This implements the "explicit load
	// balancing" direction of the paper's §VI future work (virtual-time
	// engines only; the count-based split is the paper's published
	// scheme).
	WeightedStatic bool
}

func (o Options) withDefaults(k Kind) Options {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.BornEps == 0 {
		o.BornEps = 0.9
	}
	if o.EpolEps == 0 {
		o.EpolEps = 0.9
	}
	switch k {
	case OctCilk, Naive:
		o.Ranks = 1
	case OctMPI:
		o.Threads = 1
	}
	return o
}

// bornConfig and epolConfig are the one spelling of the solver
// configurations every engine, Prepare and the session build from.
func (o Options) bornConfig() core.BornConfig {
	return core.BornConfig{Eps: o.BornEps, CriterionPower: o.CriterionPower, LeafSize: o.LeafSize}
}

func (o Options) epolConfig() core.EpolConfig {
	return core.EpolConfig{Eps: o.EpolEps, Math: o.Math}
}

// Validate rejects inconsistent option combinations early.
func (o Options) Validate() error {
	if o.Ranks < 0 || o.Threads < 0 {
		return fmt.Errorf("engine: negative ranks/threads")
	}
	if o.BornEps < 0 || o.EpolEps < 0 {
		return fmt.Errorf("engine: negative epsilon")
	}
	return nil
}

// Problem bundles a molecule with its sampled surface so several engines
// and configurations can be run against identical inputs.
type Problem struct {
	Mol     *molecule.Molecule
	QPts    []surface.QPoint
	Charges []float64 // original order, extracted once
}

// NewProblem samples the molecular surface and prepares shared inputs.
func NewProblem(mol *molecule.Molecule, so surface.Options) *Problem {
	return newProblem(mol, surface.Sample(mol, so))
}

// NewProblemParallel is NewProblem with the surface sampling spread over a
// work-stealing pool — identical output, useful for very large molecules
// on real multicore machines.
func NewProblemParallel(mol *molecule.Molecule, so surface.Options, workers int) *Problem {
	return newProblem(mol, surface.SampleParallel(mol, so, workers))
}

func newProblem(mol *molecule.Molecule, qpts []surface.QPoint) *Problem {
	p := &Problem{Mol: mol, QPts: qpts}
	p.Charges = make([]float64, mol.N())
	for i := range mol.Atoms {
		p.Charges[i] = mol.Atoms[i].Charge
	}
	return p
}
