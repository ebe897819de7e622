package simtime

import "time"

// ServeCosts are the service-time surrogates for the serving tier
// (internal/serve), the same way OpCosts are surrogates for the engine's
// inner loops. The load harness (internal/loadgen) uses them to run
// cluster-scale what-if experiments in virtual time: the simulator charges
// each simulated request the modeled duration below instead of running the
// real engine, so a 10k-request trace that would take hours of wall time
// replays in milliseconds — deterministically.
//
// The constants were calibrated against measurements of the serving tier on
// the development box as of PRs 7 and 9 (1 CPU, subdivision level 2); the
// engine has become several times faster since, and recalibrating them from
// cmd/bench is ROADMAP item 4(a):
//
//   - cold prepare (surface + octrees + Born) measured 717 ms at 2500
//     atoms  → ~287 µs/atom;
//   - warm E_pol re-evaluation measured 21.4 ms at 2500 atoms
//     → ~8.5 µs/atom;
//   - one batched sweep pose (compose + per-pose prepare + eval) measured
//     11.44 s / 64 poses on a 1250-atom complex → ~143 µs/atom·pose;
//   - stream session create measured 659 ms at 4000 atoms → ~165 µs/atom;
//   - incremental stream frame measured 43.5 ms at 10 moved atoms
//     → ~4.5 ms base + ~3.9 ms per moved atom.
//
// Linear-in-atoms surrogates are deliberately crude — the real costs carry
// an O(n log n) tree factor — but over the one order of magnitude of
// molecule sizes a trace spans they stay within the fidelity the control
// experiments need: the tuner reacts to queueing, not to the third
// significant digit of service time.
type ServeCosts struct {
	// ColdBuildPerAtomSec is the prepared-cache miss path: surface
	// sampling, octree construction and the Born phase, per atom.
	ColdBuildPerAtomSec float64
	// WarmEvalPerAtomSec is the cache-hit path: one E_pol evaluation over
	// an already-prepared problem, per atom.
	WarmEvalPerAtomSec float64
	// PosePerAtomSec is one pose inside a coalesced sweep batch (composed
	// complex surface + per-pose octree/Born rebuild + eval), per atom of
	// the complex.
	PosePerAtomSec float64
	// SessionCreatePerAtomSec is a /v1/stream session create (full prepare
	// plus the incremental engine's bookkeeping), per atom.
	SessionCreatePerAtomSec float64
	// FrameBaseSec + FramePerMoverSec model an incremental frame: a fixed
	// neighborhood-repair floor plus a per-moved-atom term.
	FrameBaseSec     float64
	FramePerMoverSec float64
	// RequestOverheadSec is the per-request envelope outside evaluation:
	// JSON decode/encode, admission, queue handoff.
	RequestOverheadSec float64
	// BatchOverheadSec is charged once per sweep-batch flush (timer fire,
	// shared-prepare bookkeeping, composer setup).
	BatchOverheadSec float64
}

// DefaultServeCosts returns the calibrated defaults described above.
func DefaultServeCosts() ServeCosts {
	return ServeCosts{
		ColdBuildPerAtomSec:     287e-6,
		WarmEvalPerAtomSec:      8.5e-6,
		PosePerAtomSec:          143e-6,
		SessionCreatePerAtomSec: 165e-6,
		FrameBaseSec:            4.5e-3,
		FramePerMoverSec:        3.9e-3,
		RequestOverheadSec:      0.3e-3,
		BatchOverheadSec:        0.1e-3,
	}
}

// dur converts modeled seconds to a time.Duration, flooring at zero.
func dur(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	return time.Duration(sec * float64(time.Second))
}

// Energy returns the modeled service time of one /v1/energy evaluation.
// cold selects the cache-miss path (full prepare before the evaluation).
func (sc ServeCosts) Energy(atoms int, cold bool) time.Duration {
	s := sc.RequestOverheadSec + sc.WarmEvalPerAtomSec*float64(atoms)
	if cold {
		s += sc.ColdBuildPerAtomSec * float64(atoms)
	}
	return dur(s)
}

// SweepBatch returns the modeled service time of one coalesced sweep
// flush: the shared receptor+ligand prepare (cold or cached), then every
// pose's composed-complex evaluation. atoms is the complex size, poses the
// total pose count across the batch's waiters.
func (sc ServeCosts) SweepBatch(atoms, poses int, cold bool) time.Duration {
	s := sc.BatchOverheadSec + sc.PosePerAtomSec*float64(atoms)*float64(poses)
	if cold {
		s += sc.ColdBuildPerAtomSec * float64(atoms)
	} else {
		s += sc.WarmEvalPerAtomSec * float64(atoms)
	}
	return dur(s)
}

// StreamCreate returns the modeled service time of a stream-session
// create (always a full prepare — sessions own their state).
func (sc ServeCosts) StreamCreate(atoms int) time.Duration {
	return dur(sc.RequestOverheadSec + sc.SessionCreatePerAtomSec*float64(atoms))
}

// StreamFrame returns the modeled service time of one incremental frame
// moving `movers` atoms.
func (sc ServeCosts) StreamFrame(movers int) time.Duration {
	return dur(sc.RequestOverheadSec + sc.FrameBaseSec + sc.FramePerMoverSec*float64(movers))
}
