// Package baselines builds the five comparison programs of the paper's
// Table II out of the library's substrates (internal/gbmodels +
// internal/nblist + the cluster/time models):
//
//	Amber 12   — HCT radii, cutoff-free GB (Amber's implicit-solvent
//	             default), MPI atom division, sander-style generic kernels
//	Gromacs    — HCT radii, cutoff-free GB, MPI, fast SIMD-style kernels
//	NAMD 2.9   — OBC radii, cutoff-free GB, MPI, Charm++ framework overhead
//	Tinker 6.0 — STILL radii, O(N²), shared-memory only, quadratic memory
//	GBr⁶       — volume-r⁶ radii, O(N²), serial, quadratic memory
//
// The stand-ins genuinely execute the pairwise GB computation these
// packages perform (radii + energy), so their energies and work counters
// are real; only their identification with the closed-source originals is
// a modeling step, with per-package kernel/framework factors documented on
// each Spec. Memory limits reproduce the out-of-memory behaviour the paper
// reports for Tinker (>12k atoms) and GBr⁶ (>13k atoms).
package baselines

import (
	"fmt"

	"octgb/internal/gbmodels"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
)

// Package identifies a modeled comparison program.
type Package int

const (
	AmberLike Package = iota
	GromacsLike
	NAMDLike
	TinkerLike
	GBr6Like
)

// Spec describes one modeled package.
type Spec struct {
	Name     string
	Model    gbmodels.Model
	Cutoff   float64 // descreening/energy cutoff (0 = none)
	Parallel string  // "MPI", "OpenMP", "serial"
	// MaxAtoms is the size beyond which the real package ran out of
	// memory in the paper's experiments (0 = no limit observed).
	MaxAtoms int
	// MaxRanks caps MPI width (Amber's 256-core limit, paper footnote 6).
	MaxRanks int
	// KernelFactor scales per-pair cost relative to the reference HCT/OBC
	// kernel costs in simtime.OpCosts: Gromacs' SIMD kernels run the same
	// arithmetic substantially faster; Tinker's generic loops slower.
	KernelFactor float64
	// FrameworkFactor models per-step runtime-system overhead (NAMD's
	// patch/Charm++ machinery, measured in the paper by differencing two
	// runs, still leaves per-step overhead).
	FrameworkFactor float64
	// SharedOnly packages cannot use more than one rank.
	SharedOnly bool
	// Serial packages use exactly one core.
	Serial bool
	// QuadraticMemory packages hold dense per-pair state (the reason the
	// paper sees Tinker and GBr⁶ run out of memory); the others stream
	// pairs with O(N) memory.
	QuadraticMemory bool
}

// Spec returns the package description.
func (p Package) Spec() Spec {
	switch p {
	case AmberLike:
		// Amber GB (sander) evaluates the full all-pairs GB by default
		// (cut=∞ for implicit solvent); the kernel/framework factors model
		// sander's generic per-pair force-field machinery (~4× the bare
		// arithmetic), calibrated so GBr⁶'s serial analytical kernel lands
		// near parity with Amber on 12 cores as in the paper's Figure 8b.
		return Spec{Name: "Amber 12 (modeled)", Model: gbmodels.HCT, Cutoff: 0,
			Parallel: "MPI", MaxRanks: 256, KernelFactor: 2.0, FrameworkFactor: 2.0}
	case GromacsLike:
		// Gromacs' hand-tuned kernels run the same all-pairs arithmetic
		// several times faster than sander.
		return Spec{Name: "Gromacs 4.5.3 (modeled)", Model: gbmodels.HCT, Cutoff: 0,
			Parallel: "MPI", KernelFactor: 0.7, FrameworkFactor: 1.0}
	case NAMDLike:
		// OBC pairs cost more than HCT, and the Charm++ patch framework
		// adds per-step overhead — NAMD trails Amber as in Figure 8.
		return Spec{Name: "NAMD 2.9 (modeled)", Model: gbmodels.OBC, Cutoff: 0,
			Parallel: "MPI", KernelFactor: 2.0, FrameworkFactor: 2.0}
	case TinkerLike:
		return Spec{Name: "Tinker 6.0 (modeled)", Model: gbmodels.STILL, Cutoff: 0,
			Parallel: "OpenMP", MaxAtoms: 12000, KernelFactor: 2.2, FrameworkFactor: 1.0,
			SharedOnly: true, QuadraticMemory: true}
	case GBr6Like:
		// A tight analytical kernel (no transcendental in the radii
		// phase): serial GBr⁶ lands near 12-core Amber, per Figure 8b.
		return Spec{Name: "GBr6 (modeled)", Model: gbmodels.VolR6, Cutoff: 0,
			Parallel: "serial", MaxAtoms: 13000, KernelFactor: 0.49, FrameworkFactor: 1.0,
			SharedOnly: true, Serial: true, QuadraticMemory: true}
	}
	return Spec{Name: "unknown"}
}

func (p Package) String() string { return p.Spec().Name }

// All lists every modeled package in Table II order.
func All() []Package {
	return []Package{GromacsLike, NAMDLike, AmberLike, TinkerLike, GBr6Like}
}

// ErrOutOfMemory reproduces the failures the paper observed for large
// molecules.
type ErrOutOfMemory struct {
	Pkg   string
	Atoms int
	Limit int
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("%s: out of memory for %d atoms (observed limit ≈%d)", e.Pkg, e.Atoms, e.Limit)
}

// Report is the executed result of one baseline on one molecule.
type Report struct {
	Spec        Spec
	Energy      float64
	R           []float64
	RadiiPairs  int64
	EnergyPairs int64
	NblistTests int64
	// MemoryBytes is the modeled per-rank working set: the nonbonded
	// lists for cutoff packages, dense pair storage for the quadratic
	// ones.
	MemoryBytes int64
}

// Run executes the baseline's GB computation on mol. cutoffOverride > 0
// replaces the package's default cutoff (the paper does this for Gromacs
// and NAMD on the CMV shell). It returns ErrOutOfMemory exactly where the
// paper reports the real package failing.
func Run(p Package, mol *molecule.Molecule, cutoffOverride float64) (*Report, error) {
	spec := p.Spec()
	if cutoffOverride > 0 {
		spec.Cutoff = cutoffOverride
	}
	n := mol.N()
	if spec.MaxAtoms > 0 && n > spec.MaxAtoms {
		return nil, &ErrOutOfMemory{Pkg: spec.Name, Atoms: n, Limit: spec.MaxAtoms}
	}

	rres := gbmodels.Radii(spec.Model, mol, gbmodels.Params{Cutoff: spec.Cutoff})
	energy, epairs := gbmodels.EpolCutoff(mol, rres.R, spec.Cutoff)

	rep := &Report{
		Spec:        spec,
		Energy:      energy,
		R:           rres.R,
		RadiiPairs:  rres.PairsEvaluated,
		EnergyPairs: epairs,
		NblistTests: rres.NblistTests,
	}
	switch {
	case spec.QuadraticMemory:
		// Dense per-pair state — the OOM mechanism.
		rep.MemoryBytes = int64(n)*int64(n)*8 + int64(n)*64
	case spec.Cutoff > 0:
		// Neighbour-list storage: one int32 per stored (ordered) pair.
		rep.MemoryBytes = rres.PairsEvaluated*4 + int64(n)*64
	default:
		// Streaming all-pairs evaluation: O(N) memory.
		rep.MemoryBytes = int64(n) * 128
	}
	return rep, nil
}

// RunLarge is Run for very large molecules: the quadratic baselines'
// all-pairs evaluation is infeasible to execute literally (the paper's CMV
// shell implies 2.6·10¹¹ HCT pairs), so the energy is evaluated with a
// 25 Å cutoff while the work counters are charged for the full all-pairs
// computation the real package performs. This substitution — execute
// truncated, account untruncated — is recorded in DESIGN.md; for molecules
// under the threshold it falls back to the exact Run.
func RunLarge(p Package, mol *molecule.Molecule) (*Report, error) {
	n := mol.N()
	if n <= LargeThreshold {
		return Run(p, mol, 0)
	}
	spec := p.Spec()
	if spec.MaxAtoms > 0 && n > spec.MaxAtoms {
		return nil, &ErrOutOfMemory{Pkg: spec.Name, Atoms: n, Limit: spec.MaxAtoms}
	}
	rep, err := Run(p, mol, 25)
	if err != nil {
		return nil, err
	}
	if spec.Cutoff == 0 {
		// Charge the model for the all-pairs work the real package does.
		rep.RadiiPairs = int64(n) * int64(n-1)
		rep.EnergyPairs = int64(n) * int64(n-1) / 2
		rep.NblistTests = 0
		rep.Spec = spec
		if spec.QuadraticMemory {
			rep.MemoryBytes = int64(n)*int64(n)*8 + int64(n)*64
		} else {
			rep.MemoryBytes = int64(n) * 128
		}
	}
	return rep, nil
}

// LargeThreshold is the atom count above which RunLarge switches to the
// truncated-execution / full-accounting mode. Exposed as a variable so
// tests can exercise the large path cheaply.
var LargeThreshold = 100000

// Timing is the virtual-time result of a baseline run.
type Timing struct {
	TotalSec   float64
	ComputeSec float64
	CommSec    float64
	Cores      int
	MemPenalty float64
}

// pairCost selects the per-pair kernel cost for a model.
func pairCost(m gbmodels.Model, oc simtime.OpCosts) float64 {
	switch m {
	case gbmodels.OBC:
		return oc.PairOBCSec
	case gbmodels.STILL:
		return oc.PairSTILLSec
	case gbmodels.VolR6:
		return oc.PairVolR6Sec
	default:
		return oc.PairHCTSec
	}
}

// SimTime assembles the virtual-time run of a baseline for P ranks ×
// threads on machine m (shared-only packages clamp P to 1; serial ones use
// one core).
func (r *Report) SimTime(P, threads int, m simtime.Machine, oc simtime.OpCosts) Timing {
	spec := r.Spec
	if spec.Serial {
		P, threads = 1, 1
	}
	if spec.SharedOnly {
		P = 1
	}
	if spec.MaxRanks > 0 && P > spec.MaxRanks {
		P = spec.MaxRanks
	}
	if P < 1 {
		P = 1
	}
	if threads < 1 {
		threads = 1
	}
	cores := float64(P * threads)

	rpn := m.CoresPerNode / threads
	if rpn < 1 {
		rpn = 1
	}
	if P < rpn {
		rpn = P
	}
	pen := m.MemoryPenalty(r.MemoryBytes, rpn)

	pc := pairCost(spec.Model, oc) * spec.KernelFactor * spec.FrameworkFactor
	ec := oc.EpolNearPairSec * spec.KernelFactor * spec.FrameworkFactor

	compute := (float64(r.RadiiPairs)*pc +
		float64(r.EnergyPairs)*ec +
		float64(r.NblistTests)*oc.NblistStepSec) * pen / cores

	var comm float64
	if P > 1 {
		n := len(r.R)
		comm = m.CollectiveCost(n, P, rpn) + // gather Born radii
			m.CollectiveCost(1, P, rpn) // reduce energy
	}
	return Timing{
		TotalSec:   compute + comm,
		ComputeSec: compute,
		CommSec:    comm,
		Cores:      int(cores),
		MemPenalty: pen,
	}
}
