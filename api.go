// Package octgb approximates the Generalized-Born polarization energy of
// protein molecules with the hybrid distributed/shared-memory octree
// treecode of Tithi & Chowdhury, "Polarization Energy on a Cluster of
// Multicores" (SC 2012).
//
// This file is the public facade: it re-exports the library's primary
// types from the internal packages (via type aliases, so the full APIs
// documented there are available through this package) and provides the
// one-call entry points most users need.
//
// Quick use:
//
//	mol := octgb.GenerateProtein("demo", 5000, 1)
//	res, err := octgb.Compute(mol, octgb.DefaultOptions())
//	fmt.Println(res.Energy) // kcal/mol
//
// For full control (engines, ranks, threads, virtual-time projections,
// TCP deployment) see the aliased types below and the examples/ directory.
package octgb

import (
	"fmt"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

// Re-exported core types. Their methods and fields are documented in the
// implementing packages.
type (
	// Molecule is a set of atoms (position, vdW radius, partial charge).
	Molecule = molecule.Molecule
	// Atom is one atom of a Molecule.
	Atom = molecule.Atom
	// Vec3 is a 3-vector (Å).
	Vec3 = geom.Vec3
	// Rigid is a rigid-body transform for docking-pose sweeps.
	Rigid = geom.Rigid
	// QPoint is one molecular-surface quadrature point.
	QPoint = surface.QPoint
	// SurfaceOptions controls surface sampling resolution.
	SurfaceOptions = surface.Options
	// Problem bundles a molecule with its sampled surface.
	Problem = engine.Problem
	// EngineOptions configures an engine run (ranks, threads, ε).
	EngineOptions = engine.Options
	// Kind selects an engine (OctCilk, OctMPI, OctMPICilk, Naive).
	Kind = engine.Kind
	// Report is the result of a real (executed) run.
	Report = engine.RealReport
	// SimModel is a virtual-time work profile for cluster projections.
	SimModel = engine.SimModel
	// Machine describes the modeled cluster for virtual-time runs.
	Machine = simtime.Machine
)

// Engine kinds (paper Table II).
const (
	OctCilk    = engine.OctCilk
	OctMPI     = engine.OctMPI
	OctMPICilk = engine.OctMPICilk
	NaiveExact = engine.Naive
)

// Options configures the high-level Compute entry point.
type Options struct {
	// Engine selects the parallel algorithm (default OctMPICilk).
	Engine Kind
	// Ranks and Threads set the process/thread decomposition (default
	// 2 × 2, taken when Engine, Ranks and Threads are all unset).
	Ranks, Threads int
	// BornEps and EpolEps are the approximation parameters (default 0.9,
	// the paper's operating point). Smaller is more accurate and slower.
	BornEps, EpolEps float64
	// Surface controls surface sampling (zero value = defaults).
	Surface SurfaceOptions
}

// DefaultOptions returns the paper's operating point on the hybrid engine.
func DefaultOptions() Options {
	return Options{Engine: OctMPICilk, Ranks: 2, Threads: 2, BornEps: 0.9, EpolEps: 0.9}
}

// Result is the outcome of Compute.
type Result struct {
	// Energy is the GB polarization energy in kcal/mol (negative).
	Energy float64
	// BornRadii are the per-atom effective Born radii (Å, original atom
	// order).
	BornRadii []float64
	// Report carries execution details (wall time, work counters,
	// scheduler statistics, per-phase timings).
	Report Report
}

// Compute evaluates the GB polarization energy of mol.
func Compute(mol *Molecule, o Options) (*Result, error) {
	if mol == nil || mol.N() == 0 {
		return nil, fmt.Errorf("octgb: empty molecule")
	}
	if err := mol.Validate(); err != nil {
		return nil, fmt.Errorf("octgb: %w", err)
	}
	// An unset decomposition takes the default one and a zero ε is the
	// engine's 0.9; every other field is the caller's.
	if o.Engine == 0 && o.Ranks == 0 && o.Threads == 0 {
		d := DefaultOptions()
		o.Engine, o.Ranks, o.Threads = d.Engine, d.Ranks, d.Threads
	}
	pr := engine.NewProblem(mol, o.Surface)
	eo := engine.Options{
		Ranks:   o.Ranks,
		Threads: o.Threads,
		BornEps: o.BornEps,
		EpolEps: o.EpolEps,
	}
	rep, err := engine.RunReal(pr, o.Engine, eo)
	if err != nil {
		return nil, err
	}
	return &Result{Energy: rep.Energy, BornRadii: rep.BornRadii, Report: rep}, nil
}

// NewProblem samples the molecular surface once so multiple engines or
// parameter settings can be run against identical inputs.
func NewProblem(mol *Molecule, so SurfaceOptions) *Problem {
	return engine.NewProblem(mol, so)
}

// BuildSimModel executes an engine once and returns its virtual-time work
// profile for cluster-scale projections (see SimModel.Time).
func BuildSimModel(pr *Problem, k Kind, o EngineOptions) *SimModel {
	return engine.BuildSimModel(pr, k, o, simtime.DefaultOpCosts())
}

// Lonestar4 returns the paper's modeled Table I machine.
func Lonestar4() Machine { return simtime.Lonestar4() }

// GenerateProtein builds a deterministic synthetic globular protein with n
// atoms (a stand-in for benchmark inputs; use ReadPQR for real molecules).
func GenerateProtein(name string, n int, seed int64) *Molecule {
	return molecule.GenerateProtein(name, n, seed)
}

// GenerateCapsid builds a hollow virus-shell-like molecule.
func GenerateCapsid(name string, n int, thickness float64, seed int64) *Molecule {
	return molecule.GenerateCapsid(name, n, thickness, seed)
}

// SampleSurface generates the molecular-surface quadrature points of mol.
func SampleSurface(mol *Molecule, so SurfaceOptions) []QPoint {
	return surface.Sample(mol, so)
}

// Serving layer: a resident HTTP/JSON evaluation service with a
// prepared-problem cache, pose-sweep batching, stateful /v1/stream
// sessions for incremental evaluation, and admission control
// (cmd/epolserve is the command-line wrapper). See the serve package docs
// for endpoints and configuration.
type (
	// ServeConfig configures a Server.
	ServeConfig = serve.Config
	// Server is the resident evaluation service.
	Server = serve.Server
	// Prepared is a reusable preprocessed problem: surface + octrees +
	// Born radii, ready for repeated E_pol evaluation.
	Prepared = engine.Prepared
)

// NewServer builds an evaluation service and starts its worker pool; call
// Start (or mount Handler) to serve, Shutdown to drain.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Observability: a zero-dependency instrumentation layer — lock-free
// latency histograms rendered in Prometheus text format, span tracing
// dumpable as Chrome trace_event JSON. An Observer attaches to
// EngineOptions.Observe and ServeConfig.Observe; nil (the default) keeps
// every instrumented path allocation-free and numerically bitwise
// identical. See the obs package docs and DESIGN.md §10.
type (
	// Observer bundles a metric registry and a span tracer.
	Observer = obs.Observer
	// HistogramSnapshot is a point-in-time histogram copy (Quantile/Mean).
	HistogramSnapshot = obs.HistSnapshot
)

// NewObserver returns an Observer with a fresh registry and tracer.
func NewObserver() *Observer { return obs.New() }

// Prepare runs the preprocessing half of an evaluation once (octree
// construction + Born radii, the paper's steps 1-4) so EvalEpol can be
// called repeatedly — with different ε_E settings if desired — without
// repeating it. o.Threads also fixes how finely the energy phase is cut
// (32 × o.Threads roots), so an EvalEpol runs on at most that many
// workers whatever Threads it asks for.
func Prepare(pr *Problem, o EngineOptions) (*Prepared, error) {
	return engine.Prepare(pr, o)
}

// Incremental evaluation: a Session holds a molecule's surface, octrees
// and cached interaction values resident so a stream of small coordinate
// updates (a flexible loop, a refining docking pose) re-evaluates only the
// dirty region instead of rebuilding from scratch. Served over HTTP as the
// stateful /v1/stream endpoint (see ServeConfig.MaxSessions). See the
// engine package docs and DESIGN.md §12.
type (
	// Session is a resident incremental evaluation state for one molecule.
	Session = engine.Session
	// SessionOptions configures a Session: its surface sampling and
	// evaluation parameters, and the test oracle's resweep cadence.
	SessionOptions = engine.SessionOptions
	// AtomMove is one atom's new absolute position within a FrameDelta.
	AtomMove = engine.AtomMove
	// FrameDelta is one frame of a coordinate stream: the atoms that moved.
	FrameDelta = engine.FrameDelta
	// FrameReport describes what one Session.Step did (energy, dirty-set
	// counters, resweep/refresh markers).
	FrameReport = engine.FrameReport
)

// NewSession builds an incremental evaluation session: it samples the
// surface, builds both treecode solvers with slack margins and evaluates
// the initial energy. Step then applies per-frame deltas. Session.Close
// hands the session's storage back, and the next NewSession builds on it
// instead of allocating its own; a session dropped without Close is left
// to the garbage collector.
func NewSession(mol *Molecule, o SessionOptions) (*Session, error) {
	return engine.NewSession(mol, o)
}

// ErrSessionClosed is what Session.Step returns after Session.Close.
var ErrSessionClosed = engine.ErrSessionClosed
