package bench

import (
	"fmt"
	"io"
	"math"

	"octgb/internal/baselines"
	"octgb/internal/engine"
	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

// Config controls the harness. Zero values select defaults that finish in
// minutes on a laptop; cmd/benchsuite exposes flags for the full-scale
// paper settings.
type Config struct {
	// Scale shrinks the CMV/BTV stand-ins (1 = the paper's full sizes:
	// 509,640 and 6,000,000 atoms). Default 0.1.
	Scale float64
	// SuiteSize is the number of ZDock-like molecules (default 21; the
	// paper's suite has 84).
	SuiteSize int
	// MaxAtoms filters the suite to entries of at most this many atoms
	// (0 = no filter); used by fast tests.
	MaxAtoms int
	// Runs is the number of jittered repetitions for Figure 6 (default 20,
	// matching the paper).
	Runs int
	// Exact forces a naive reference even on the large molecules; when
	// false, molecules above 100k atoms use the ε=0.01 treecode as
	// reference (documented substitution).
	Exact   bool
	Machine simtime.Machine
	Costs   simtime.OpCosts
	// Log receives progress lines (nil discards them).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.SuiteSize <= 0 {
		c.SuiteSize = 21
	}
	if c.Runs <= 0 {
		c.Runs = 20
	}
	if c.Machine.CoresPerNode == 0 {
		c.Machine = simtime.Lonestar4()
	}
	if c.Costs == (simtime.OpCosts{}) {
		c.Costs = simtime.DefaultOpCosts()
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Runner caches the expensive shared state (suite problems, naive
// references) across figure regenerations.
type Runner struct {
	Cfg   Config
	suite []SuiteItem

	btvMPI, btvHyb *engine.SimModel
	btvName        string
	btvAtoms       int
	btvQPts        int

	baseCache map[string]*baselines.Report // "pkg/molecule" → executed run
}

// baseline runs (or returns the cached run of) one baseline package on one
// suite molecule; Figures 8 and 9 share the executed pairwise work.
func (r *Runner) baseline(p baselines.Package, it SuiteItem) (*baselines.Report, error) {
	key := fmt.Sprintf("%d/%s", p, it.Entry.Name)
	if r.baseCache == nil {
		r.baseCache = map[string]*baselines.Report{}
	}
	if rep, ok := r.baseCache[key]; ok {
		return rep, nil
	}
	rep, err := baselines.Run(p, it.Prob.Mol, 0)
	if err != nil {
		return nil, err
	}
	r.baseCache[key] = rep
	return rep, nil
}

// SuiteItem is one prepared ZDock-like benchmark molecule.
type SuiteItem struct {
	Entry       molecule.SuiteEntry
	Prob        *engine.Problem
	NaiveEnergy float64
}

// NewRunner validates the config and returns a harness.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg.withDefaults()}
}

// Suite lazily builds the benchmark suite with naive reference energies.
func (r *Runner) Suite() []SuiteItem {
	if r.suite != nil {
		return r.suite
	}
	entries := molecule.ZDockLikeSuite(r.Cfg.SuiteSize)
	for _, e := range entries {
		if r.Cfg.MaxAtoms > 0 && e.Atoms > r.Cfg.MaxAtoms {
			continue
		}
		r.Cfg.logf("suite: preparing %s (%d atoms)", e.Name, e.Atoms)
		mol := e.Build()
		pr := engine.NewProblem(mol, surface.Default())
		R := gb.BornRadiiR6(mol, pr.QPts)
		item := SuiteItem{
			Entry:       e,
			Prob:        pr,
			NaiveEnergy: gb.EpolNaive(mol, R),
		}
		r.suite = append(r.suite, item)
	}
	return r.suite
}

// referenceEnergy returns the exact-reference energy for an arbitrary
// problem: naive when feasible (or when cfg.Exact), otherwise the ε=0.3
// treecode — whose error against naive is ≤0.25 % across the suite
// (Figure 10), several times below the differences being measured, while
// staying computable on half-million-atom shells.
func (r *Runner) referenceEnergy(pr *engine.Problem) (float64, string) {
	if r.Cfg.Exact || pr.Mol.N() <= 100000 {
		R := gb.BornRadiiR6(pr.Mol, pr.QPts)
		return gb.EpolNaive(pr.Mol, R), "naive"
	}
	sm := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{BornEps: 0.3, EpolEps: 0.3}, r.Cfg.Costs)
	return sm.Energy, "treecode ε=0.3"
}

func pctErr(e, ref float64) float64 {
	return 100 * (e - ref) / math.Abs(ref)
}

// TableEnv reproduces Table I: the modeled simulation environment.
func (r *Runner) TableEnv() *Table {
	m := r.Cfg.Machine
	t := &Table{Name: "Table I: Simulation Environment (modeled)", Header: []string{"Attribute", "Property"}}
	t.AddRow("Processors", fmt.Sprintf("%.2f GHz hexa-core (modeled Westmere)", m.CoreGHz))
	t.AddRow("Cores/node", fmt.Sprintf("%d (%d sockets)", m.CoresPerNode, m.SocketsPerNode))
	t.AddRow("RAM/node", fmt.Sprintf("%d GB", m.RAMBytesPerNode>>30))
	t.AddRow("Interconnect", fmt.Sprintf("α–β model: t_s=%.1fµs, t_w=%.2fns/word", m.TsSec*1e6, m.TwSecPerWord*1e9))
	t.AddRow("L3 cache", fmt.Sprintf("%d MB/socket", m.L3BytesPerSkt>>20))
	t.AddRow("Parallelism", "Go work-stealing pool + message-passing ranks (cilk++/MPI stand-ins)")
	return t
}

// TablePackages reproduces Table II: packages, GB models, parallelism.
func (r *Runner) TablePackages() *Table {
	t := &Table{Name: "Table II: Packages, GB models, parallelism", Header: []string{"Package", "GB-Model", "Parallelism"}}
	for _, p := range baselines.All() {
		s := p.Spec()
		t.AddRow(s.Name, s.Model.String(), s.Parallel)
	}
	t.AddRow("OCT_CILK", "STILL (surface r6)", "Shared (work stealing)")
	t.AddRow("OCT_MPI", "STILL (surface r6)", "Distributed (message passing)")
	t.AddRow("OCT_MPI+CILK", "STILL (surface r6)", "Hybrid (ranks × work stealing)")
	t.AddRow("Naive", "STILL (surface r6)", "Serial")
	return t
}

// btvModels builds (once) the Figure 5/6 molecule and both engine models.
func (r *Runner) btvModels() (mpi, hyb *engine.SimModel) {
	if r.btvMPI != nil {
		return r.btvMPI, r.btvHyb
	}
	mol := molecule.GenerateBTV(r.Cfg.Scale)
	r.Cfg.logf("fig5/6: BTV stand-in with %d atoms", mol.N())
	// Coarser surface for the very large shells: the paper's BTV has
	// ~0.5 q-points per atom.
	pr := engine.NewProblem(mol, surface.Options{SubdivLevel: 0, Degree: 1})
	r.btvName, r.btvAtoms, r.btvQPts = mol.Name, mol.N(), len(pr.QPts)
	r.Cfg.logf("fig5/6: building OCT_MPI model")
	r.btvMPI = engine.BuildSimModel(pr, engine.OctMPI, engine.Options{}, r.Cfg.Costs)
	r.Cfg.logf("fig5/6: building OCT_MPI+CILK model")
	r.btvHyb = engine.BuildSimModel(pr, engine.OctMPICilk, engine.Options{}, r.Cfg.Costs)
	return r.btvMPI, r.btvHyb
}

// fig56Cores is the swept core count list (one Lonestar4 node = 12 cores).
var fig56Cores = []int{12, 24, 48, 72, 96, 120, 144, 192, 240, 288}

// Fig5Scalability regenerates Figure 5: running time and speedup of
// OCT_MPI (12 ranks/node) and OCT_MPI+CILK (2 ranks × 6 threads/node)
// versus core count on the BTV stand-in, speedup relative to one node.
func (r *Runner) Fig5Scalability() *Table {
	cfg := r.Cfg
	mpi, hyb := r.btvModels()

	t := &Table{
		Name:   "Figure 5: Scalability on BTV stand-in (time and speedup vs one 12-core node)",
		Note:   fmt.Sprintf("molecule: %s (%d atoms, %d q-points)", r.btvName, r.btvAtoms, r.btvQPts),
		Header: []string{"cores", "OCT_MPI time", "OCT_MPI+CILK time", "OCT_MPI speedup", "OCT_MPI+CILK speedup"},
	}
	base := map[string]float64{}
	for _, cores := range fig56Cores {
		tm := mpi.Time(cores, 1, cfg.Machine, -1)
		th := hyb.Time(cores/6, 6, cfg.Machine, -1)
		if cores == 12 {
			base["mpi"], base["hyb"] = tm.TotalSec, th.TotalSec
		}
		t.AddRow(fmt.Sprint(cores),
			Seconds(tm.TotalSec), Seconds(th.TotalSec),
			Fmt(base["mpi"]/tm.TotalSec), Fmt(base["hyb"]/th.TotalSec))
	}
	return t
}

// Fig6MinMax regenerates Figure 6: min and max running times over cfg.Runs
// jittered repetitions for both engines versus core count.
func (r *Runner) Fig6MinMax() *Table {
	cfg := r.Cfg
	mpi, hyb := r.btvModels()

	t := &Table{
		Name:   fmt.Sprintf("Figure 6: min/max over %d runs on BTV stand-in", cfg.Runs),
		Note:   fmt.Sprintf("molecule: %s (%d atoms)", r.btvName, r.btvAtoms),
		Header: []string{"cores", "MPI min", "MPI max", "HYB min", "HYB max", "hyb min wins"},
	}
	for _, cores := range fig56Cores {
		var tm, th []float64
		for run := 0; run < cfg.Runs; run++ {
			tm = append(tm, mpi.Time(cores, 1, cfg.Machine, int64(run)).TotalSec)
			th = append(th, hyb.Time(cores/6, 6, cfg.Machine, int64(run)).TotalSec)
		}
		sm, sh := Summarize(tm), Summarize(th)
		t.AddRow(fmt.Sprint(cores),
			Seconds(sm.Min), Seconds(sm.Max),
			Seconds(sh.Min), Seconds(sh.Max),
			fmt.Sprint(sh.Min < sm.Min))
	}
	return t
}

// Fig7Engines regenerates Figure 7: the three octree engines across the
// ZDock-like suite on one 12-core node, sorted by OCT_CILK time. The
// paper runs this experiment with approximate math on; this code has one
// math mode, exact (see EXPERIMENTS.md for why).
func (r *Runner) Fig7Engines() *Table {
	cfg := r.Cfg
	t := &Table{
		Name:   "Figure 7: octree engines on one 12-core node",
		Header: []string{"molecule", "atoms", "OCT_CILK", "OCT_MPI(12)", "OCT_MPI+CILK(2x6)"},
	}
	type row struct {
		cells []string
		sort  float64
	}
	var rows []row
	for _, it := range r.Suite() {
		var o engine.Options
		cilk := engine.BuildSimModel(it.Prob, engine.OctCilk, o, cfg.Costs)
		mpi := engine.BuildSimModel(it.Prob, engine.OctMPI, o, cfg.Costs)
		hyb := engine.BuildSimModel(it.Prob, engine.OctMPICilk, o, cfg.Costs)
		tc := cilk.Time(1, 12, cfg.Machine, -1).TotalSec
		tm := mpi.Time(12, 1, cfg.Machine, -1).TotalSec
		th := hyb.Time(2, 6, cfg.Machine, -1).TotalSec
		rows = append(rows, row{
			cells: []string{it.Entry.Name, fmt.Sprint(it.Entry.Atoms), Seconds(tc), Seconds(tm), Seconds(th)},
			sort:  tc,
		})
		cfg.logf("fig7: %s done", it.Entry.Name)
	}
	// Sort by OCT_CILK time as in the paper.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].sort < rows[j-1].sort; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	for _, rw := range rows {
		t.AddRow(rw.cells...)
	}
	return t
}

// Fig8Baselines regenerates Figure 8: (a) running times of all programs on
// a 12-core node across the suite, sorted by size; (b) speedups w.r.t.
// Amber.
func (r *Runner) Fig8Baselines() (*Table, *Table) {
	cfg := r.Cfg
	ta := &Table{
		Name:   "Figure 8a: GB-energy running time, 12-core node (sorted by molecule size)",
		Header: []string{"molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "OCT_CILK", "Gromacs", "Amber", "NAMD", "Tinker", "GBr6", "Naive(1 core)"},
	}
	tb := &Table{
		Name:   "Figure 8b: speedup w.r.t. Amber 12 on 12 cores",
		Header: []string{"molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "Gromacs", "NAMD", "Tinker", "GBr6"},
	}
	for _, it := range r.Suite() {
		var o engine.Options
		mpi := engine.BuildSimModel(it.Prob, engine.OctMPI, o, cfg.Costs).Time(12, 1, cfg.Machine, -1).TotalSec
		hyb := engine.BuildSimModel(it.Prob, engine.OctMPICilk, o, cfg.Costs).Time(2, 6, cfg.Machine, -1).TotalSec
		cilk := engine.BuildSimModel(it.Prob, engine.OctCilk, o, cfg.Costs).Time(1, 12, cfg.Machine, -1).TotalSec
		naive := engine.BuildSimModel(it.Prob, engine.Naive, o, cfg.Costs).Time(1, 1, cfg.Machine, -1).TotalSec

		times := map[baselines.Package]float64{}
		for _, p := range baselines.All() {
			rep, err := r.baseline(p, it)
			if err != nil {
				times[p] = math.NaN() // out of memory
				continue
			}
			switch p {
			case baselines.TinkerLike:
				times[p] = rep.SimTime(1, 12, cfg.Machine, cfg.Costs).TotalSec
			case baselines.GBr6Like:
				times[p] = rep.SimTime(1, 1, cfg.Machine, cfg.Costs).TotalSec
			default:
				times[p] = rep.SimTime(12, 1, cfg.Machine, cfg.Costs).TotalSec
			}
		}
		fmtT := func(s float64) string {
			if math.IsNaN(s) {
				return "OOM"
			}
			return Seconds(s)
		}
		ta.AddRow(it.Entry.Name, fmt.Sprint(it.Entry.Atoms),
			Seconds(mpi), Seconds(hyb), Seconds(cilk),
			fmtT(times[baselines.GromacsLike]), fmtT(times[baselines.AmberLike]),
			fmtT(times[baselines.NAMDLike]), fmtT(times[baselines.TinkerLike]),
			fmtT(times[baselines.GBr6Like]), Seconds(naive))

		amber := times[baselines.AmberLike]
		sp := func(s float64) string {
			if math.IsNaN(s) || s == 0 {
				return "-"
			}
			return Fmt(amber / s)
		}
		tb.AddRow(it.Entry.Name, fmt.Sprint(it.Entry.Atoms),
			sp(mpi), sp(hyb),
			sp(times[baselines.GromacsLike]), sp(times[baselines.NAMDLike]),
			sp(times[baselines.TinkerLike]), sp(times[baselines.GBr6Like]))
		cfg.logf("fig8: %s done", it.Entry.Name)
	}
	return ta, tb
}

// Fig9Energy regenerates Figure 9: energy values per molecule per program,
// with percent difference from the naive reference.
func (r *Runner) Fig9Energy() *Table {
	cfg := r.Cfg
	t := &Table{
		Name:   "Figure 9: GB-energy values (kcal/mol) and % difference w.r.t. naive",
		Header: []string{"molecule", "atoms", "Naive", "OCT(all)", "oct%", "Amber", "amber%", "Gromacs", "gro%", "NAMD", "namd%", "Tinker", "tink%", "GBr6", "gbr6%"},
	}
	for _, it := range r.Suite() {
		oct := engine.BuildSimModel(it.Prob, engine.OctMPI, engine.Options{}, cfg.Costs)
		cells := []string{it.Entry.Name, fmt.Sprint(it.Entry.Atoms),
			Fmt(it.NaiveEnergy), Fmt(oct.Energy), Fmt(pctErr(oct.Energy, it.NaiveEnergy))}
		for _, p := range []baselines.Package{baselines.AmberLike, baselines.GromacsLike, baselines.NAMDLike, baselines.TinkerLike, baselines.GBr6Like} {
			rep, err := r.baseline(p, it)
			if err != nil {
				cells = append(cells, "OOM", "-")
				continue
			}
			cells = append(cells, Fmt(rep.Energy), Fmt(pctErr(rep.Energy, it.NaiveEnergy)))
		}
		t.AddRow(cells...)
		cfg.logf("fig9: %s done", it.Entry.Name)
	}
	return t
}

// Fig10Epsilon regenerates Figure 10: percent error (avg ± std across the
// suite) and average running time of OCT_MPI+CILK as the E_pol ε varies
// from 0.1 to 0.9 with the Born ε fixed at 0.9.
func (r *Runner) Fig10Epsilon() *Table {
	cfg := r.Cfg
	t := &Table{
		Name:   "Figure 10: error and time vs E_pol approximation parameter (Born ε = 0.9)",
		Header: []string{"epsilon", "avg err %", "std err %", "avg time", "max err %"},
	}
	// Build the Born phase once per molecule; sweep the energy ε.
	bases := make([]*engine.SimModel, len(r.Suite()))
	for i, it := range r.Suite() {
		bases[i] = engine.BuildSimModel(it.Prob, engine.OctMPICilk,
			engine.Options{BornEps: 0.9, EpolEps: 0.9}, cfg.Costs)
	}
	for _, eps := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		var errs, times []float64
		for i, it := range r.Suite() {
			sm := bases[i].WithEpolEps(eps)
			errs = append(errs, math.Abs(pctErr(sm.Energy, it.NaiveEnergy)))
			times = append(times, sm.Time(2, 6, cfg.Machine, -1).TotalSec)
		}
		es, ts := Summarize(errs), Summarize(times)
		t.AddRow(Fmt(eps), Fmt(es.Mean), Fmt(es.Std), Seconds(ts.Mean), Fmt(es.Max))
		cfg.logf("fig10: ε=%.1f done", eps)
	}
	return t
}

// Fig11CMV regenerates Figure 11: the CMV-shell table — 12-core and
// 144-core times, speedups w.r.t. Amber, energies and % difference from
// the exact reference.
func (r *Runner) Fig11CMV() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateCMV(cfg.Scale)
	cfg.logf("fig11: CMV stand-in with %d atoms", mol.N())
	// Subdivision 0 gives ≈4–6 q-points per atom after burial culling,
	// matching the paper's CMV density (1,929,128 q-points / 509,640
	// atoms ≈ 3.8).
	pr := engine.NewProblem(mol, surface.Options{SubdivLevel: 0, Degree: 1})
	cfg.logf("fig11: %d q-points", len(pr.QPts))

	ref, refKind := r.referenceEnergy(pr)
	cfg.logf("fig11: reference energy %.4g kcal/mol (%s)", ref, refKind)

	var o engine.Options
	cilk := engine.BuildSimModel(pr, engine.OctCilk, o, cfg.Costs)
	cfg.logf("fig11: OCT_CILK model built")
	mpi := engine.BuildSimModel(pr, engine.OctMPI, o, cfg.Costs)
	hyb := engine.BuildSimModel(pr, engine.OctMPICilk, o, cfg.Costs)
	cfg.logf("fig11: octree models built")

	amberRep, amberErr := baselines.RunLarge(baselines.AmberLike, mol)
	var amber12, amber144, amberE float64
	if amberErr == nil {
		amber12 = amberRep.SimTime(12, 1, cfg.Machine, cfg.Costs).TotalSec
		amber144 = amberRep.SimTime(144, 1, cfg.Machine, cfg.Costs).TotalSec
		amberE = amberRep.Energy
	}
	cfg.logf("fig11: Amber baseline done")

	t := &Table{
		Name: "Figure 11: scalability on the CMV shell stand-in",
		Note: fmt.Sprintf("molecule: %s (%d atoms, %d q-points); reference: %s = %s kcal/mol",
			mol.Name, mol.N(), len(pr.QPts), refKind, Fmt(ref)),
		Header: []string{"program", "12 cores", "144 cores", "speedup/Amber@12", "speedup/Amber@144", "energy (kcal/mol)", "% diff vs ref"},
	}
	addOct := func(name string, t12, t144, energy float64, has144 bool) {
		c144 := "X"
		s144 := "X"
		if has144 {
			c144 = Seconds(t144)
			s144 = Fmt(amber144 / t144)
		}
		t.AddRow(name, Seconds(t12), c144, Fmt(amber12/t12), s144, Fmt(energy), Fmt(pctErr(energy, ref)))
	}
	addOct("OCT_CILK", cilk.Time(1, 12, cfg.Machine, -1).TotalSec, 0, cilk.Energy, false)
	t.AddRow("Amber", Seconds(amber12), Seconds(amber144), "1", "1", Fmt(amberE), Fmt(pctErr(amberE, ref)))
	addOct("OCT_MPI+CILK", hyb.Time(2, 6, cfg.Machine, -1).TotalSec, hyb.Time(24, 6, cfg.Machine, -1).TotalSec, hyb.Energy, true)
	addOct("OCT_MPI", mpi.Time(12, 1, cfg.Machine, -1).TotalSec, mpi.Time(144, 1, cfg.Machine, -1).TotalSec, mpi.Energy, true)
	return t
}
