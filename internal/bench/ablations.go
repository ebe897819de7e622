package bench

import (
	"fmt"
	"math"

	"octgb/internal/engine"
	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/nblist"
	"octgb/internal/octree"
	"octgb/internal/partition"
	"octgb/internal/sched"
	"octgb/internal/surface"
)

// Ablation benches for the design choices DESIGN.md calls out. Each
// returns a table comparing the chosen design against its alternative.

// ablationAtoms clamps an ablation's default molecule size to the
// config's MaxAtoms so fast test configs stay fast.
func (r *Runner) ablationAtoms(def int) int {
	if r.Cfg.MaxAtoms > 0 && r.Cfg.MaxAtoms < def {
		return r.Cfg.MaxAtoms
	}
	return def
}

// AblationWorkDivision compares node-based and atom-based work division
// (§IV-A): time and energy stability across rank counts.
func (r *Runner) AblationWorkDivision() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateProtein("ablation_wd", r.ablationAtoms(4000), 301)
	pr := engine.NewProblem(mol, surface.Default())
	sm := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{}, cfg.Costs)

	t := &Table{
		Name:   "Ablation: node-based vs atom-based work division",
		Note:   "node-based energy is P-invariant; atom-based varies with boundaries (paper §IV-A)",
		Header: []string{"ranks", "node time", "node energy", "atom time", "atom energy"},
	}
	for _, P := range []int{1, 2, 4, 8, 12} {
		nt := sm.Time(P, 1, cfg.Machine, -1)
		at, ae := sm.TimeAtomBased(P, 1, cfg.Machine)
		t.AddRow(fmt.Sprint(P), Seconds(nt.TotalSec), Fmt(sm.Energy), Seconds(at.TotalSec), Fmt(ae))
	}
	return t
}

// AblationOctreeVsNblist compares the octree against nonbonded lists:
// build time proxy (work counters), memory across cutoffs (§II).
func (r *Runner) AblationOctreeVsNblist() *Table {
	mol := molecule.GenerateProtein("ablation_nb", r.ablationAtoms(8000), 302)
	pts := make([]geom.Vec3, mol.N())
	for i := range mol.Atoms {
		pts[i] = mol.Atoms[i].Pos
	}
	tree := octree.Build(pts, 0)
	t := &Table{
		Name:   fmt.Sprintf("Ablation: octree vs nonbonded lists (%d atoms)", mol.N()),
		Note:   "octree memory is cutoff-independent; nblist memory grows cubically with the cutoff",
		Header: []string{"structure", "cutoff (Å)", "memory (MB)", "stored pairs"},
	}
	t.AddRow("octree", "any", Fmt(float64(tree.MemoryBytes())/(1<<20)), "-")
	for _, cutoff := range []float64{6, 12, 18, 24} {
		nb := nblist.Build(pts, cutoff)
		t.AddRow("nblist", Fmt(cutoff), Fmt(float64(nb.MemoryBytes())/(1<<20)), fmt.Sprint(nb.NumPairs()))
	}
	return t
}

// AblationEnergyBinning compares the Born-radius charge-binned far field
// against exact evaluation: time (pair counters) and error at several ε.
func (r *Runner) AblationEnergyBinning() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateProtein("ablation_bin", r.ablationAtoms(3000), 303)
	pr := engine.NewProblem(mol, surface.Default())
	R := gb.BornRadiiR6(mol, pr.QPts)
	exact := gb.EpolNaive(mol, R)

	base := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{BornEps: 0.9, EpolEps: 0.9}, cfg.Costs)
	t := &Table{
		Name:   "Ablation: binned far-field vs exact pairwise energy",
		Note:   fmt.Sprintf("exact naive energy %s kcal/mol; treecode uses M_ε charge bins per node", Fmt(exact)),
		Header: []string{"E_pol ε", "near pairs", "far evals", "12-core time", "err %"},
	}
	for _, eps := range []float64{0.3, 0.9, 2.0} {
		sm := base.WithEpolEps(eps)
		tm := sm.Time(12, 1, cfg.Machine, -1)
		t.AddRow(Fmt(eps), fmt.Sprint(sm.EpolStats.NearPairs), fmt.Sprint(sm.EpolStats.FarEval),
			Seconds(tm.TotalSec), Fmt(math.Abs(pctErr(sm.Energy, exact))))
	}
	// The "no binning" row: pure pairwise (naive) work at 12 cores.
	naive := engine.BuildSimModel(pr, engine.Naive, engine.Options{}, cfg.Costs)
	nt := naive.Time(1, 12, cfg.Machine, -1)
	t.AddRow("exact", fmt.Sprint(naive.EpolStats.NearPairs), "0", Seconds(nt.TotalSec), "0")
	return t
}

// AblationStealing compares dynamic work stealing against a static
// contiguous per-thread split on the real (skewed) per-leaf work profile.
func (r *Runner) AblationStealing() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateProtein("ablation_steal", r.ablationAtoms(6000), 304)
	pr := engine.NewProblem(mol, surface.Default())
	sm := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{}, cfg.Costs)
	weights := sm.EpolLeafWork()

	t := &Table{
		Name:   "Ablation: work stealing vs static per-thread split (energy-phase leaf work)",
		Note:   "makespans in modeled seconds on the measured per-leaf work profile",
		Header: []string{"threads", "stealing (greedy)", "static contiguous", "static penalty"},
	}
	for _, p := range []int{2, 6, 12} {
		steal := sched.ListScheduleMakespan(weights, p)
		var static float64
		for _, seg := range partition.Even(len(weights), p) {
			var l float64
			for i := seg.Lo; i < seg.Hi; i++ {
				l += weights[i]
			}
			if l > static {
				static = l
			}
		}
		t.AddRow(fmt.Sprint(p), Seconds(steal), Seconds(static), Fmt(static/steal))
	}
	return t
}

// AblationStaticBalance compares the paper's count-based static division
// with the explicit work-weighted static division (the §VI future-work
// direction implemented by Options.WeightedStatic).
func (r *Runner) AblationStaticBalance() *Table {
	cfg := r.Cfg
	// A ligand-receptor complex gives a deliberately lopsided leaf-work
	// profile (dense receptor + detached ligand).
	mol := molecule.GenerateComplex("ablation_bal", r.ablationAtoms(4000), r.ablationAtoms(4000)/8, 306)
	pr := engine.NewProblem(mol, surface.Default())
	count := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{}, cfg.Costs)
	weighted := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{WeightedStatic: true}, cfg.Costs)

	t := &Table{
		Name:   "Ablation: count-based vs work-weighted static division (future work §VI)",
		Note:   fmt.Sprintf("ligand–receptor complex, %d atoms", mol.N()),
		Header: []string{"ranks", "count-split time", "weighted-split time", "improvement"},
	}
	for _, P := range []int{4, 12, 24, 48} {
		tc := count.Time(P, 1, cfg.Machine, -1).TotalSec
		tw := weighted.Time(P, 1, cfg.Machine, -1).TotalSec
		t.AddRow(fmt.Sprint(P), Seconds(tc), Seconds(tw), Fmt(tc/tw))
	}
	return t
}

// AblationDataDistribution quantifies the §VI future-work variant: per-rank
// memory when atoms are distributed (owned + ghost leaves + skeleton)
// versus the published full-replication design.
func (r *Runner) AblationDataDistribution() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateProtein("ablation_dd", r.ablationAtoms(8000), 307)
	pr := engine.NewProblem(mol, surface.Default())
	sm := engine.BuildSimModel(pr, engine.OctMPI, engine.Options{}, cfg.Costs)

	t := &Table{
		Name:   fmt.Sprintf("Ablation: distributed data vs full replication (%d atoms, energy phase)", mol.N()),
		Note:   "replicated = published design (every rank holds all data); distributed = owned + ghost leaves + tree skeleton",
		Header: []string{"ranks", "replicated/rank (MB)", "distributed/rank (MB)", "ghost atoms (max)", "exchange"},
	}
	for _, P := range []int{2, 12, 48, 144} {
		dd := sm.DistributeData(P, cfg.Machine)
		t.AddRow(fmt.Sprint(P),
			Fmt(float64(dd.BytesPerRankReplicated)/(1<<20)),
			Fmt(float64(dd.BytesPerRankDistributed)/(1<<20)),
			fmt.Sprint(dd.MaxGhostAtoms),
			Seconds(dd.ExchangeCostSec))
	}
	return t
}

// AblationCriterion contrasts the default distance-ratio Born acceptance
// criterion with the poster's printed (1+ε)^{1/6} variant, which at
// protein scales accepts almost no cell pairs (see DESIGN.md's criterion
// note): the near-pair counts make the near-degeneracy visible.
func (r *Runner) AblationCriterion() *Table {
	cfg := r.Cfg
	mol := molecule.GenerateProtein("ablation_crit", r.ablationAtoms(3000), 308)
	pr := engine.NewProblem(mol, surface.Default())

	t := &Table{
		Name:   "Ablation: Born far-field criterion — distance-ratio (power 1) vs poster-printed (power 6)",
		Header: []string{"criterion", "far evals", "near pairs", "naive N*m", "12-core time"},
	}
	nm := int64(mol.N()) * int64(len(pr.QPts))
	for _, power := range []int{1, 6} {
		sm := engine.BuildSimModel(pr, engine.OctMPI,
			engine.Options{CriterionPower: power}, cfg.Costs)
		tm := sm.Time(12, 1, cfg.Machine, -1)
		name := "power 1 (default)"
		if power == 6 {
			name = "power 6 (printed)"
		}
		t.AddRow(name, fmt.Sprint(sm.BornStats.FarEval), fmt.Sprint(sm.BornStats.NearPairs),
			fmt.Sprint(nm), Seconds(tm.TotalSec))
	}
	return t
}
