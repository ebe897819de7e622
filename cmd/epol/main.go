// Command epol computes the GB polarization energy of a molecule with any
// of the library's engines.
//
// Usage:
//
//	epol -gen 5000                           # synthetic protein, hybrid engine
//	epol -in molecule.pqr -engine mpi -ranks 8
//	epol -capsid 50000 -engine cilk -threads 4 -borneps 0.5
//	epol -gen 2000 -engine naive             # exact reference
//	epol -gen 20000 -sim -cores 144          # virtual-time estimate as well
package main

import (
	"flag"
	"fmt"
	"os"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

func main() {
	var (
		in      = flag.String("in", "", "input molecule in PQR format")
		gen     = flag.Int("gen", 0, "generate a synthetic protein with this many atoms")
		capsid  = flag.Int("capsid", 0, "generate a synthetic capsid shell with this many atoms")
		seed    = flag.Int64("seed", 1, "generator seed")
		eng     = flag.String("engine", "hybrid", "engine: cilk | mpi | hybrid | naive")
		ranks   = flag.Int("ranks", 2, "number of ranks (mpi/hybrid)")
		threads = flag.Int("threads", 2, "threads per rank (cilk/hybrid/naive)")
		bornEps = flag.Float64("borneps", 0.9, "Born-radius approximation parameter ε")
		epolEps = flag.Float64("epoleps", 0.9, "energy approximation parameter ε")
		subdiv  = flag.Int("subdiv", 1, "surface icosphere subdivision level")
		degree  = flag.Int("degree", 1, "Dunavant quadrature degree (1-5)")
		sim     = flag.Bool("sim", false, "also report the virtual-time estimate on the modeled cluster")
		cores   = flag.Int("cores", 12, "modeled core count for -sim")
		radii   = flag.Bool("radii", false, "print per-atom Born radii")
	)
	flag.Parse()

	mol, err := loadMolecule(*in, *gen, *capsid, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epol:", err)
		os.Exit(1)
	}
	fmt.Printf("molecule: %s (%d atoms, total charge %.2f)\n", mol.Name, mol.N(), mol.TotalCharge())

	pr := engine.NewProblem(mol, surface.Options{SubdivLevel: *subdiv, Degree: *degree})
	fmt.Printf("surface:  %d quadrature points (%.0f Å² exposed)\n", len(pr.QPts), surface.TotalArea(pr.QPts))

	kind, err := parseKind(*eng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epol:", err)
		os.Exit(1)
	}
	opts := engine.Options{
		Ranks: *ranks, Threads: *threads,
		BornEps: *bornEps, EpolEps: *epolEps,
	}

	rep, err := engine.RunReal(pr, kind, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epol:", err)
		os.Exit(1)
	}
	fmt.Printf("engine:   %s (ranks=%d threads=%d εB=%.2g εE=%.2g)\n", kind, *ranks, *threads, *bornEps, *epolEps)
	fmt.Printf("E_pol:    %.6g kcal/mol\n", rep.Energy)
	fmt.Printf("work:     Born %d near pairs / %d far evals; E_pol %d near pairs / %d far evals\n",
		rep.BornStats.NearPairs, rep.BornStats.FarEval, rep.EpolStats.NearPairs, rep.EpolStats.FarEval)
	fmt.Printf("wall:     %v\n", rep.Wall)
	if p := rep.Phases; p.Born > 0 {
		fmt.Printf("phases:   born %v, push %v, epol %v, comm %v\n", p.Born, p.Push, p.Epol, p.Comm)
	}
	if rep.Sched.Executed > 0 {
		fmt.Printf("sched:    %d tasks, %d steals\n", rep.Sched.Executed, rep.Sched.Steals)
	}

	if *sim {
		sm := engine.BuildSimModel(pr, kind, opts, simtime.DefaultOpCosts())
		m := simtime.Lonestar4()
		var t engine.SimTiming
		switch kind {
		case engine.OctMPICilk:
			t = sm.Time(*cores/6, 6, m, -1)
		case engine.OctMPI:
			t = sm.Time(*cores, 1, m, -1)
		default:
			t = sm.Time(1, *cores, m, -1)
		}
		fmt.Printf("sim:      %.4gs on %d modeled cores (compute %.4gs, comm %.4gs, mem penalty %.2f)\n",
			t.TotalSec, t.Cores, t.ComputeSec, t.CommSec, t.MemPenalty)
	}

	if *radii {
		for i, r := range rep.BornRadii {
			fmt.Printf("R[%d] = %.4f\n", i, r)
		}
	}
}

func loadMolecule(in string, gen, capsid int, seed int64) (*molecule.Molecule, error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return molecule.ReadPQR(f, in)
	case capsid > 0:
		return molecule.GenerateCapsid(fmt.Sprintf("capsid_%d", capsid), capsid, 20, seed), nil
	case gen > 0:
		return molecule.GenerateProtein(fmt.Sprintf("protein_%d", gen), gen, seed), nil
	default:
		return molecule.GenerateProtein("protein_2000", 2000, seed), nil
	}
}

func parseKind(s string) (engine.Kind, error) {
	switch s {
	case "cilk":
		return engine.OctCilk, nil
	case "mpi":
		return engine.OctMPI, nil
	case "hybrid":
		return engine.OctMPICilk, nil
	case "naive":
		return engine.Naive, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want cilk|mpi|hybrid|naive)", s)
}
