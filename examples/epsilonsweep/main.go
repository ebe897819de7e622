// Epsilon sweep: the library's space-independent speed–accuracy tradeoff
// (paper §I and Figure 10). The approximation parameters ε can be tuned
// per run without rebuilding any data structure — unlike cutoff-based
// nonbonded lists, whose memory grows cubically with the cutoff.
//
// This example sweeps the E_pol ε with the Born ε fixed at 0.9 and prints
// the error against the exact reference alongside the measured work.
//
// Run with: go run ./examples/epsilonsweep
package main

import (
	"fmt"
	"log"
	"math"

	"octgb/internal/engine"
	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

func main() {
	mol := molecule.GenerateProtein("sweep", 5000, 21)
	pr := engine.NewProblem(mol, surface.Default())
	fmt.Printf("molecule: %d atoms, %d q-points\n", mol.N(), len(pr.QPts))

	// Exact reference.
	R := gb.BornRadiiR6(mol, pr.QPts)
	exact := gb.EpolNaive(mol, R)
	fmt.Printf("exact E_pol: %.3f kcal/mol\n\n", exact)

	// Build the Born phase once (ε fixed at 0.9), then sweep the energy ε
	// — the octrees and Born radii are reused across the whole sweep.
	base := engine.BuildSimModel(pr, engine.OctMPICilk,
		engine.Options{BornEps: 0.9, EpolEps: 0.9}, simtime.DefaultOpCosts())
	mach := simtime.Lonestar4()

	fmt.Printf("%-6s  %-12s  %-9s  %-12s  %-12s\n", "ε", "E_pol", "err %", "near pairs", "modeled 12-core time")
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 3.0} {
		sm := base.WithEpolEps(eps)
		t := sm.Time(2, 6, mach, -1)
		errPct := 100 * math.Abs(sm.Energy-exact) / math.Abs(exact)
		fmt.Printf("%-6.2g  %-12.3f  %-9.4f  %-12d  %.4fs\n",
			eps, sm.Energy, errPct, sm.EpolStats.NearPairs, t.TotalSec)
	}
	fmt.Println("\nLarger ε ⇒ fewer exact pairs, faster, larger error — and no data-structure rebuild.")

	// Sanity: the paper's operating point stays within ~1 % of exact.
	op := base.WithEpolEps(0.9)
	if e := math.Abs(op.Energy-exact) / math.Abs(exact); e > 0.05 {
		log.Fatalf("unexpectedly large error at ε=0.9: %.2f%%", 100*e)
	}
}
