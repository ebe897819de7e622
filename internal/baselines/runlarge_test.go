package baselines

import (
	"errors"
	"math"
	"testing"

	"octgb/internal/molecule"
	"octgb/internal/simtime"
)

func TestRunLargeSmallMoleculeIdenticalToRun(t *testing.T) {
	m := molecule.GenerateProtein("rl", 700, 81)
	a, err := Run(AmberLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLarge(AmberLike, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.RadiiPairs != b.RadiiPairs {
		t.Errorf("RunLarge diverged below threshold: %v/%d vs %v/%d",
			a.Energy, a.RadiiPairs, b.Energy, b.RadiiPairs)
	}
}

func TestRunLargeChargesAllPairsWork(t *testing.T) {
	// Above the threshold the execution is truncated but the accounting
	// must reflect the all-pairs work of the real package. The threshold
	// is lowered so the test exercises the large path cheaply.
	defer func(old int) { LargeThreshold = old }(LargeThreshold)
	LargeThreshold = 4000
	m := molecule.GenerateCapsid("rlbig", 6000, 10, 82)
	rep, err := RunLarge(AmberLike, m)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(m.N())
	if rep.RadiiPairs != n*(n-1) {
		t.Errorf("radii pairs %d, want all-ordered-pairs %d", rep.RadiiPairs, n*(n-1))
	}
	if rep.EnergyPairs != n*(n-1)/2 {
		t.Errorf("energy pairs %d, want %d", rep.EnergyPairs, n*(n-1)/2)
	}
	if rep.Energy >= 0 {
		t.Errorf("energy %v", rep.Energy)
	}
	// Streaming memory, not quadratic.
	if rep.MemoryBytes > n*1024 {
		t.Errorf("Amber memory %d not O(N)", rep.MemoryBytes)
	}
}

func TestRunLargeStillOOMs(t *testing.T) {
	m := molecule.GenerateCapsid("rloom", 14000, 20, 83)
	var oom *ErrOutOfMemory
	if _, err := RunLarge(TinkerLike, m); !errors.As(err, &oom) {
		t.Error("Tinker did not OOM via RunLarge")
	}
}

func TestFig8bEndpointCalibration(t *testing.T) {
	// The calibration targets from the paper's Figure 8b at a mid-size
	// molecule: Gromacs ≈2.7–6.2× Amber, Tinker ≈2.1×, GBr⁶ ≈1.14×,
	// NAMD ≤1.1×. Allow generous bands — shape, not decimals.
	m := molecule.GenerateProtein("cal", 3000, 84)
	mach := simtime.Lonestar4()
	oc := simtime.DefaultOpCosts()

	timeOf := func(p Package, ranks, threads int) float64 {
		rep, err := Run(p, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.SimTime(ranks, threads, mach, oc).TotalSec
	}
	amber := timeOf(AmberLike, 12, 1)

	if s := amber / timeOf(GromacsLike, 12, 1); s < 2 || s > 8 {
		t.Errorf("Gromacs speedup %v outside [2,8]", s)
	}
	if s := amber / timeOf(TinkerLike, 1, 12); s < 1.2 || s > 3.5 {
		t.Errorf("Tinker speedup %v outside [1.2,3.5]", s)
	}
	if s := amber / timeOf(GBr6Like, 1, 1); s < 0.7 || s > 1.8 {
		t.Errorf("GBr6 speedup %v outside [0.7,1.8]", s)
	}
	if s := amber / timeOf(NAMDLike, 12, 1); s < 0.5 || s > 1.2 {
		t.Errorf("NAMD speedup %v outside [0.5,1.2]", s)
	}
}

func TestAllPackagesEnergiesFinite(t *testing.T) {
	m := molecule.GenerateCapsid("fin", 2000, 8, 85)
	for _, p := range All() {
		rep, err := Run(p, m, 0)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if math.IsNaN(rep.Energy) || math.IsInf(rep.Energy, 0) {
			t.Errorf("%v: energy %v", p, rep.Energy)
		}
		for i, rad := range rep.R {
			if math.IsNaN(rad) || rad <= 0 {
				t.Fatalf("%v: radius %d = %v", p, i, rad)
			}
		}
	}
}
