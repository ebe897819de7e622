package baselines

import (
	"errors"
	"math"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

func TestSpecsSane(t *testing.T) {
	for _, p := range All() {
		s := p.Spec()
		if s.Name == "" || s.Name == "unknown" {
			t.Errorf("package %d has no spec", p)
		}
		if s.KernelFactor <= 0 || s.FrameworkFactor <= 0 {
			t.Errorf("%s: non-positive factors", s.Name)
		}
	}
	if len(All()) != 5 {
		t.Errorf("expected 5 baselines, got %d", len(All()))
	}
}

func TestAllBaselinesProduceNegativeEnergy(t *testing.T) {
	m := molecule.GenerateProtein("b", 900, 61)
	for _, p := range All() {
		rep, err := Run(p, m, 0)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if rep.Energy >= 0 {
			t.Errorf("%v: E_pol = %v", p, rep.Energy)
		}
		if rep.RadiiPairs == 0 || rep.EnergyPairs == 0 {
			t.Errorf("%v: zero work counters", p)
		}
	}
}

func TestEnergiesTrackReference(t *testing.T) {
	// Figure 9's structure: HCT/OBC/VolR6 packages close to the naive
	// surface-r⁶ energy; Tinker (STILL) around 70 %.
	m := molecule.GenerateProtein("f9", 900, 62)
	q := surface.Sample(m, surface.Default())
	Rref := gb.BornRadiiR6(m, q)
	eRef := gb.EpolNaive(m, Rref)

	close := func(p Package, lo, hi float64) {
		rep, err := Run(p, m, 0)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		ratio := rep.Energy / eRef
		if ratio < lo || ratio > hi {
			t.Errorf("%v: energy ratio %v outside [%v, %v]", p, ratio, lo, hi)
		}
	}
	close(AmberLike, 0.8, 1.25)
	close(GromacsLike, 0.8, 1.25)
	close(NAMDLike, 0.7, 1.3)
	close(GBr6Like, 0.75, 1.35)
	close(TinkerLike, 0.45, 0.92) // the 70%-of-naive package
}

func TestOutOfMemoryLimits(t *testing.T) {
	big := molecule.GenerateProtein("big", 14000, 63)
	var oom *ErrOutOfMemory
	if _, err := Run(TinkerLike, big, 0); !errors.As(err, &oom) {
		t.Error("Tinker did not OOM at 14k atoms")
	}
	if _, err := Run(GBr6Like, big, 0); !errors.As(err, &oom) {
		t.Error("GBr6 did not OOM at 14k atoms")
	}
	if _, err := Run(AmberLike, big, 0); err != nil {
		t.Errorf("Amber should handle 14k atoms: %v", err)
	}
	mid := molecule.GenerateProtein("mid", 11000, 64)
	if _, err := Run(TinkerLike, mid, 0); err != nil {
		t.Errorf("Tinker should handle 11k atoms: %v", err)
	}
}

func TestCutoffOverride(t *testing.T) {
	m := molecule.GenerateProtein("c", 800, 65)
	def, err := Run(GromacsLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(GromacsLike, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.RadiiPairs >= def.RadiiPairs {
		t.Error("cutoff override did not reduce work")
	}
	// Tiny cutoffs give badly wrong energies (under-descreened Born radii
	// inflate the self term) — the paper's point about cutoff 2 being "not
	// a reasonable cutoff" for Gromacs on CMV.
	if rel := math.Abs(small.Energy-def.Energy) / math.Abs(def.Energy); rel < 0.2 {
		t.Errorf("cutoff-2 energy %v suspiciously close to default-cutoff %v", small.Energy, def.Energy)
	}
}

func TestSimTimeShapes(t *testing.T) {
	m := molecule.GenerateProtein("t", 2000, 66)
	mach := simtime.Lonestar4()
	oc := simtime.DefaultOpCosts()

	amber, err := Run(AmberLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	t1 := amber.SimTime(1, 1, mach, oc)
	t12 := amber.SimTime(12, 1, mach, oc)
	if t12.TotalSec >= t1.TotalSec {
		t.Errorf("Amber 12 ranks (%v) not faster than 1 (%v)", t12.TotalSec, t1.TotalSec)
	}

	// Gromacs' faster kernels: quicker than Amber at equal core counts.
	gro, err := Run(GromacsLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := gro.SimTime(12, 1, mach, oc); g.TotalSec >= t12.TotalSec {
		t.Errorf("Gromacs (%v) not faster than Amber (%v)", g.TotalSec, t12.TotalSec)
	}

	// NAMD's framework overhead: slower than Amber.
	namd, err := Run(NAMDLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nm := namd.SimTime(12, 1, mach, oc); nm.TotalSec <= t12.TotalSec {
		t.Errorf("NAMD (%v) not slower than Amber (%v)", nm.TotalSec, t12.TotalSec)
	}

	// Shared-only packages ignore extra ranks.
	tink, err := Run(TinkerLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk := tink.SimTime(12, 1, mach, oc); tk.Cores != 1 {
		t.Errorf("Tinker used %d cores with 12 ranks × 1 thread", tk.Cores)
	}
	if tk := tink.SimTime(1, 12, mach, oc); tk.Cores != 12 {
		t.Errorf("Tinker OpenMP should use 12 threads, got %d cores", tk.Cores)
	}
	gbr, err := Run(GBr6Like, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := gbr.SimTime(12, 12, mach, oc); g.Cores != 1 {
		t.Errorf("GBr6 is serial but used %d cores", g.Cores)
	}
}

func TestAmberRankCap(t *testing.T) {
	m := molecule.GenerateProtein("cap", 1000, 67)
	rep, err := Run(AmberLike, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mach := simtime.Lonestar4()
	oc := simtime.DefaultOpCosts()
	at256 := rep.SimTime(256, 1, mach, oc)
	at512 := rep.SimTime(512, 1, mach, oc)
	if at512.Cores != 256 || at256.Cores != 256 {
		t.Errorf("Amber rank cap: %d / %d", at256.Cores, at512.Cores)
	}
}
