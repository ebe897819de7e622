package engine

import (
	"testing"

	"octgb/internal/surface"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Ranks: -1}).Validate(); err == nil {
		t.Error("negative ranks accepted")
	}
	if err := (Options{Threads: -2}).Validate(); err == nil {
		t.Error("negative threads accepted")
	}
	if err := (Options{BornEps: -0.1}).Validate(); err == nil {
		t.Error("negative Born ε accepted")
	}
	if err := (Options{EpolEps: -0.1}).Validate(); err == nil {
		t.Error("negative E_pol ε accepted")
	}
	if err := (Options{Ranks: 4, Threads: 6, BornEps: 0.9, EpolEps: 0.9}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestRunRealRejectsInvalidOptions(t *testing.T) {
	pr := testProblem(100, 301)
	if _, err := RunReal(pr, OctMPI, Options{BornEps: -1}); err == nil {
		t.Error("RunReal accepted invalid options")
	}
}

func TestNewProblemParallelMatchesSerial(t *testing.T) {
	m := testProblem(500, 303).Mol
	a := NewProblem(m, surface.Default())
	b := NewProblemParallel(m, surface.Default(), 4)
	if len(a.QPts) != len(b.QPts) {
		t.Fatalf("q-point counts differ: %d vs %d", len(a.QPts), len(b.QPts))
	}
	for i := range a.QPts {
		if a.QPts[i] != b.QPts[i] {
			t.Fatalf("q-point %d differs", i)
		}
	}
}
