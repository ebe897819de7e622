package octgb

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestComputeDefault(t *testing.T) {
	mol := GenerateProtein("api", 500, 3)
	res, err := Compute(mol, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy >= 0 {
		t.Errorf("E_pol = %v, want negative", res.Energy)
	}
	if len(res.BornRadii) != 500 {
		t.Errorf("Born radii: %d", len(res.BornRadii))
	}
	for i, r := range res.BornRadii {
		if r < mol.Atoms[i].Radius-1e-12 {
			t.Fatalf("Born radius %d below vdW", i)
		}
	}
}

func TestComputeZeroOptionsMeansDefaults(t *testing.T) {
	mol := GenerateProtein("api0", 300, 4)
	a, err := Compute(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(mol, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Zero options must resolve to the same ε and engine as the defaults:
	// the work counters are a function of those alone and repeat exactly.
	if a.Report.BornStats != b.Report.BornStats || a.Report.EpolStats != b.Report.EpolStats {
		t.Errorf("zero options did different work: born %+v vs %+v, epol %+v vs %+v",
			a.Report.BornStats, b.Report.BornStats, a.Report.EpolStats, b.Report.EpolStats)
	}
	// The default is 2 ranks × 2 threads, and which worker's partial sum a
	// term lands in is the scheduler's choice, so the energies of two runs
	// agree to rounding only. With one thread per rank the addition order is
	// fixed and the same comparison is bit for bit.
	if math.Abs(a.Energy-b.Energy) > 1e-12*math.Abs(b.Energy) {
		t.Errorf("zero options %v != defaults %v", a.Energy, b.Energy)
	}
	o := DefaultOptions()
	o.Threads = 1
	c, err := Compute(mol, o)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(mol, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Energy != d.Energy {
		t.Errorf("2 ranks × 1 thread is not repeatable: %v != %v", c.Energy, d.Energy)
	}
}

// TestComputePartialOptionsKeepTheirFields: leaving the decomposition unset
// defaults only the decomposition — the fields the caller did set reach the
// engine, so the run equals the fully spelled one.
func TestComputePartialOptionsKeepTheirFields(t *testing.T) {
	mol := GenerateProtein("api-partial", 1500, 4) // large enough for a far field, so ε matters
	base, err := Compute(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name           string
		short, spelled Options
	}{
		{"BornEps", Options{BornEps: 0.5},
			Options{Engine: OctMPICilk, Ranks: 2, Threads: 2, BornEps: 0.5, EpolEps: 0.9}},
		{"EpolEps", Options{EpolEps: 0.3},
			Options{Engine: OctMPICilk, Ranks: 2, Threads: 2, BornEps: 0.9, EpolEps: 0.3}},
	} {
		got, err := Compute(mol, c.short)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compute(mol, c.spelled)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy == base.Energy {
			t.Errorf("%s: option dropped, energy is the default run's %v", c.name, got.Energy)
		}
		if math.Abs(got.Energy-want.Energy) > 1e-12*math.Abs(want.Energy) {
			t.Errorf("%s: %v, fully spelled %v", c.name, got.Energy, want.Energy)
		}
		if got.Report.BornStats != want.Report.BornStats || got.Report.EpolStats != want.Report.EpolStats {
			t.Errorf("%s: work differs from the fully spelled run: born %+v vs %+v, epol %+v vs %+v", c.name,
				got.Report.BornStats, want.Report.BornStats, got.Report.EpolStats, want.Report.EpolStats)
		}
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	if _, err := Compute(nil, DefaultOptions()); err == nil {
		t.Error("nil molecule accepted")
	}
	if _, err := Compute(&Molecule{}, DefaultOptions()); err == nil {
		t.Error("empty molecule accepted")
	}
	bad := &Molecule{Name: "bad", Atoms: []Atom{{Radius: -1}}}
	if _, err := Compute(bad, DefaultOptions()); err == nil {
		t.Error("invalid molecule accepted")
	}
}

func TestComputeEnginesAgreeViaFacade(t *testing.T) {
	mol := GenerateProtein("api2", 400, 5)
	var energies []float64
	for _, k := range []Kind{OctCilk, OctMPI, OctMPICilk, NaiveExact} {
		o := DefaultOptions()
		o.Engine = k
		res, err := Compute(mol, o)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		energies = append(energies, res.Energy)
	}
	for _, e := range energies[1:] {
		if rel := math.Abs(e-energies[0]) / math.Abs(energies[0]); rel > 0.05 {
			t.Errorf("engines disagree: %v", energies)
		}
	}
}

func TestSimProjectionViaFacade(t *testing.T) {
	mol := GenerateProtein("api3", 800, 6)
	pr := NewProblem(mol, SurfaceOptions{})
	sm := BuildSimModel(pr, OctMPI, EngineOptions{})
	m := Lonestar4()
	t12 := sm.Time(12, 1, m, -1)
	t144 := sm.Time(144, 1, m, -1)
	if t144.TotalSec >= t12.TotalSec {
		t.Errorf("no projected scaling: %v vs %v", t144.TotalSec, t12.TotalSec)
	}
}

func TestCapsidViaFacade(t *testing.T) {
	mol := GenerateCapsid("apishell", 1200, 8, 7)
	res, err := Compute(mol, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy >= 0 {
		t.Errorf("capsid energy %v", res.Energy)
	}
}

// TestPrepareViaFacade: the public Prepare/EvalEpol split matches Compute
// on the shared-memory engine.
func TestPrepareViaFacade(t *testing.T) {
	mol := GenerateProtein("api-prep", 400, 6)
	so := SurfaceOptions{SubdivLevel: 1, Degree: 1, RadiusScale: 1}
	res, err := Compute(mol, Options{Engine: OctCilk, Threads: 1, BornEps: 0.9, EpolEps: 0.9, Surface: so})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(NewProblem(mol, so), EngineOptions{Threads: 1, BornEps: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.EvalEpol(EngineOptions{Threads: 1, EpolEps: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rep.Energy-res.Energy) / math.Abs(res.Energy); rel > 1e-12 {
		t.Fatalf("Prepare+EvalEpol %.17g vs Compute %.17g (rel %.2g)", rep.Energy, res.Energy, rel)
	}
	// A second evaluation reuses the preprocessing (bitwise with 1 thread).
	again, err := p.EvalEpol(EngineOptions{Threads: 1, EpolEps: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if again.Energy != rep.Energy {
		t.Fatalf("re-evaluation drifted: %.17g vs %.17g", again.Energy, rep.Energy)
	}
}

// TestServerViaFacade: the NewServer facade stands up a working service.
func TestServerViaFacade(t *testing.T) {
	s := NewServer(ServeConfig{Addr: "127.0.0.1:0", Workers: 1, Threads: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// degenerateMolecules are inputs at the edge of what the treecode assumes:
// one atom, two atoms on one point, no charge at all, and atoms on one line
// (flat octree boxes).
func degenerateMolecules() map[string]*Molecule {
	at := func(x, y, z, r, q float64) Atom {
		return Atom{Pos: Vec3{X: x, Y: y, Z: z}, Radius: r, Charge: q}
	}
	line := &Molecule{Name: "collinear"}
	for i := 0; i < 60; i++ {
		line.Atoms = append(line.Atoms, at(1.4*float64(i), 0, 0, 1.6, 0.3*float64(i%3-1)))
	}
	return map[string]*Molecule{
		"one atom":    {Name: "one", Atoms: []Atom{at(0, 0, 0, 1.5, 0.5)}},
		"coincident":  {Name: "coincident", Atoms: []Atom{at(1, 2, 3, 1.5, 0.5), at(1, 2, 3, 1.7, 0.5)}},
		"zero charge": {Name: "zero", Atoms: []Atom{at(0, 0, 0, 1.5, 0), at(3, 0, 0, 1.5, 0), at(0, 3, 0, 1.2, 0)}},
		"collinear":   line,
	}
}

// TestComputeDegenerateInputs: every engine gives each degenerate molecule
// a finite energy or an error, never a panic or a NaN — twice, so that the
// second solve builds in the storage of the first — and a normal molecule
// solved after them gets the energy it got before them, bit for bit.
func TestComputeDegenerateInputs(t *testing.T) {
	normal := GenerateProtein("after-degenerate", 300, 81)
	engines := []Options{
		{Engine: OctMPICilk, Ranks: 2, Threads: 1},
		{Engine: OctMPI, Ranks: 3, Threads: 1},
		{Engine: OctCilk, Ranks: 1, Threads: 1},
	}
	var before []float64
	for _, o := range engines {
		res, err := Compute(normal, o)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, res.Energy)
	}
	for name, mol := range degenerateMolecules() {
		for _, o := range engines {
			for round := 0; round < 2; round++ {
				res, err := Compute(mol, o)
				if err != nil {
					t.Logf("%s, %v: refused: %v", name, o.Engine, err)
					continue
				}
				if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
					t.Errorf("%s, %v, round %d: energy %g", name, o.Engine, round, res.Energy)
				}
			}
		}
	}
	for i, o := range engines {
		res, err := Compute(normal, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Energy) != math.Float64bits(before[i]) {
			t.Errorf("%v after the degenerate solves: energy %.17g, before %.17g", o.Engine, res.Energy, before[i])
		}
	}
}
