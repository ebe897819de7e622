// Package integration exercises whole-pipeline scenarios across module
// boundaries: file I/O → surface → treecode → engines → cluster transport,
// the way a downstream user composes the library.
package integration

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/engine"
	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/simtime"
	"octgb/internal/surface"
)

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1e-30, math.Abs(b))
}

// TestPQRRoundTripPreservesEnergy: writing a molecule to PQR and reading it
// back must not change its energy beyond the format's 3-decimal rounding.
func TestPQRRoundTripPreservesEnergy(t *testing.T) {
	mol := molecule.GenerateProtein("io", 600, 101)
	var buf bytes.Buffer
	if err := molecule.WritePQR(&buf, mol); err != nil {
		t.Fatal(err)
	}
	back, err := molecule.ReadPQR(&buf, "io")
	if err != nil {
		t.Fatal(err)
	}

	e1 := quickEnergy(t, mol)
	e2 := quickEnergy(t, back)
	if e := relErr(e2, e1); e > 1e-3 {
		t.Errorf("energy drift through PQR: %v vs %v (rel %v)", e2, e1, e)
	}
}

func quickEnergy(t *testing.T, mol *molecule.Molecule) float64 {
	t.Helper()
	pr := engine.NewProblem(mol, surface.Default())
	rep, err := engine.RunReal(pr, engine.OctMPICilk, engine.Options{Ranks: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Energy
}

// TestTCPEngineMatchesInProcess: the same molecule through genuine TCP
// ranks (cmd/epolnode's path) and through in-process ranks must agree.
func TestTCPEngineMatchesInProcess(t *testing.T) {
	mol := molecule.GenerateProtein("tcp", 500, 102)
	pr := engine.NewProblem(mol, surface.Default())
	opts := engine.Options{Threads: 1, BornEps: 0.9, EpolEps: 0.9}

	inproc, err := engine.RunReal(pr, engine.OctMPI, engine.Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	const ranks = 3

	energies := make([]float64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := cluster.DialTCP(addr, r, ranks)
			if err != nil {
				errs[r] = err
				return
			}
			rep, err := engine.RunRank(c, pr, opts)
			energies[r], errs[r] = rep.Energy, err
		}(r)
	}
	root, err := cluster.NewTCPRoot(ln, ranks)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.RunRank(root, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	energies[0] = rep.Energy
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	// All ranks agree with each other and with the in-process run.
	for r := 1; r < ranks; r++ {
		if energies[r] != energies[0] {
			t.Errorf("rank %d energy %v != rank 0 %v", r, energies[r], energies[0])
		}
	}
	if e := relErr(energies[0], inproc.Energy); e > 1e-12 {
		t.Errorf("TCP energy %v vs in-process %v", energies[0], inproc.Energy)
	}
}

// TestDockingPoseInvariance: moving a molecule rigidly and recomputing
// through the whole pipeline changes E_pol only by surface-discretization
// noise — the correctness property behind the §IV-C octree-reuse argument.
func TestDockingPoseInvariance(t *testing.T) {
	mol := molecule.GenerateProtein("pose", 800, 103)
	e0 := quickEnergy(t, mol)
	tr := geom.RotationAxisAngle(geom.V(1, -1, 2), 1.2)
	tr.T = geom.V(50, 20, -70)
	e1 := quickEnergy(t, mol.Transform(tr))
	if e := relErr(e1, e0); e > 0.02 {
		t.Errorf("pose changed energy by %v (%v vs %v)", e, e1, e0)
	}
}

// TestComplexEnergyDecomposition: a far-separated "complex" has E_pol equal
// to the sum of its parts (no polarization coupling at distance), while a
// bound complex differs — the docking example's physics.
func TestComplexEnergyDecomposition(t *testing.T) {
	a := molecule.GenerateProtein("pa", 700, 104)
	b := molecule.GenerateProtein("pb", 500, 105)
	ea, eb := quickEnergy(t, a), quickEnergy(t, b)

	// Far apart: interaction negligible.
	farB := b.Transform(geom.Translation(geom.V(500, 0, 0)))
	far := molecule.Merge("far", a, farB)
	eFar := quickEnergy(t, far)
	if e := relErr(eFar, ea+eb); e > 0.01 {
		t.Errorf("separated complex energy %v != %v + %v (rel %v)", eFar, ea, eb, e)
	}

	// In contact: energies must not simply add (descreening changes radii).
	bound := molecule.GenerateComplex("bound", 700, 500, 104)
	_ = bound // just ensure it builds; quantitative check below on merge
	touchB := b.Transform(geom.Translation(geom.V(a.Bounds().Max.X-b.Bounds().Min.X+1.5, 0, 0)))
	eBound := quickEnergy(t, molecule.Merge("contact", a, touchB))
	if math.Abs(eBound-(ea+eb)) < 1e-6*math.Abs(ea+eb) {
		t.Error("bound complex energy suspiciously equals the sum of parts")
	}
}

// TestSimDeterminism: virtual-time runs are bit-reproducible.
func TestSimDeterminism(t *testing.T) {
	mol := molecule.GenerateProtein("det", 700, 106)
	pr := engine.NewProblem(mol, surface.Default())
	oc := simtime.DefaultOpCosts()
	m := simtime.Lonestar4()
	a := engine.BuildSimModel(pr, engine.OctMPICilk, engine.Options{}, oc)
	b := engine.BuildSimModel(pr, engine.OctMPICilk, engine.Options{}, oc)
	if a.Energy != b.Energy {
		t.Errorf("energies differ across identical builds: %v vs %v", a.Energy, b.Energy)
	}
	if x, y := a.Time(24, 6, m, -1), b.Time(24, 6, m, -1); x != y {
		t.Errorf("timings differ: %+v vs %+v", x, y)
	}
	if x, y := a.Time(24, 6, m, 7), b.Time(24, 6, m, 7); x != y {
		t.Errorf("jittered timings with equal seeds differ: %+v vs %+v", x, y)
	}
}

// serialEpol runs the leaf-driven pipeline serially on core's streamed
// lists — Born integrals, push, energy — and returns E_pol.
func serialEpol(mol *molecule.Molecule, q []surface.QPoint, bc core.BornConfig, ec core.EpolConfig) float64 {
	bs := core.NewBornSolver(mol, q, bc)
	sNode, sAtom := bs.NewAccumulators()
	var tile core.InteractionList
	bs.StreamBornLeaves(&tile, 0, bs.NumQLeaves(), sNode, sAtom)
	rTree := make([]float64, mol.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(mol.N()), rTree)
	charges := make([]float64, mol.N())
	for i := range mol.Atoms {
		charges[i] = mol.Atoms[i].Charge
	}
	es := core.NewEpolSolver(bs.TA, charges, bs.RadiiToOriginal(rTree), ec)
	var raw float64
	es.StreamEpolLeaves(&tile, 0, es.NumLeaves(), &raw)
	return raw * core.EnergyScale()
}

// TestR4VsR6Pipeline: both Born formulations run end to end; the energies
// differ (different radii) but both are physical.
func TestR4VsR6Pipeline(t *testing.T) {
	mol := molecule.GenerateProtein("r46", 600, 107)
	q := surface.Sample(mol, surface.Default())

	e6 := serialEpol(mol, q, core.BornConfig{Eps: 0.5}, core.EpolConfig{Eps: 0.5})
	e4 := serialEpol(mol, q, core.BornConfig{Eps: 0.5, Exponent: 4}, core.EpolConfig{Eps: 0.5})
	if e4 >= 0 || e6 >= 0 {
		t.Fatalf("non-negative energies: r4 %v r6 %v", e4, e6)
	}
	if e4 == e6 {
		t.Error("r4 and r6 pipelines produced identical energy")
	}
	// Cross-check r4 against the naive r4 reference.
	R4 := gb.BornRadiiR4(mol, q)
	naive4 := gb.EpolNaive(mol, R4)
	if e := relErr(e4, naive4); e > 0.03 {
		t.Errorf("r4 treecode %v vs naive r4 %v (rel %v)", e4, naive4, e)
	}
}

// TestLigandReceptorOctreeReuse: the Transform path on a built octree
// preserves the tree invariants and the energies it produces.
func TestLigandReceptorOctreeReuse(t *testing.T) {
	mol := molecule.GenerateProtein("reuse", 500, 108)
	q := surface.Sample(mol, surface.Default())
	bs := core.NewBornSolver(mol, q, core.BornConfig{})
	tr := geom.RotationAxisAngle(geom.V(0, 1, 0), 0.5)
	tr.T = geom.V(10, 0, 0)
	moved := bs.TA.Transform(tr)
	if err := func() error {
		// Transformed trees keep the enclosing-ball invariant; Validate
		// checks boxes too, which Transform only approximates, so check
		// balls directly.
		for i := range moved.Nodes {
			nd := &moved.Nodes[i]
			for j := nd.Start; j < nd.Start+nd.Count; j++ {
				if moved.Points[j].Dist(nd.Center) > nd.Radius+1e-9 {
					t.Fatalf("node %d ball violated after transform", i)
				}
			}
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndErrorBudget: at the paper's operating point the engines must
// land within a small error of the naive reference across several
// molecule shapes (globular, capsid, complex).
func TestEndToEndErrorBudget(t *testing.T) {
	cases := []*molecule.Molecule{
		molecule.GenerateProtein("glob", 900, 109),
		molecule.GenerateCapsid("shell", 900, 8, 110),
		molecule.GenerateComplex("cx", 700, 200, 111),
	}
	for _, mol := range cases {
		pr := engine.NewProblem(mol, surface.Default())
		R := gb.BornRadiiR6(mol, pr.QPts)
		naive := gb.EpolNaive(mol, R)
		for _, k := range []engine.Kind{engine.OctCilk, engine.OctMPI, engine.OctMPICilk} {
			rep, err := engine.RunReal(pr, k, engine.Options{Ranks: 2, Threads: 2})
			if err != nil {
				t.Fatalf("%s/%v: %v", mol.Name, k, err)
			}
			if e := relErr(rep.Energy, naive); e > 0.05 {
				t.Errorf("%s/%v: error %v (%v vs %v)", mol.Name, k, e, rep.Energy, naive)
			}
		}
	}
}
