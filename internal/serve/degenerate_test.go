package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

// degenerateMolecules are wire molecules at the edge of what the treecode
// assumes: one atom, two atoms on one point, no charge at all, and atoms
// on one line (flat octree boxes).
func degenerateMolecules() map[string]MoleculeJSON {
	line := MoleculeJSON{Name: "collinear"}
	for i := 0; i < 60; i++ {
		line.Atoms = append(line.Atoms, [5]float64{1.4 * float64(i), 0, 0, 1.6, 0.3 * float64(i%3-1)})
	}
	return map[string]MoleculeJSON{
		"one atom":    {Name: "one", Atoms: [][5]float64{{0, 0, 0, 1.5, 0.5}}},
		"coincident":  {Name: "coincident", Atoms: [][5]float64{{1, 2, 3, 1.5, 0.5}, {1, 2, 3, 1.7, 0.5}}},
		"zero charge": {Name: "zero", Atoms: [][5]float64{{0, 0, 0, 1.5, 0}, {3, 0, 0, 1.5, 0}, {0, 3, 0, 1.2, 0}}},
		"collinear":   line,
	}
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestServerDegenerateMolecules: /v1/energy and /v1/sweep answer each
// degenerate molecule with finite energies or a typed 400 — never a 5xx,
// a NaN or an empty 200 — at the prepared and another ε_E, as a sweep's
// ligand beside a receptor and alone, twice over. An evaluation at
// another ε_E releases its E_pol solver, so later builds take degenerate
// donors; a normal molecule solved after them gets the library's
// Prepare + EvalEpol energy bit for bit.
func TestServerDegenerateMolecules(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, ts := newTestServer(t, Config{Workers: 1, Threads: 1})
	normal := molecule.GenerateProtein("after-degenerate", 200, 82)
	eo := engine.Options{Threads: 1, BornEps: 0.9, EpolEps: 0.9}
	p, err := engine.Prepare(engine.NewProblem(normal, surface.Default()), eo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalEpol(eo)
	if err != nil {
		t.Fatal(err)
	}
	rec := FromMolecule(molecule.GenerateProtein("rec", 120, 83))
	for round := 0; round < 2; round++ {
		for name, m := range degenerateMolecules() {
			for _, o := range []*OptionsJSON{nil, {EpolEps: 0.5}, {BornEps: 0.8}} {
				var got EnergyResponse
				code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: m, Options: o}, &got)
				if code != http.StatusBadRequest && (code != http.StatusOK || !finite(got.Energy)) {
					t.Errorf("%s, options %+v: /v1/energy status %d energy %g", name, o, code, got.Energy)
				}
			}
			for _, req := range []SweepRequest{
				{Receptor: &rec, Ligand: m, Poses: []PoseJSON{{T: [3]float64{30, 0, 0}}, {T: [3]float64{2, 1, 0}}}},
				{Ligand: m, Poses: []PoseJSON{{T: [3]float64{1, 2, 3}}}},
			} {
				var got SweepResponse
				code := postJSON(t, ts.URL+"/v1/sweep", req, &got)
				if code == http.StatusBadRequest {
					continue
				}
				if code != http.StatusOK || len(got.Energies) != len(req.Poses) ||
					!finite(append(append(got.Energies, got.Deltas...), got.LigandEnergy, got.ReceptorEnergy)...) {
					t.Errorf("%s: /v1/sweep status %d response %+v", name, code, got)
				}
			}
		}
	}
	var got EnergyResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(normal)}, &got); code != http.StatusOK {
		t.Fatalf("normal molecule: status %d", code)
	}
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Errorf("normal molecule after the degenerate ones: energy %.17g, library %.17g", got.Energy, want.Energy)
	}
}

// TestServerNonFiniteEnergyAnswers500: a response that cannot be encoded —
// here the NaN energy of a prepared entry whose molecule carries a NaN
// charge, which no request could send — answers 500 eval_failed with a
// JSON body, not 200 with an empty one.
func TestServerNonFiniteEnergyAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1})
	mol := molecule.GenerateProtein("nan", 40, 84)
	mol.Atoms[3].Charge = math.NaN()
	p, err := engine.Prepare(engine.NewProblem(mol, surface.Default()), engine.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.Repeat("ab", 32)
	opts, err := s.resolveOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.cache.get(cacheKey(hash, opts), func() (*built, error) {
		return &built{prep: p, bytes: p.MemoryBytes()}, nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/energy", "application/json", strings.NewReader(`{"molecule":{"hash":"`+hash+`"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusInternalServerError || derr != nil || e.Error != "eval_failed" {
		t.Fatalf("NaN energy: status %d, body %+v (decode: %v), want 500 eval_failed with a body", resp.StatusCode, e, derr)
	}
}
