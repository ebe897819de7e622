package engine

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// recycleOpts is the session recipe of the recycling tests: the coarse
// surface keeps a 72-frame stream to a fraction of a second.
var recycleOpts = SessionOptions{
	Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
	Eval: Options{Threads: 1},
}

// streamEnergies returns a session's create energy and the energy of every
// frame, and counts the frames that re-derived a driver and those that
// refreshed the structure.
func streamEnergies(t *testing.T, ss *Session, frames []FrameDelta) (e []float64, rederiving, refreshing int) {
	t.Helper()
	e = []float64{ss.Energy()}
	for f, d := range frames {
		rep, err := ss.Step(d)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		e = append(e, rep.Energy)
		if rep.Rederived > 0 {
			rederiving++
		}
		if rep.Refreshed {
			refreshing++
		}
	}
	return e, rederiving, refreshing
}

// TestRecycledSessionIsBitIdentical holds a session built on a closed
// session's stores to a fresh one, bit for bit, on streams that stay
// incremental (0.15 Å), re-derive drivers (0.25 Å) and refresh the
// structure (0.6 Å). The stores come from a molecule of the same size, a
// larger and a smaller one, a session whose re-derivations spilled views
// out of their arenas, and one that stepped frames, so its marks and id
// lists were in use.
func TestRecycledSessionIsBitIdentical(t *testing.T) {
	mol := molecule.GenerateProtein("recycle", 400, 38)
	build := func(m *molecule.Molecule, st *sessionStores) *Session {
		t.Helper()
		if st == nil {
			st = new(sessionStores)
		}
		ss, err := newSession(m, recycleOpts, st)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	donors := []struct {
		name  string
		store func() *sessionStores
	}{
		{"same size", func() *sessionStores { return build(molecule.GenerateProtein("same", 400, 39), nil).release() }},
		{"larger", func() *sessionStores { return build(molecule.GenerateProtein("larger", 900, 40), nil).release() }},
		{"smaller", func() *sessionStores { return build(molecule.GenerateProtein("smaller", 180, 41), nil).release() }},
		{"spilled", func() *sessionStores {
			m := molecule.GenerateProtein("spill", 400, 42)
			ss := build(m, nil)
			streamEnergies(t, ss, homeJitter(m, 72, 10, 0.25, 43))
			if ss.spillBytes() == 0 {
				t.Fatal("the spilling donor never spilled a view")
			}
			return ss.release()
		}},
		{"stepped", func() *sessionStores {
			m := molecule.GenerateProtein("stepped", 400, 44)
			ss := build(m, nil)
			streamEnergies(t, ss, homeJitter(m, 3, 10, 0.15, 45))
			return ss.release()
		}},
	}
	for _, amp := range []float64{0.15, 0.25, 0.6} {
		frames := homeJitter(mol, 72, 10, amp, 46)
		want, rederiving, refreshing := streamEnergies(t, build(mol, nil), frames)
		t.Logf("%.2f Å: %d re-deriving and %d refreshing frames of 72", amp, rederiving, refreshing)
		if (amp == 0.25 && rederiving == 0) || (amp == 0.6 && refreshing == 0) {
			t.Fatalf("the %.2f Å stream misses the path it is here for", amp)
		}
		for _, d := range donors {
			got, _, _ := streamEnergies(t, build(mol, d.store()), frames)
			for f := range want {
				if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
					t.Fatalf("%.2f Å, stores of the %s donor: energy %d is %.17g, fresh %.17g", amp, d.name, f, got[f], want[f])
				}
			}
		}
	}
}

// TestSessionClose: a closed session answers ErrSessionClosed, keeps its
// last energy and frame, holds no bytes, and a second Close does nothing.
func TestSessionClose(t *testing.T) {
	mol := molecule.GenerateProtein("close", 120, 47)
	ss, err := NewSession(mol, recycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	move := FrameDelta{Moves: []AtomMove{{Index: 3, Pos: mol.Atoms[3].Pos.Add(geom.Vec3{X: 0.05})}}}
	rep, err := ss.Step(move)
	if err != nil {
		t.Fatal(err)
	}
	ss.Close()
	ss.Close()
	if _, err := ss.Step(move); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Step after Close: %v, want ErrSessionClosed", err)
	}
	if ss.Energy() != rep.Energy || ss.Frame() != 1 {
		t.Errorf("closed session reads energy %g frame %d, want %g and 1", ss.Energy(), ss.Frame(), rep.Energy)
	}
	if n := ss.MemoryBytes(); n != 0 {
		t.Errorf("closed session holds %d bytes", n)
	}
	if ss.release() != nil {
		t.Error("a second release handed stores back again")
	}
}

// createBytes is the heap a NewSession allocates.
func createBytes(t *testing.T, mol *molecule.Molecule) (*Session, uint64) {
	t.Helper()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	ss, err := NewSession(mol, SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}})
	runtime.ReadMemStats(&b)
	if err != nil {
		t.Fatal(err)
	}
	return ss, b.TotalAlloc - a.TotalAlloc
}

// TestCloseRecyclesStorage: a create after a Close takes the closed
// session's stores instead of allocating them.
func TestCloseRecyclesStorage(t *testing.T) {
	mol := molecule.GenerateProtein("recycle-bytes", 1500, 48)
	core.Free.Drain()
	ss, fresh := createBytes(t, mol)
	ss.Close()
	ss, recycled := createBytes(t, mol)
	t.Logf("create: fresh %.2f MB, recycled %.2f MB", float64(fresh)/1e6, float64(recycled)/1e6)
	if recycled > fresh/4 {
		t.Errorf("a create after Close allocated %d bytes, a fresh one %d: want at most a quarter", recycled, fresh)
	}
	ss.Close()
}

// TestSmallSessionAfterLargeClose: a session created right after a much
// larger one closed does not build in the larger one's storage. Its
// MemoryBytes stay within 2× a fresh session's, and its energy is the
// fresh one's, bit for bit.
func TestSmallSessionAfterLargeClose(t *testing.T) {
	o := SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}}
	small := molecule.GenerateProtein("small", 300, 49)
	core.Free.Drain()
	fresh, err := NewSession(small, o)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewSession(molecule.GenerateProtein("large", 3000, 50), o)
	if err != nil {
		t.Fatal(err)
	}
	large.Close()
	ss, err := NewSession(small, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("300 atoms after a closed 3 000: %.1f MB, fresh %.1f MB", float64(ss.MemoryBytes())/1e6, float64(fresh.MemoryBytes())/1e6)
	if ss.MemoryBytes() > 2*fresh.MemoryBytes() {
		t.Errorf("MemoryBytes %d after the large session closed, fresh %d: want at most 2×", ss.MemoryBytes(), fresh.MemoryBytes())
	}
	if math.Float64bits(ss.Energy()) != math.Float64bits(fresh.Energy()) {
		t.Errorf("energy %.17g after the large session closed, fresh %.17g", ss.Energy(), fresh.Energy())
	}
	ss.Close()
	fresh.Close()
}
