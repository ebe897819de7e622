package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// TestPreparedMatchesCold is the golden test of the Prepare/EvalEpol split:
// re-evaluating a cached Prepared must reproduce the cold path to 1e-12
// (in fact bitwise — both paths execute the same code), for several ε_E
// settings.
func TestPreparedMatchesCold(t *testing.T) {
	mol := molecule.GenerateProtein("golden", 900, 21)
	for _, epolEps := range []float64{0.9, 0.5} {
		o := Options{Threads: 2, EpolEps: epolEps}

		cold, err := RunReal(NewProblem(mol, surface.Default()), OctCilk, o)
		if err != nil {
			t.Fatalf("cold run: %v", err)
		}

		p, err := Prepare(NewProblem(mol, surface.Default()), o)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		warm, err := p.EvalEpol(o)
		if err != nil {
			t.Fatalf("EvalEpol: %v", err)
		}

		if rel := math.Abs(warm.Energy-cold.Energy) / math.Abs(cold.Energy); rel > 1e-12 {
			t.Fatalf("ε_E=%g: cached energy %.15g vs cold %.15g (rel %.2g > 1e-12)",
				epolEps, warm.Energy, cold.Energy, rel)
		}
		for i := range cold.BornRadii {
			if math.Abs(warm.BornRadii[i]-cold.BornRadii[i]) > 1e-12*cold.BornRadii[i] {
				t.Fatalf("Born radius %d differs: %g vs %g", i, warm.BornRadii[i], cold.BornRadii[i])
			}
		}
		if warm.BornStats != cold.BornStats || warm.EpolStats != cold.EpolStats {
			t.Fatalf("work counters differ between cached and cold paths")
		}
	}
}

// TestPreparedReEvalStable: evaluating the same Prepared repeatedly and
// concurrently yields the same energy — the property that makes it safe
// to share one cache entry across requests. The roots of the held list
// are summed in root order, so the result is bitwise stable at any thread
// count; the concurrent calls are held to 1e-12 relative, the one-thread
// ones to the bit.
func TestPreparedReEvalStable(t *testing.T) {
	mol := molecule.GenerateProtein("stable", 600, 4)
	p, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 2})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	first, err := p.EvalEpol(Options{Threads: 2})
	if err != nil {
		t.Fatalf("EvalEpol: %v", err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	energies := make([]float64, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep, err := p.EvalEpol(Options{Threads: 2})
			energies[g], errs[g] = rep.Energy, err
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("concurrent EvalEpol %d: %v", g, errs[g])
		}
		if rel := math.Abs(energies[g]-first.Energy) / math.Abs(first.Energy); rel > 1e-12 {
			t.Fatalf("concurrent EvalEpol %d: %.17g vs %.17g (rel %.2g)", g, energies[g], first.Energy, rel)
		}
	}

	// Single-threaded evaluation has a fixed reduction order: bitwise.
	p1, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	a, err := p1.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatalf("EvalEpol: %v", err)
	}
	b, err := p1.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatalf("EvalEpol: %v", err)
	}
	if a.Energy != b.Energy {
		t.Fatalf("single-threaded re-eval not bitwise stable: %.17g vs %.17g", a.Energy, b.Energy)
	}
}

// TestPreparedEpsSweep: one Prepare amortizes across evaluations with
// different ε_E — each must match its own cold run.
func TestPreparedEpsSweep(t *testing.T) {
	mol := molecule.GenerateProtein("sweep", 500, 8)
	p, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 1, BornEps: 0.9})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, eps := range []float64{0.9, 0.7, 0.3} {
		warm, err := p.EvalEpol(Options{Threads: 1, EpolEps: eps})
		if err != nil {
			t.Fatalf("EvalEpol ε=%g: %v", eps, err)
		}
		cold, err := RunReal(NewProblem(mol, surface.Default()), OctCilk, Options{Threads: 1, BornEps: 0.9, EpolEps: eps})
		if err != nil {
			t.Fatalf("cold ε=%g: %v", eps, err)
		}
		if rel := math.Abs(warm.Energy-cold.Energy) / math.Abs(cold.Energy); rel > 1e-12 {
			t.Fatalf("ε=%g: cached %.15g vs cold %.15g", eps, warm.Energy, cold.Energy)
		}
	}
}

// TestNewProblemFromSurface: a problem assembled from an external point set
// equals one sampled internally from the same molecule/options.
func TestNewProblemFromSurface(t *testing.T) {
	mol := molecule.GenerateProtein("ext", 400, 15)
	qpts := surface.Sample(mol, surface.Default())
	a := NewProblem(mol, surface.Default())
	b := NewProblemFromSurface(mol, qpts)
	if len(a.QPts) != len(b.QPts) || len(a.Charges) != len(b.Charges) {
		t.Fatalf("problem shapes differ")
	}
	ra, err := RunReal(a, OctCilk, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunReal(b, OctCilk, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Energy != rb.Energy {
		t.Fatalf("energy differs: %.15g vs %.15g", ra.Energy, rb.Energy)
	}
}

// TestPreparedMemoryBytes: the cache charge estimate is positive and grows
// with the molecule.
func TestPreparedMemoryBytes(t *testing.T) {
	small, err := Prepare(NewProblem(molecule.GenerateProtein("s", 200, 1), surface.Default()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Prepare(NewProblem(molecule.GenerateProtein("l", 2000, 1), surface.Default()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", small.MemoryBytes())
	}
	if large.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("MemoryBytes does not grow with problem size: %d vs %d", large.MemoryBytes(), small.MemoryBytes())
	}
}

// liveHeap is the heap in use after a full collection, with core.Free
// drained first so that what it held is not counted and the next build
// allocates everything it keeps.
func liveHeap() int64 {
	core.Free.Drain()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPreparedMemoryBytesIsTheLiveHeap holds the figure the serve cache
// budgets on to what a cached entry really keeps alive: the molecule, the
// q-points, both octrees and the solver's coordinate streams — measured as
// the live-heap growth of building one, to within 10 %.
func TestPreparedMemoryBytesIsTheLiveHeap(t *testing.T) {
	before := liveHeap()
	mol := molecule.GenerateProtein("heap", 2000, 9)
	p, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - before
	got := p.MemoryBytes()
	t.Logf("MemoryBytes %d, live heap %d (%.3f)", got, held, float64(got)/float64(held))
	if d := float64(got-held) / float64(held); d < -0.10 || d > 0.10 {
		t.Errorf("MemoryBytes = %d, live heap grew by %d (%+.1f%%), want within 10%%", got, held, 100*d)
	}
	runtime.KeepAlive(p)
}

// TestPreparedEvalEpolConcurrent: goroutines evaluating one Prepared at
// once, at one and at two threads, share its E_pol solver and held list;
// every one-thread result is the bits of a lone evaluation, every
// two-thread one agrees to the last ulps. Run under make race, this is the
// check that the shared solver and list are only read.
func TestPreparedEvalEpolConcurrent(t *testing.T) {
	mol := molecule.GenerateProtein("concurrent", 600, 12)
	p, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int]RealReport{}
	for _, threads := range []int{1, 2} {
		if ref[threads], err = p.EvalEpol(Options{Threads: threads}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 4, 3
	got := make([][]RealReport, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, err := p.EvalEpol(Options{Threads: 1 + (g+r)%2})
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], rep)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for r, rep := range got[g] {
			threads := 1 + (g+r)%2
			want := ref[threads]
			switch {
			case threads == 1 && rep.Energy != want.Energy:
				t.Errorf("goroutine %d round %d: one-thread energy %.17g, alone %.17g", g, r, rep.Energy, want.Energy)
			case math.Abs(rep.Energy-want.Energy) > 1e-12*math.Abs(want.Energy):
				t.Errorf("goroutine %d round %d: two-thread energy %.17g, alone %.17g", g, r, rep.Energy, want.Energy)
			case rep.EpolStats != want.EpolStats:
				t.Errorf("goroutine %d round %d: work %+v, alone %+v", g, r, rep.EpolStats, want.EpolStats)
			}
		}
	}
}

// TestPreparedOtherEpsIsFreshBits: an evaluation at an ε_E other than the
// prepared one builds its own solver and gives the bits and the work of a
// Prepare made at that ε_E; the prepared solver is then still the one an
// evaluation at the prepared ε_E uses.
func TestPreparedOtherEpsIsFreshBits(t *testing.T) {
	mol := molecule.GenerateProtein("other-eps", 500, 3)
	p, err := Prepare(NewProblem(mol, surface.Default()), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{{Threads: 1, EpolEps: 0.5}, {Threads: 1, EpolEps: 0.7}} {
		got, err := p.EvalEpol(o)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Prepare(NewProblem(mol, surface.Default()), o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvalEpol(o)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Energy || got.EpolStats != want.EpolStats {
			t.Errorf("%+v: %.17g %+v, fresh Prepare %.17g %+v", o, got.Energy, got.EpolStats, want.Energy, want.EpolStats)
		}
	}
	after, err := p.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.Energy != before.Energy {
		t.Errorf("prepared ε_E after other evaluations: %.17g, before %.17g", after.Energy, before.Energy)
	}
}

// streamedEpol is the oracle of the held list: the dual E_pol traversal of
// a fresh solver over p's tree, charges and Born radii at o's E_pol
// settings, streamed through one tile that takes the whole traversal —
// core's StreamEpolDual from the root with an unbounded tile, which is
// EvalEpolList of the materialised list bit for bit. It returns the energy,
// the work, and the magnitude of the self terms, a floor for comparing
// energies that cancel.
func streamedEpol(p *Prepared, o Options) (energy float64, st core.Stats, self float64) {
	o = o.withDefaults(OctCilk)
	es := core.NewEpolSolver(p.bs.TA, p.Pr.Charges, p.BornRadii, o.epolConfig())
	defer es.Release()
	raw, st := es.EvalEpolList(es.BuildEpolDualList())
	for i, q := range p.Pr.Charges {
		self += q * q / p.BornRadii[i]
	}
	return raw * core.EnergyScale(), st, math.Abs(self * core.EnergyScale())
}

// checkHeldList evaluates p twice at o and holds the answer to the
// streamed oracle — energy within 1e-12 relative (of the self terms when
// the energy cancels below them), equal work — and the second evaluation
// to the first's bits.
func checkHeldList(t *testing.T, p *Prepared, o Options) RealReport {
	t.Helper()
	got, err := p.EvalEpol(o)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, self := streamedEpol(p, o)
	if d := math.Abs(got.Energy - want); !(d <= 1e-12*math.Max(math.Abs(want), self)) && got.Energy != want {
		t.Errorf("%+v: held list %.17g, streamed %.17g (diff %.3g)", o, got.Energy, want, d)
	}
	if got.EpolStats != wantSt {
		t.Errorf("%+v: held-list work %+v, streamed %+v", o, got.EpolStats, wantSt)
	}
	again, err := p.EvalEpol(o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.Energy) != math.Float64bits(got.Energy) {
		t.Errorf("%+v: second evaluation %.17g, first %.17g", o, again.Energy, got.Energy)
	}
	return got
}

// TestPreparedHeldListMatchesStreamed: the list Prepare holds, and the
// traversal an evaluation at other E_pol settings builds root by root for
// itself, answer what the streamed dual traversal they replaced answers —
// across molecule sizes, thread counts, the prepared ε_E and another — and
// repeat bit for bit, at the prepared thread count and at any other.
func TestPreparedHeldListMatchesStreamed(t *testing.T) {
	for _, n := range []int{300, 1000, 2500} {
		pr := testProblem(n, 41)
		for _, threads := range []int{1, 2, 3} {
			// "exact" names the one arithmetic; the case names stay stable.
			t.Run(fmt.Sprintf("n=%d/p=%d/exact", n, threads), func(t *testing.T) {
				p, err := Prepare(pr, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range []Options{{}, {EpolEps: 0.5}} {
					o.Threads = threads
					base := checkHeldList(t, p, o)
					o.Threads = threads%3 + 1
					rep, err := p.EvalEpol(o)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(rep.Energy) != math.Float64bits(base.Energy) {
						t.Errorf("%+v: %.17g, at %d threads %.17g", o, rep.Energy, threads, base.Energy)
					}
				}
			})
		}
	}
}

// FuzzPreparedEvalEpol holds the held list, and the one-shot traversal at
// another ε_E, to the streamed oracle on
// molecules of up to 64 atoms read from the input, eight bytes an atom:
// three coordinates of two bytes each, within ±12.7 Å on a 0.1 Å grid
// (coincident atoms included), a radius of 1–3.55 Å and a charge of
// ±1.28 e. The first byte's low bit picks the thread count.
func FuzzPreparedEvalEpol(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 0, 50, 200})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 20, 100, 0, 15, 0, 0, 0, 0, 20, 156, 0, 0, 0, 15, 0, 0, 20, 100})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 90, 40, 1, 2, 3, 4, 5, 6, 90, 40, 7, 7, 7, 7, 7, 7, 0, 255})
	seed := make([]byte, 1+8*64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		o := Options{Threads: 1 + int(data[0]&1)}
		coord := func(b []byte) float64 { return float64(int16(uint16(b[0])<<8|uint16(b[1]))%128) / 10 }
		mol := &molecule.Molecule{Name: "fuzz"}
		for a := data[1:]; len(a) >= 8 && len(mol.Atoms) < 64; a = a[8:] {
			mol.Atoms = append(mol.Atoms, molecule.Atom{
				Pos:    geom.V(coord(a[0:]), coord(a[2:]), coord(a[4:])),
				Radius: 1 + float64(a[6])/100,
				Charge: float64(int8(a[7])) / 100,
			})
		}
		p, err := Prepare(NewProblem(mol, surface.Default()), o)
		if err != nil {
			t.Fatal(err)
		}
		checkHeldList(t, p, o)
		checkHeldList(t, p, Options{Threads: o.Threads, EpolEps: 0.5})
	})
}

// evalEpolBytes is TotalAlloc per EvalEpol call at the prepared settings,
// after one call has left its tiles in core.Free.
func evalEpolBytes(t *testing.T, atoms int) float64 {
	t.Helper()
	p, err := Prepare(NewProblem(molecule.GenerateProtein("bytes", atoms, 5), surface.Default()), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Threads: 2}
	if _, err := p.EvalEpol(o); err != nil {
		t.Fatal(err)
	}
	const calls = 8
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		if _, err := p.EvalEpol(o); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / calls
}

// TestPreparedEvalEpolBytesDoNotGrow: a warm evaluation at the prepared
// settings allocates its traversal state, not the molecule's — its bytes
// per call at 2 500 atoms stay within 2× of those at 300. Rebuilding the
// solver's bins and row tables, or regrowing the tiles, scales with the
// atoms and breaks the bound.
func TestPreparedEvalEpolBytesDoNotGrow(t *testing.T) {
	small, large := evalEpolBytes(t, 300), evalEpolBytes(t, 2500)
	t.Logf("EvalEpol bytes per call: %.0f at 300 atoms, %.0f at 2500", small, large)
	if large > 2*small {
		t.Errorf("EvalEpol allocates %.0f B per call at 2500 atoms, %.0f at 300: want within 2×", large, small)
	}
}

// BenchmarkPreparedEvalEpol is the warm E_pol evaluation of a warm_serve
// molecule (2 500 atoms, two threads) at the prepared settings: the layer
// number of a cache hit's eval, as BenchmarkNewSession is of a session
// create.
func BenchmarkPreparedEvalEpol(b *testing.B) {
	p, err := Prepare(NewProblem(molecule.GenerateProtein("warm", 2500, 1), surface.Default()), Options{Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	o := Options{Threads: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvalEpol(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}
