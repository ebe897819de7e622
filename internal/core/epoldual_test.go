package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/octree"
)

// The ORDERED dual-tree energy traversal the engines ran before the
// symmetric one replaced it, kept as the oracle: it walks ordered node
// pairs from (root, root), so every near block and every far bin-pair
// block is evaluated twice, once as (u, v) and once as (v, u). The
// symmetric traversal must add up the same interactions.

// epolDualOrdered is the ordered recursion.
func (s *EpolSolver) epolDualOrdered(u, v int32, st *Stats) float64 {
	st.NodesVisited++
	un := &s.T.Nodes[u]
	vn := &s.T.Nodes[v]
	d2 := un.Center.Dist2(vn.Center)
	if u != v && !s.smallBlock(un, vn) && epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
		return s.binApprox(u, v, d2, st)
	}
	if un.Leaf && vn.Leaf {
		ulo, uhi := s.T.PointRange(u)
		vlo, vhi := s.T.PointRange(v)
		var sum float64
		for i := ulo; i < uhi; i++ {
			pi, qi, ri := s.T.Points[i], s.q[i], s.R[i]
			for j := vlo; j < vhi; j++ {
				if i == j {
					sum += qi * qi / ri
					continue
				}
				sum += gb.PairTerm(qi, s.q[j], pi.Dist2(s.T.Points[j]), ri, s.R[j])
			}
		}
		st.NearPairs += int64(uhi-ulo) * int64(vhi-vlo)
		return sum
	}
	var sum float64
	if vn.Leaf || (!un.Leaf && un.Radius >= vn.Radius) {
		for _, ch := range un.Children {
			if ch != octree.NoChild {
				sum += s.epolDualOrdered(ch, v, st)
			}
		}
	} else {
		for _, ch := range vn.Children {
			if ch != octree.NoChild {
				sum += s.epolDualOrdered(u, ch, st)
			}
		}
	}
	return sum
}

// buildEpolDualOrderedList is the ordered traversal as an (ordinary,
// every-entry-counts-once) interaction list, which puts the flat kernels
// behind the oracle too.
func (s *EpolSolver) buildEpolDualOrderedList() *InteractionList {
	l := new(InteractionList)
	if len(s.T.Nodes) == 0 {
		return l
	}
	var stack pairStack
	stack.push(0, 0)
	for len(stack) > 0 {
		p := stack.pop()
		u, v := p.A, p.B
		l.stats.NodesVisited++
		un := &s.T.Nodes[u]
		vn := &s.T.Nodes[v]
		d2 := un.Center.Dist2(vn.Center)
		if u != v && !s.smallBlock(un, vn) && epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
			l.Far = append(l.Far, p)
			l.stats.FarEval += s.nnz(u) * s.nnz(v)
			continue
		}
		if un.Leaf && vn.Leaf {
			l.Near = append(l.Near, p)
			l.stats.NearPairs += int64(un.Count) * int64(vn.Count)
			continue
		}
		if vn.Leaf || (!un.Leaf && un.Radius >= vn.Radius) {
			for c := 7; c >= 0; c-- {
				if ch := un.Children[c]; ch != octree.NoChild {
					stack.push(ch, v)
				}
			}
		} else {
			for c := 7; c >= 0; c-- {
				if ch := vn.Children[c]; ch != octree.NoChild {
					stack.push(u, ch)
				}
			}
		}
	}
	return l
}

// syntheticRadii gives the degenerate molecules Born radii that spread
// over several bins without a surface to integrate over.
func syntheticRadii(n int) []float64 {
	R := make([]float64, n)
	for i := range R {
		R[i] = 1.2 + 0.9*float64(i%7)
	}
	return R
}

// clumpedMol is a protein with `clump` extra atoms on one point: the octree
// cannot separate them, so they end up in one depth-capped leaf.
func clumpedMol(n, clump int, seed int64) *molecule.Molecule {
	m := molecule.GenerateProtein("clump", n, seed)
	at := m.Atoms[n/2]
	for k := 0; k < clump; k++ {
		at.Charge = 0.3 - 0.1*float64(k%5)
		m.Atoms = append(m.Atoms, at)
	}
	return m
}

// TestSymmetricDualMatchesOrdered holds the symmetric dual traversal to the
// ordered one it replaced: the same energy up to reassociation, exactly
// half the far-field work, and the near-field work halved but for the
// leaves' diagonal blocks — in the recursion and in the list. "Up to
// reassociation" is 1e-12.
func TestSymmetricDualMatchesOrdered(t *testing.T) {
	type input struct {
		name string
		mol  *molecule.Molecule
		R    []float64
	}
	protein := func(n int) input {
		m, q := testMol(n, int64(19+n))
		return input{fmt.Sprintf("n=%d", n), m, treecodeRadii(m, q)}
	}
	synthetic := func(name string, m *molecule.Molecule) input {
		return input{name, m, syntheticRadii(m.N())}
	}
	inputs := []input{
		synthetic("n=1", molecule.GenerateProtein("one", 1, 3)),
		synthetic("n=2", molecule.GenerateProtein("two", 2, 4)),
		synthetic("one-leaf", molecule.GenerateProtein("leaf", octree.DefaultLeafSize-3, 5)),
		synthetic("wide-leaf", clumpedMol(150, epolTileCap+6, 6)),
		synthetic("coincident-pair", clumpedMol(40, 1, 7)),
	}
	for _, n := range goldenSizes(t) {
		inputs = append(inputs, protein(n))
	}
	for _, in := range inputs {
		// "math=0/prec=0" is exact float64, the one arithmetic; the case
		// names stay stable.
		t.Run(fmt.Sprintf("%s/math=0/prec=0", in.name), func(t *testing.T) {
			es := NewEpolSolverFromMolecule(in.mol, in.R, 0, EpolConfig{Eps: 0.9})
			var leafSq int64
			widest := int32(0)
			for _, n := range es.T.LeafIdx {
				c := es.T.Nodes[n].Count
				leafSq += int64(c) * int64(c)
				widest = max(widest, c)
			}
			switch in.name {
			case "one-leaf":
				if len(es.T.Nodes) != 1 {
					t.Fatalf("one-leaf molecule has %d nodes", len(es.T.Nodes))
				}
			case "wide-leaf":
				if widest <= epolTileCap {
					t.Fatalf("widest leaf holds %d atoms, want > %d", widest, epolTileCap)
				}
			}
			counters := func(label string, sym, ord Stats) {
				t.Helper()
				if 2*sym.FarEval != ord.FarEval {
					t.Errorf("%s: FarEval %d, ordered %d, want exactly half", label, sym.FarEval, ord.FarEval)
				}
				if 2*sym.NearPairs-leafSq != ord.NearPairs {
					t.Errorf("%s: NearPairs %d (Σ leaf n² = %d), ordered %d", label, sym.NearPairs, leafSq, ord.NearPairs)
				}
			}
			energy := func(label string, sym, ord float64) {
				t.Helper()
				if e := relErr(sym, ord); e > 1e-12 || math.IsNaN(sym) {
					t.Errorf("%s: energy %v, ordered %v (rel %v)", label, sym, ord, e)
				}
			}

			ordList := es.buildEpolDualOrderedList()
			ordRaw, ordSt := es.EvalEpolList(ordList)
			symRaw, symSt := es.EvalEpolList(es.BuildEpolDualList())
			counters("list", symSt, ordSt)
			energy("list", symRaw, ordRaw)

			var recSt Stats
			recRaw := es.epolDualOrdered(0, 0, &recSt)
			if recSt != ordSt {
				t.Fatalf("oracle: ordered recursion %+v, ordered list %+v", recSt, ordSt)
			}
			dRaw, dSt := es.EnergyDual()
			if dSt != symSt {
				t.Errorf("stats: recursion %+v, list %+v", dSt, symSt)
			}
			energy("recursion", dRaw, recRaw)
		})
	}
}

// EnergyDualPair runs the energy dual-tree recursion from one node pair —
// a self pair when u == v — and returns what it contributes to the raw sum
// (scale by EnergyScale), a mutual pair's factor of two included.
func (s *EpolSolver) EnergyDualPair(u, v int32) (float64, Stats) {
	var st Stats
	e := s.epolDual(NodePair{u, v}, &st)
	return e, st
}

// StreamEpolDual is EvalEpolList(BuildEpolDualList()) below the given root
// pairs, taken in order (EpolDualFrontier's pairs, or {0, 0} for the whole
// traversal), without the list: the traversal fills tile up to
// bornTileEntries, the range kernels sum it, and the same storage takes the
// next tile. It returns the roots' part of the raw sum and the Stats of
// the traversal below them. The engines evaluated the dual energy
// traversal this way before the held list (BuildDualList) replaced it; it
// is that list's oracle.
func (s *EpolSolver) StreamEpolDual(tile *InteractionList, roots []NodePair) (float64, Stats) {
	return s.streamEpolDual(tile, roots, bornTileEntries)
}

func (s *EpolSolver) streamEpolDual(tile *InteractionList, roots []NodePair, limit int) (float64, Stats) {
	tile.reset()
	tile.symmetric = true
	for i := len(roots) - 1; i >= 0; i-- {
		tile.stack.push(roots[i].A, roots[i].B)
	}
	var raw float64
	for len(tile.stack) > 0 {
		s.fillEpolDual(tile, limit)
		e, _ := s.EvalEpolList(tile)
		raw += e
		tile.Near, tile.Far = tile.Near[:0], tile.Far[:0]
	}
	return raw, tile.stats
}

// evalDualList is the raw sum of a held list, root by root in root order —
// the engine's reduction.
func (s *EpolSolver) evalDualList(d *DualList) float64 {
	var raw float64
	for r := 0; r < d.Roots(); r++ {
		seg := d.Root(r)
		e, _ := s.EvalEpolList(&seg)
		raw += e
	}
	return raw
}

// TestDualListMatchesStreamed holds the held list to the streamed
// traversal it replaced: for frontiers of one to many roots, the same
// Stats (the frontier's visits included) and the same energy up to
// reassociation; the roots are the frontier's and partition the whole
// list in order; each root built alone (BuildDualRootInto) is the held
// root, bit for bit; and a rebuild in the same storage repeats bit for bit.
func TestDualListMatchesStreamed(t *testing.T) {
	for _, n := range []int{300, 1200} {
		m, q := testMol(n, 79)
		R := treecodeRadii(m, q)
		for _, cfg := range []EpolConfig{{Eps: 0.9}, {Eps: 0.5}} {
			es := NewEpolSolverFromMolecule(m, R, 0, cfg)
			whole := es.BuildEpolDualList()
			for _, minRoots := range []int{1, 32, 96, 1 << 20} {
				name := fmt.Sprintf("n=%d/%+v/roots=%d", n, cfg, minRoots)
				front, expand := es.EpolDualFrontier(minRoots)
				var tile InteractionList
				want, wantSt := es.StreamEpolDual(&tile, front)
				wantSt.Add(expand)
				d := es.BuildDualList(minRoots)
				if d.Roots() != len(front) {
					t.Fatalf("%s: %d roots, frontier %d", name, d.Roots(), len(front))
				}
				if d.Stats() != wantSt {
					t.Errorf("%s: stats %+v, streamed %+v", name, d.Stats(), wantSt)
				}
				if !slices.Equal(d.list.Near, whole.Near) || !slices.Equal(d.list.Far, whole.Far) {
					t.Errorf("%s: the roots' lists in order are not the whole list", name)
				}
				got := es.evalDualList(d)
				if e := relErr(got, want); e > 1e-12 || math.IsNaN(got) {
					t.Errorf("%s: energy %v, streamed %v (rel %v)", name, got, want, e)
				}
				// The one-shot form builds each root alone into a reused
				// tile: the root's entries, the root's bits, the same Stats.
				oneSt := expand
				for r, root := range front {
					seg := d.Root(r)
					one := es.BuildDualRootInto(&tile, root)
					if !slices.Equal(one.Near, seg.Near) || !slices.Equal(one.Far, seg.Far) {
						t.Fatalf("%s: root %d built alone differs from the held root", name, r)
					}
					eOne, st := es.EvalEpolList(one)
					eSeg, _ := es.EvalEpolList(&seg)
					if math.Float64bits(eOne) != math.Float64bits(eSeg) {
						t.Errorf("%s: root %d alone %v, held %v", name, r, eOne, eSeg)
					}
					oneSt.Add(st)
				}
				if oneSt != wantSt {
					t.Errorf("%s: one-shot stats %+v, streamed %+v", name, oneSt, wantSt)
				}
				near, far := &d.list.Near[0], &d.list.Far[0]
				again := es.evalDualList(es.BuildDualList(minRoots))
				if math.Float64bits(again) != math.Float64bits(got) {
					t.Errorf("%s: rebuilt list %v, first %v", name, again, got)
				}
				if &d.list.Near[0] != near || &d.list.Far[0] != far {
					t.Errorf("%s: the rebuild did not reuse the store", name)
				}
			}
		}
	}
	empty := NewEpolSolverFromMolecule(&molecule.Molecule{}, nil, 0, EpolConfig{})
	if d := empty.BuildDualList(8); d.Roots() != 0 || d.Stats() != (Stats{}) {
		t.Errorf("empty tree: %d roots, stats %+v", d.Roots(), d.Stats())
	}
}

// TestStreamedEpolMatchesMaterialised holds the streamed dual energy
// traversal to the materialised list: the same Stats and the same energy
// up to reassociation for any tile size, from the root or from frontier
// pairs in batches; and a fixed tile size repeats bit for bit.
func TestStreamedEpolMatchesMaterialised(t *testing.T) {
	m, q := testMol(1200, 77)
	R := treecodeRadii(m, q)
	for _, cfg := range []EpolConfig{
		{Eps: 0.9},
		{Eps: 0.5},
	} {
		es := NewEpolSolverFromMolecule(m, R, 0, cfg)
		want, wantSt := es.EvalEpolList(es.BuildEpolDualList())
		front, expand := es.EpolDualFrontier(64)
		for _, limit := range []int{1, 7, bornTileEntries, math.MaxInt} {
			name := fmt.Sprintf("%+v/tile=%d", cfg, limit)
			var tile InteractionList
			got, st := es.streamEpolDual(&tile, []NodePair{{0, 0}}, limit)
			if st != wantSt {
				t.Errorf("%s: stats %+v, materialised %+v", name, st, wantSt)
			}
			if e := relErr(got, want); e > 1e-12 {
				t.Errorf("%s: energy %v, materialised %v (rel %v)", name, got, want, e)
			}
			// The tile is reused as it comes back, stack and all.
			again, _ := es.streamEpolDual(&tile, []NodePair{{0, 0}}, limit)
			if math.Float64bits(again) != math.Float64bits(got) {
				t.Errorf("%s: second run %v, first %v", name, again, got)
			}

			// Frontier pairs in two batches, as two chunks of a pool's run.
			cut := len(front) / 3
			a, aSt := es.streamEpolDual(&tile, front[:cut], limit)
			b, bSt := es.streamEpolDual(&tile, front[cut:], limit)
			st = expand
			st.Add(aSt)
			st.Add(bSt)
			if st != wantSt {
				t.Errorf("%s/frontier: stats %+v, materialised %+v", name, st, wantSt)
			}
			if e := relErr(a+b, want); e > 1e-12 {
				t.Errorf("%s/frontier: energy %v, materialised %v (rel %v)", name, a+b, want, e)
			}
		}
	}
}

// TestEpolDualListCarriesItsWeight: the factor of two is the list's, so a
// range evaluated through the public kernels needs no caller-side weight.
func TestEpolDualListCarriesItsWeight(t *testing.T) {
	m, q := testMol(300, 5)
	es := NewEpolSolverFromMolecule(m, treecodeRadii(m, q), 0, EpolConfig{Eps: 0.9})
	l := es.BuildEpolDualList()
	var self, mutual float64
	for k, p := range l.Near {
		e := es.EvalEpolNearPair(p.A, p.B)
		if p.A == p.B {
			self += e
		} else {
			mutual += e
		}
		w := 2.0
		if p.A == p.B {
			w = 1
		}
		if got := es.EvalEpolNearRange(l, k, k+1); relErr(got, w*e) > 1e-12 {
			t.Fatalf("near[%d] = %v: range gives %v, want %v x %v", k, p, got, w, e)
		}
	}
	for _, p := range l.Far {
		if p.A == p.B {
			t.Fatalf("far entry %v is a self pair", p)
		}
		mutual += es.EvalEpolFarPair(p.A, p.B)
	}
	raw, _ := es.EvalEpolList(l)
	if e := relErr(raw, self+2*mutual); e > 1e-12 {
		t.Errorf("list sum %v, Σ self + 2·Σ mutual = %v (rel %v)", raw, self+2*mutual, e)
	}
}

// TestEpolDualFrontierCompletes: the frontier pairs are in visit order,
// complete to the whole traversal (energy and, with the expansion's own
// visits, Stats), hold no pair twice, and bottom out in terminal pairs.
func TestEpolDualFrontierCompletes(t *testing.T) {
	m, q := testMol(400, 93)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})

	full, fullSt := es.EnergyDual()
	whole := es.BuildEpolDualList()
	for _, minPairs := range []int{1, 2, 100, 1 << 20} {
		fr, st := es.EpolDualFrontier(minPairs)
		if minPairs == 100 && len(fr) < 100 {
			t.Fatalf("frontier too small: %d pairs", len(fr))
		}
		if minPairs == 1 && (len(fr) != 1 || fr[0] != NodePair{0, 0}) {
			t.Fatalf("minPairs=1: frontier %v", fr)
		}
		var sum float64
		seen := make(map[NodePair]bool, len(fr))
		for _, pr := range fr {
			if seen[pr] || seen[NodePair{pr.B, pr.A}] {
				t.Fatalf("minPairs=%d: pair %v appears twice", minPairs, pr)
			}
			seen[pr] = true
			e, s := es.EnergyDualPair(pr.A, pr.B)
			sum += e
			st.Add(s)
		}
		if e := relErr(sum, full); e > 1e-12 {
			t.Errorf("minPairs=%d: frontier sum %v != dual %v", minPairs, sum, full)
		}
		if st != fullSt {
			t.Errorf("minPairs=%d: stats %+v, whole traversal %+v", minPairs, st, fullSt)
		}
		if minPairs == 1<<20 {
			for _, pr := range fr {
				if es.epolKind(pr) == epolSplit {
					t.Fatalf("exhausted frontier still holds the expandable pair %v", pr)
				}
			}
		}
		// Visit order: the traversal resumed from the pairs is the traversal.
		var resumed InteractionList
		for i := len(fr) - 1; i >= 0; i-- {
			resumed.stack.push(fr[i].A, fr[i].B)
		}
		es.fillEpolDual(&resumed, math.MaxInt)
		if !slices.Equal(resumed.Near, whole.Near) || !slices.Equal(resumed.Far, whole.Far) {
			t.Errorf("minPairs=%d: the list below the frontier is not the list below the root", minPairs)
		}
	}

	empty := NewEpolSolverFromMolecule(&molecule.Molecule{}, nil, 0, EpolConfig{})
	if fr, st := empty.EpolDualFrontier(8); fr != nil || st != (Stats{}) {
		t.Errorf("empty tree: frontier %v, stats %+v", fr, st)
	}
	if e, st := empty.EnergyDual(); e != 0 || st != (Stats{}) {
		t.Errorf("empty tree: energy %v, stats %+v", e, st)
	}
}

// TestFrontiersStopAtTheTarget: both frontiers expand only as many pairs
// as the target needs, so the root count lands within one pair's children
// of it — 8 for a Born pair or an energy pair that splits one node, 36 for
// an energy self pair (8 self pairs and 28 mutual ones) — where expanding
// whole levels gave 497 roots for 64 at 2 500 atoms.
func TestFrontiersStopAtTheTarget(t *testing.T) {
	m, q := testMol(2500, 95)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	es := NewEpolSolver(bs.TA, make([]float64, m.N()), gb.BornRadiiR6(m, q), EpolConfig{Eps: 0.9})
	for _, target := range []int{32, 64} {
		born, _ := bs.DualFrontier(target)
		epol, _ := es.EpolDualFrontier(target)
		t.Logf("target %d: %d Born roots, %d E_pol roots", target, len(born), len(epol))
		if len(born) < target || len(born) >= target+8 {
			t.Errorf("target %d: %d Born roots, want [%d, %d)", target, len(born), target, target+8)
		}
		if len(epol) < target || len(epol) >= target+36 {
			t.Errorf("target %d: %d E_pol roots, want [%d, %d)", target, len(epol), target, target+36)
		}
	}
}
