package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// The leaf-driven (single-tree, §IV) traversals as the engines ran them
// before the stackless walk and the mutual-once rule replaced them, kept as
// oracles: they walk T_A through the octree.Node records with an explicit
// stack, once per driver leaf, and the energy form evaluates every ordered
// leaf block — a mutual block twice, once from each of its leaves.

// fillBornLeavesStack is the explicit-stack fillBornLeaves.
func (s *BornSolver) fillBornLeavesStack(l *InteractionList, qLo, qHi, limit int) int {
	if len(s.TA.Nodes) == 0 || len(s.TQ.Nodes) == 0 {
		return qHi
	}
	stack := l.stack[:0]
	ql := qLo
	for ; ql < qHi && len(l.Near)+len(l.Far) < limit; ql++ {
		q := s.TQ.LeafIdx[ql]
		qn := &s.TQ.Nodes[q]
		qCount := int64(qn.Count)
		stack.push(0, q)
		for len(stack) > 0 {
			p := stack.pop()
			a := p.A
			l.stats.NodesVisited++
			an := &s.TA.Nodes[a]
			d2 := an.Center.Dist2(qn.Center)
			if wellSeparated2(d2, an.Radius, qn.Radius, s.sepK2) {
				l.Far = append(l.Far, NodePair{a, q})
				l.stats.FarEval++
				continue
			}
			if an.Leaf {
				l.Near = append(l.Near, NodePair{a, q})
				l.stats.NearPairs += int64(an.Count) * qCount
				continue
			}
			for c := 7; c >= 0; c-- {
				if ch := an.Children[c]; ch != octree.NoChild {
					stack.push(ch, q)
				}
			}
		}
	}
	l.stack = stack
	return ql
}

// buildEpolLeafListOrdered is the explicit-stack, ordered leaf-driven
// energy list: every leaf the driver reaches is a near entry that counts
// once.
func (s *EpolSolver) buildEpolLeafListOrdered(vLo, vHi int) *InteractionList {
	l := new(InteractionList)
	t := s.T
	if len(t.Nodes) == 0 {
		return l
	}
	var stack pairStack
	for vl := vLo; vl < vHi; vl++ {
		v := t.LeafIdx[vl]
		vn := &t.Nodes[v]
		stack.push(0, v)
		for len(stack) > 0 {
			p := stack.pop()
			u := p.A
			l.stats.NodesVisited++
			un := &t.Nodes[u]
			if un.Leaf {
				l.Near = append(l.Near, NodePair{u, v})
				l.stats.NearPairs += int64(un.Count) * int64(vn.Count)
				continue
			}
			d2 := un.Center.Dist2(vn.Center)
			if epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
				l.Far = append(l.Far, NodePair{u, v})
				l.stats.FarEval += s.nnz(u) * s.nnz(v)
				continue
			}
			for c := 7; c >= 0; c-- {
				if ch := un.Children[c]; ch != octree.NoChild {
					stack.push(ch, v)
				}
			}
		}
	}
	return l
}

// epolVisitOrdered is the ordered recursion of Fig. 3, rows of the driver
// leaf restricted to [from, to) as LeafEnergyRows restricts them.
func (s *EpolSolver) epolVisitOrdered(u, v, from, to int32, st *Stats) float64 {
	st.NodesVisited++
	un := &s.T.Nodes[u]
	vn := &s.T.Nodes[v]
	if un.Leaf {
		ulo, uhi := s.T.PointRange(u)
		var sum float64
		for i := ulo; i < uhi; i++ {
			pi, qi, ri := s.T.Points[i], s.q[i], s.R[i]
			for j := from; j < to; j++ {
				if i == j {
					sum += qi * qi / ri
					continue
				}
				sum += gb.PairTerm(qi, s.q[j], pi.Dist2(s.T.Points[j]), ri, s.R[j])
			}
		}
		st.NearPairs += int64(uhi-ulo) * int64(to-from)
		return sum
	}
	d2 := un.Center.Dist2(vn.Center)
	if epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
		return s.binApproxRows(u, v, from, to, st)
	}
	var sum float64
	for _, ch := range un.Children {
		if ch != octree.NoChild {
			sum += s.epolVisitOrdered(ch, v, from, to, st)
		}
	}
	return sum
}

// leafInput is one molecule of the leaf-driven suite with a surface and
// Born radii that need no reference run.
type leafInput struct {
	name string
	mol  *molecule.Molecule
	qpts []surface.QPoint
	R    []float64
}

func leafInputs(t testing.TB) []leafInput {
	mk := func(name string, m *molecule.Molecule) leafInput {
		return leafInput{name, m, surface.Sample(m, surface.Default()), syntheticRadii(m.N())}
	}
	in := []leafInput{
		mk("empty", &molecule.Molecule{}),
		mk("one-atom", molecule.GenerateProtein("one", 1, 3)),
		mk("coincident", clumpedMol(150, octree.DefaultLeafSize+9, 6)),
		mk("protein-300", molecule.GenerateProtein("p300", 300, 11)),
		mk("protein-2000", molecule.GenerateProtein("p2000", 2000, 12)),
		mk("capsid-slice", molecule.GenerateCapsid("shell", 1500, 6, 13)),
	}
	if !testing.Short() {
		in = append(in, mk("protein-4000", molecule.GenerateProtein("p4000", 4000, 14)))
	}
	return in
}

// TestStacklessBornWalkMatchesStack: the stackless walk over the skip index
// and the geometry mirrors must file exactly what the explicit-stack walk
// over the Node records files — the same Near and Far entries in the same
// order, the same Stats, the same tile boundaries — for any tile limit.
func TestStacklessBornWalkMatchesStack(t *testing.T) {
	for _, in := range leafInputs(t) {
		bs := NewBornSolver(in.mol, in.qpts, BornConfig{Eps: 0.9})
		if in.name == "coincident" {
			deep := false
			for _, n := range bs.TA.LeafIdx {
				deep = deep || int(bs.TA.Nodes[n].Count) > bs.TA.LeafSize
			}
			if !deep {
				t.Fatalf("%s: no depth-capped leaf in T_A", in.name)
			}
		}
		lo, hi := 0, bs.NumQLeaves()
		if hi > 10 {
			lo, hi = hi/7, hi-hi/5 // a segment, as a rank sees it
		}
		for _, limit := range []int{1, 7, bornTileEntries, math.MaxInt} {
			var got, want InteractionList
			for g, w := lo, lo; w < hi || g < hi; {
				got.Near, got.Far = got.Near[:0], got.Far[:0]
				want.Near, want.Far = want.Near[:0], want.Far[:0]
				g = bs.fillBornLeaves(&got, g, hi, limit)
				w = bs.fillBornLeavesStack(&want, w, hi, limit)
				if g != w || !slices.Equal(got.Near, want.Near) || !slices.Equal(got.Far, want.Far) || got.stats != want.stats {
					t.Fatalf("%s/tile=%d: stackless walk stopped at leaf %d with %d near, %d far, %+v; stack walk at %d with %d, %d, %+v",
						in.name, limit, g, len(got.Near), len(got.Far), got.stats, w, len(want.Near), len(want.Far), want.stats)
				}
			}
		}
	}
}

// pairsOf sums |u|·|v| over near entries.
func (s *EpolSolver) pairsOf(near []NodePair) int64 {
	var n int64
	for _, p := range near {
		n += int64(s.T.Nodes[p.A].Count) * int64(s.T.Nodes[p.B].Count)
	}
	return n
}

// TestMutualOnceListMatchesOrdered holds the stackless, mutual-once
// leaf-driven energy list to the ordered explicit-stack one. The far
// entries, NodesVisited and FarEval are the ordered walk's exactly. Each
// ordered near entry (u, v) is classified from the ordered list itself —
// mutual iff (v, u) is an entry too, the owner from the dense leaf indices —
// and must be in Near (self and one-sided blocks), in Mutual (owned) or
// nowhere (the other leaf's), in walk order; so each mutual block is
// evaluated exactly once, 2·pairs(Mutual) + pairs(Near) is the ordered
// NearPairs, and the energy is the ordered energy up to reassociation —
// through the list kernels, the stream, the recursion and its row-restricted
// form.
func TestMutualOnceListMatchesOrdered(t *testing.T) {
	for _, in := range leafInputs(t) {
		// "math=0" names the one arithmetic; the case names stay stable.
		t.Run(fmt.Sprintf("%s/math=0", in.name), func(t *testing.T) {
			es := NewEpolSolverFromMolecule(in.mol, in.R, 0, EpolConfig{Eps: 0.9})
			nl := es.NumLeaves()
			ord := es.buildEpolLeafListOrdered(0, nl)
			got := es.BuildEpolList(0, nl)

			if !slices.Equal(got.Far, ord.Far) {
				t.Fatalf("far entries differ from the ordered walk's (%d vs %d)", len(got.Far), len(ord.Far))
			}
			inOrd := make(map[NodePair]bool, len(ord.Near))
			for _, p := range ord.Near {
				inOrd[p] = true
			}
			leafNo := make(map[int32]int, nl)
			for i, n := range es.T.LeafIdx {
				leafNo[n] = i
			}
			var wantNear, wantMutual []NodePair
			for _, p := range ord.Near {
				i, j := leafNo[p.A], leafNo[p.B]
				switch {
				case i == j || !inOrd[NodePair{p.B, p.A}]:
					wantNear = append(wantNear, p)
				case (i+j)%2 == 1 && j > i, (i+j)%2 == 0 && j < i:
					wantMutual = append(wantMutual, p)
				}
			}
			if !slices.Equal(got.Near, wantNear) || !slices.Equal(got.Mutual, wantMutual) {
				t.Fatalf("near %d / mutual %d entries, the ordered list classifies %d / %d",
					len(got.Near), len(got.Mutual), len(wantNear), len(wantMutual))
			}
			n1, n2 := es.pairsOf(got.Near), es.pairsOf(got.Mutual)
			if 2*n2+n1 != ord.stats.NearPairs {
				t.Errorf("2·%d + %d near pairs, ordered %d", n2, n1, ord.stats.NearPairs)
			}
			want := Stats{FarEval: ord.stats.FarEval, NearPairs: n1 + n2, NodesVisited: ord.stats.NodesVisited}
			if got.stats != want {
				t.Errorf("stats %+v, want %+v (ordered %+v)", got.stats, want, ord.stats)
			}
			if in.name == "protein-2000" && 4*len(got.Mutual) < len(ord.Near) {
				t.Errorf("only %d of %d ordered blocks are owned mutual ones", len(got.Mutual), len(ord.Near))
			}

			ordRaw, _ := es.EvalEpolList(ord)
			energy := func(label string, raw float64, st Stats) {
				t.Helper()
				if e := relErr(raw, ordRaw); (e > 1e-12 && ordRaw != 0) || math.IsNaN(raw) {
					t.Errorf("%s: raw sum %v, ordered %v (rel %v)", label, raw, ordRaw, e)
				}
				if st != want {
					t.Errorf("%s: stats %+v, want %+v", label, st, want)
				}
			}
			raw, st := es.EvalEpolList(got)
			energy("list", raw, st)

			var tile InteractionList
			var streamed float64
			st = es.StreamEpolLeaves(&tile, 0, nl, &streamed)
			energy("stream", streamed, st)
			// Any cut of the range into calls on one accumulator is the
			// same additions in the same order.
			var chunked float64
			var cst Stats
			for _, seg := range [][2]int{{0, nl / 3}, {nl / 3, nl / 3}, {nl / 3, nl - nl/4}, {nl - nl/4, nl}} {
				cst.Add(es.StreamEpolLeaves(&tile, seg[0], seg[1], &chunked))
			}
			if math.Float64bits(chunked) != math.Float64bits(streamed) || cst != st {
				t.Errorf("stream in four calls: %v %+v, in one %v %+v", chunked, cst, streamed, st)
			}

			var rec, recOrd, rows float64
			var recSt, recOrdSt, rowsSt Stats
			na := int32(in.mol.N())
			for l := 0; l < nl; l++ {
				e, s := es.LeafEnergy(l)
				rec += e
				recSt.Add(s)
				vlo, vhi := es.T.PointRange(es.T.LeafIdx[l])
				recOrd += es.epolVisitOrdered(0, es.T.LeafIdx[l], vlo, vhi, &recOrdSt)
				for _, r := range [][2]int32{{0, na / 3}, {na / 3, na}} {
					e, s = es.LeafEnergyRows(l, r[0], r[1])
					rows += e
					rowsSt.Add(s)
				}
			}
			if recOrdSt != ord.stats {
				t.Fatalf("oracle: ordered recursion %+v, ordered list %+v", recOrdSt, ord.stats)
			}
			if e := relErr(recOrd, ordRaw); e > 1e-12 && ordRaw != 0 {
				t.Fatalf("oracle: ordered recursion %v, ordered list %v", recOrd, ordRaw)
			}
			energy("recursion", rec, recSt)
			if e := relErr(rows, ordRaw); e > 1e-12 && ordRaw != 0 {
				t.Errorf("row-restricted recursion: raw sum %v, ordered %v (rel %v)", rows, ordRaw, e)
			}
			if rowsSt.FarEval < want.FarEval || rowsSt.NearPairs != want.NearPairs {
				t.Errorf("row-restricted recursion: stats %+v, whole leaves %+v", rowsSt, want)
			}
		})
	}
}

// TestTreeMirrorsFollowRefresh: the skip index and the geometry mirrors the
// stackless walks read stay equal to the Node fields when a session-style
// RefreshGeometry refits the trees after points moved, so the walk keeps
// filing what the stack walk over the refitted Nodes files.
func TestTreeMirrorsFollowRefresh(t *testing.T) {
	m, q := testMol(500, 17)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	trees := map[string]*octree.Tree{"T_A": bs.TA, "T_Q": bs.TQ}
	skip := map[string][]int32{"T_A": slices.Clone(bs.TA.Skip), "T_Q": slices.Clone(bs.TQ.Skip)}
	for i := int32(0); i < int32(m.N()); i += 3 {
		p := bs.TA.Points[i]
		bs.SetAtomPoint(i, geom.V(p.X+0.3, p.Y-0.2, p.Z+0.1))
	}
	bs.RefreshGeometry()
	for name, tr := range trees {
		if !slices.Equal(tr.Skip, skip[name]) {
			t.Fatalf("%s: RefreshGeometry changed the skip index", name)
		}
		for n := range tr.Nodes {
			nd := &tr.Nodes[n]
			if c := nd.Center; tr.CX[n] != c.X || tr.CY[n] != c.Y || tr.CZ[n] != c.Z || tr.CR[n] != nd.Radius {
				t.Fatalf("%s after RefreshGeometry: node %d's geometry mirror diverges", name, n)
			}
			for j := nd.Start; j < nd.Start+nd.Count; j++ {
				if d := tr.Points[j].Dist(nd.Center); d > nd.Radius*(1+1e-12)+1e-12 {
					t.Fatalf("%s after RefreshGeometry: point %d outside node %d's ball", name, j, n)
				}
			}
		}
	}
	var got, want InteractionList
	bs.fillBornLeaves(&got, 0, bs.NumQLeaves(), math.MaxInt)
	bs.fillBornLeavesStack(&want, 0, bs.NumQLeaves(), math.MaxInt)
	if !slices.Equal(got.Near, want.Near) || !slices.Equal(got.Far, want.Far) || got.stats != want.stats {
		t.Errorf("after RefreshGeometry the stackless walk files %d near / %d far, the stack walk %d / %d",
			len(got.Near), len(got.Far), len(want.Near), len(want.Far))
	}
}
