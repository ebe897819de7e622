package core

import (
	"math"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// testMol builds a small deterministic molecule + surface pair.
func testMol(n int, seed int64) (*molecule.Molecule, []surface.QPoint) {
	m := molecule.GenerateProtein("core", n, seed)
	q := surface.Sample(m, surface.Default())
	return m, q
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1e-30, math.Abs(b))
}

func TestWellSeparated(t *testing.T) {
	c := sepRatio(0.9, 1)  // 1.9
	k2 := sepFactor2(c, 1) // (1 + farReach·2/(c−1))²
	if k := math.Sqrt(k2); math.Abs(k-2.2) > 1e-12 {
		t.Errorf("default criterion at ε = 0.9: k = %v, want 2.2", k)
	}
	// The printed criterion keeps the distance-ratio form (c+1)/(c−1).
	c6 := sepRatio(0.9, 6)
	if k6 := math.Sqrt(sepFactor2(c6, 6)); math.Abs(k6-(c6+1)/(c6-1)) > 1e-12 {
		t.Errorf("printed criterion: k = %v, want %v", k6, (c6+1)/(c6-1))
	}
	// d=10, r=1+1: d/r = 5 ≥ 2.2 → separated.
	if !wellSeparated2(100, 1, 1, k2) {
		t.Error("clearly separated pair rejected")
	}
	// Overlapping balls are never separated.
	if wellSeparated2(1.5*1.5, 1, 1, k2) {
		t.Error("overlapping pair accepted")
	}
	// d=3, r=2: d/r = 1.5 < 2.2 → not separated.
	if wellSeparated2(9, 1, 1, k2) {
		t.Error("close pair accepted")
	}
	// Coincident point nodes (r=0, d=0) must not be "separated": the
	// squared form's d² > 0 guard replaces the linear form's d−r > 0.
	if wellSeparated2(0, 0, 0, k2) {
		t.Error("coincident degenerate pair accepted")
	}
	// The squared form must agree with the linear d ≥ r·k across the
	// acceptance boundary (r = 2.05: d = 4.51).
	for _, d := range []float64{2.0, 4.0, 4.5, 4.509, 4.511, 4.6, 6.6, 8.0, 50.0} {
		ra, rq := 1.25, 0.8
		r := ra + rq
		lin := d > 0 && d >= r*math.Sqrt(k2)
		if got := wellSeparated2(d*d, ra, rq, k2); got != lin {
			t.Errorf("d=%v: squared form %v, linear form %v", d, got, lin)
		}
	}
}

func TestSepRatioPowers(t *testing.T) {
	if got := sepRatio(0.9, 1); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("power 1: %v", got)
	}
	if got := sepRatio(0.9, 6); math.Abs(got-math.Pow(1.9, 1.0/6)) > 1e-12 {
		t.Errorf("power 6: %v", got)
	}
}

func TestBornTreecodeMatchesNaiveSmallEps(t *testing.T) {
	m, q := testMol(600, 21)
	exact := gb.BornRadiiR6(m, q)

	bs := NewBornSolver(m, q, BornConfig{Eps: 0.05})
	sNode, sAtom := bs.NewAccumulators()
	for l := 0; l < bs.NumQLeaves(); l++ {
		bs.AccumulateQLeaf(l, sNode, sAtom)
	}
	rTree := make([]float64, m.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), rTree)
	R := bs.RadiiToOriginal(rTree)

	maxRel := 0.0
	for i := range R {
		if e := relErr(R[i], exact[i]); e > maxRel {
			maxRel = e
		}
	}
	if maxRel > 0.02 {
		t.Errorf("max Born-radius error %v at ε=0.05", maxRel)
	}
}

func TestBornErrorGrowsWithEps(t *testing.T) {
	m, q := testMol(500, 22)
	exact := gb.BornRadiiR6(m, q)
	var prev float64 = -1
	for _, eps := range []float64{0.1, 0.9, 3.0} {
		bs := NewBornSolver(m, q, BornConfig{Eps: eps})
		sNode, sAtom := bs.NewAccumulators()
		for l := 0; l < bs.NumQLeaves(); l++ {
			bs.AccumulateQLeaf(l, sNode, sAtom)
		}
		rTree := make([]float64, m.N())
		bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), rTree)
		R := bs.RadiiToOriginal(rTree)
		var rms float64
		for i := range R {
			d := relErr(R[i], exact[i])
			rms += d * d
		}
		rms = math.Sqrt(rms / float64(len(R)))
		if prev >= 0 && rms+1e-12 < prev*0.5 {
			t.Errorf("error did not grow with ε: %v after %v", rms, prev)
		}
		prev = rms
	}
}

func TestBornDualMatchesSingleTree(t *testing.T) {
	m, q := testMol(400, 23)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.5})

	s1n, s1a := bs.NewAccumulators()
	for l := 0; l < bs.NumQLeaves(); l++ {
		bs.AccumulateQLeaf(l, s1n, s1a)
	}
	r1 := make([]float64, m.N())
	bs.PushIntegrals(s1n, s1a, 0, int32(m.N()), r1)

	s2n, s2a := bs.NewAccumulators()
	bs.AccumulateDual(s2n, s2a)
	r2 := make([]float64, m.N())
	bs.PushIntegrals(s2n, s2a, 0, int32(m.N()), r2)

	// Dual-tree approximates MORE (it can accept at internal q-nodes), so
	// results differ slightly but must stay close.
	for i := range r1 {
		if e := relErr(r2[i], r1[i]); e > 0.1 {
			t.Fatalf("atom %d: dual %v vs single %v", i, r2[i], r1[i])
		}
	}
}

func TestPushIntegralsSegmentsCompose(t *testing.T) {
	// Computing Born radii in 3 disjoint segments must equal one full pass
	// (the distributed engines rely on this).
	m, q := testMol(300, 24)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	sNode, sAtom := bs.NewAccumulators()
	for l := 0; l < bs.NumQLeaves(); l++ {
		bs.AccumulateQLeaf(l, sNode, sAtom)
	}
	full := make([]float64, m.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), full)

	seg := make([]float64, m.N())
	n3 := int32(m.N() / 3)
	bs.PushIntegrals(sNode, sAtom, 0, n3, seg)
	bs.PushIntegrals(sNode, sAtom, n3, 2*n3, seg)
	bs.PushIntegrals(sNode, sAtom, 2*n3, int32(m.N()), seg)
	for i := range full {
		if full[i] != seg[i] {
			t.Fatalf("atom %d: segmented %v != full %v", i, seg[i], full[i])
		}
	}
}

func TestEpolTreecodeMatchesNaiveSmallEps(t *testing.T) {
	m, q := testMol(500, 25)
	R := gb.BornRadiiR6(m, q)
	naive := gb.EpolNaive(m, R)

	res := ComputeSerial(m, q, BornConfig{Eps: 0.05}, EpolConfig{Eps: 0.05})
	if e := relErr(res.Epol, naive); e > 0.01 {
		t.Errorf("E_pol treecode %v vs naive %v (rel %v)", res.Epol, naive, e)
	}
}

func TestEpolPaperOperatingPoint(t *testing.T) {
	// ε = 0.9 / 0.9 — the paper's operating point — must stay within ~1%
	// of naive (the paper reports <1% for CMV and low single digits across
	// ZDock).
	m, q := testMol(800, 26)
	R := gb.BornRadiiR6(m, q)
	naive := gb.EpolNaive(m, R)
	res := ComputeSerial(m, q, BornConfig{Eps: 0.9}, EpolConfig{Eps: 0.9})
	if e := relErr(res.Epol, naive); e > 0.05 {
		t.Errorf("ε=0.9 error %v too large (%v vs %v)", e, res.Epol, naive)
	}
	// And it must actually approximate (some far-field evaluations).
	if res.EpolStats.FarEval == 0 {
		t.Error("no far-field approximation at ε=0.9")
	}
	if res.BornStats.FarEval == 0 {
		t.Error("no Born far-field approximation at ε=0.9")
	}
}

func TestEpolDualMatchesLeafDriven(t *testing.T) {
	m, q := testMol(400, 27)
	R := gb.BornRadiiR6(m, q)
	charges := make([]float64, m.N())
	for i := range m.Atoms {
		charges[i] = m.Atoms[i].Charge
	}
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.5})
	var raw1 float64
	for l := 0; l < es.NumLeaves(); l++ {
		e, _ := es.LeafEnergy(l)
		raw1 += e
	}
	raw2, _ := es.EnergyDual()
	// The dual tree can approximate at coarser granularity; they agree to
	// within the approximation scale.
	if e := relErr(raw2, raw1); e > 0.05 {
		t.Errorf("dual %v vs leaf-driven %v (rel %v)", raw2, raw1, e)
	}
}

func TestEpolLeafPartitionSumsInvariant(t *testing.T) {
	// Summing leaf energies in any grouping equals the serial total —
	// the property node-based MPI division depends on.
	m, q := testMol(350, 28)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})
	var total float64
	partial := make([]float64, 4)
	for l := 0; l < es.NumLeaves(); l++ {
		e, _ := es.LeafEnergy(l)
		total += e
		partial[l%4] += e
	}
	var re float64
	for _, p := range partial {
		re += p
	}
	if relErr(re, total) > 1e-12 {
		t.Errorf("regrouped %v != total %v", re, total)
	}
}

func TestBinsConserveCharge(t *testing.T) {
	m, q := testMol(300, 29)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})
	// Root bins sum to total charge.
	if e := math.Abs(es.BinChargeSum(0) - m.TotalCharge()); e > 1e-9 {
		t.Errorf("root bin charge off by %v", e)
	}
	// Every internal node's bins equal the sum of its children's.
	for ni := range es.T.Nodes {
		nd := &es.T.Nodes[ni]
		if nd.Leaf {
			continue
		}
		var cs float64
		for _, ch := range nd.Children {
			if ch >= 0 {
				cs += es.BinChargeSum(ch)
			}
		}
		if math.Abs(cs-es.BinChargeSum(int32(ni))) > 1e-9 {
			t.Fatalf("node %d bin charge mismatch", ni)
		}
	}
}

func TestNumBinsGrowsAsEpsShrinks(t *testing.T) {
	m, q := testMol(300, 30)
	R := gb.BornRadiiR6(m, q)
	mFine := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.1})
	mCoarse := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})
	if mFine.NumBins() <= mCoarse.NumBins() {
		t.Errorf("bins: ε=0.1 %d ≤ ε=0.9 %d", mFine.NumBins(), mCoarse.NumBins())
	}
}

func TestTreecodeCheaperThanNaive(t *testing.T) {
	// Exact-pair work must be well below N·m and N². At ε=0.9 the energy
	// acceptance radius (3.2× cell radii) is comparable to a small
	// protein's size, so sizeable energy savings only appear for larger ε
	// or larger molecules; we check Born at the paper's ε and energy at a
	// coarser ε on this 4k-atom molecule (the asymptotic test below covers
	// the scaling trend).
	m, q := testMol(4000, 31)
	res := ComputeSerial(m, q, BornConfig{Eps: 0.9}, EpolConfig{Eps: 2.0})
	nm := int64(m.N()) * int64(len(q))
	nn := int64(m.N()) * int64(m.N())
	if res.BornStats.NearPairs*2 > nm {
		t.Errorf("Born near pairs %d not ≪ N·m = %d", res.BornStats.NearPairs, nm)
	}
	if res.EpolStats.NearPairs*2 > nn {
		t.Errorf("Epol near pairs %d not ≪ N² = %d", res.EpolStats.NearPairs, nn)
	}
}

func TestTreecodeNearFractionShrinksWithSize(t *testing.T) {
	// The fraction of exact pair work relative to N² must decrease as the
	// molecule grows — the sub-quadratic scaling claim.
	frac := func(n int) float64 {
		m, q := testMol(n, 55)
		res := ComputeSerial(m, q, BornConfig{Eps: 0.9}, EpolConfig{Eps: 0.9})
		return float64(res.EpolStats.NearPairs) / (float64(n) * float64(n))
	}
	small, large := frac(1500), frac(6000)
	if large >= small {
		t.Errorf("near-pair fraction grew with size: %v -> %v", small, large)
	}
}

func TestComputeSerialDualAgrees(t *testing.T) {
	m, q := testMol(400, 33)
	a := ComputeSerial(m, q, BornConfig{Eps: 0.5}, EpolConfig{Eps: 0.5})
	b := ComputeSerialDual(m, q, BornConfig{Eps: 0.5}, EpolConfig{Eps: 0.5})
	if e := relErr(b.Epol, a.Epol); e > 0.05 {
		t.Errorf("dual pipeline %v vs single %v", b.Epol, a.Epol)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{FarEval: 1, NearPairs: 2, NodesVisited: 3}
	a.Add(Stats{FarEval: 10, NearPairs: 20, NodesVisited: 30})
	if a != (Stats{11, 22, 33}) {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func BenchmarkBornTreecode2000(b *testing.B) {
	m, q := testMol(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
		sNode, sAtom := bs.NewAccumulators()
		for l := 0; l < bs.NumQLeaves(); l++ {
			bs.AccumulateQLeaf(l, sNode, sAtom)
		}
		rT := make([]float64, m.N())
		bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), rT)
	}
}

func BenchmarkEpolTreecode2000(b *testing.B) {
	m, q := testMol(2000, 1)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: 0.9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var raw float64
		for l := 0; l < es.NumLeaves(); l++ {
			e, _ := es.LeafEnergy(l)
			raw += e
		}
		_ = raw
	}
}
