package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// jitterFrames builds a deterministic k-frame jitter stream over mol: each
// frame moves `movers` atoms by a uniform per-axis displacement of up to
// amp, compounding across frames. When cluster > 0 the movers are drawn
// from the `cluster` atoms nearest atom 0 — repeatedly jittering a spatial
// neighborhood is the streaming workload (a flexible loop, a refining
// ligand), and it is what accumulates the drift that walks drivers through
// the re-derivation band instead of jumping straight to a refresh.
func jitterFrames(mol *molecule.Molecule, k, movers, cluster int, amp float64, seed int64) []FrameDelta {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, mol.N())
	for i := range mol.Atoms {
		pos[i] = mol.Atoms[i].Pos
	}
	pick := nearestAtoms(mol, mol.N())
	if cluster > 0 && cluster < len(pick) {
		pick = pick[:cluster]
	}
	frames := make([]FrameDelta, k)
	for f := range frames {
		moves := make([]AtomMove, 0, movers)
		for m := 0; m < movers; m++ {
			i := pick[rng.Intn(len(pick))]
			d := geom.Vec3{
				X: (rng.Float64()*2 - 1) * amp,
				Y: (rng.Float64()*2 - 1) * amp,
				Z: (rng.Float64()*2 - 1) * amp,
			}
			pos[i] = pos[i].Add(d)
			moves = append(moves, AtomMove{Index: i, Pos: pos[i]})
		}
		frames[f] = FrameDelta{Moves: moves}
	}
	return frames
}

// nearestAtoms is the n atoms nearest atom 0, nearest first.
func nearestAtoms(mol *molecule.Molecule, n int) []int {
	pick := make([]int, mol.N())
	for i := range pick {
		pick[i] = i
	}
	c := mol.Atoms[0].Pos
	sort.Slice(pick, func(a, b int) bool {
		return mol.Atoms[pick[a]].Pos.Dist2(c) < mol.Atoms[pick[b]].Pos.Dist2(c)
	})
	return pick[:n]
}

// driftFrames is a k-frame directed drift over mol: frame f translates the
// n atoms nearest atom 0 by (f+1)·step Å along x from their start.
func driftFrames(mol *molecule.Molecule, k, n int, step float64) []FrameDelta {
	cluster := nearestAtoms(mol, n)
	frames := make([]FrameDelta, k)
	for f := range frames {
		for _, i := range cluster {
			frames[f].Moves = append(frames[f].Moves, AtomMove{Index: i, Pos: mol.Atoms[i].Pos.Add(geom.V(step*float64(f+1), 0, 0))})
		}
	}
	return frames
}

// sameEnergies holds an incremental stream to its oracle bit for bit.
func sameEnergies(t *testing.T, got, want []float64) {
	t.Helper()
	for f := range want {
		if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
			t.Fatalf("frame %d: incremental %.17g vs oracle %.17g (differ by %.3g)", f, got[f], want[f], got[f]-want[f])
		}
	}
}

// runStream replays frames through a fresh session and returns the
// per-frame energies plus the accumulated reports.
func runStream(t *testing.T, mol *molecule.Molecule, o SessionOptions, frames []FrameDelta) ([]float64, []FrameReport) {
	t.Helper()
	ss, err := NewSession(mol, o)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	energies := make([]float64, 0, len(frames)+1)
	energies = append(energies, ss.Energy())
	reports := make([]FrameReport, 0, len(frames))
	for fi, d := range frames {
		rep, err := ss.Step(d)
		if err != nil {
			t.Fatalf("Step frame %d: %v", fi, err)
		}
		energies = append(energies, rep.Energy)
		reports = append(reports, rep)
		if rep.Refreshed {
			// A refresh refits node geometry: the center/radius mirrors
			// must still describe the Node records.
			if err := checkRefit(ss.bs.TA); err != nil {
				t.Fatalf("frame %d: T_A after refresh: %v", fi, err)
			}
			if err := checkRefit(ss.bs.TQ); err != nil {
				t.Fatalf("frame %d: T_Q after refresh: %v", fi, err)
			}
		}
	}
	return energies, reports
}

// checkRefit reports the first node whose center/radius mirror differs
// from its Node record or whose ball misses one of its points.
func checkRefit(tr *octree.Tree) error {
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if c := nd.Center; tr.CX[i] != c.X || tr.CY[i] != c.Y || tr.CZ[i] != c.Z || tr.CR[i] != nd.Radius {
			return fmt.Errorf("node %d: center/radius mirror diverges", i)
		}
		for j := nd.Start; j < nd.Start+nd.Count; j++ {
			if d := tr.Points[j].Dist(nd.Center); d > nd.Radius*(1+1e-12)+1e-12 {
				return fmt.Errorf("node %d: point %d outside its ball (%g > %g)", i, j, d, nd.Radius)
			}
		}
	}
	return nil
}

// TestSessionIncrementalMatchesOracle is the jitter property test: a
// session with ResweepEvery=k (incremental between resweeps) must match
// the ResweepEvery=1 session (every frame fully resummed — the
// from-scratch oracle over the same deterministically evolving structure)
// bit for bit on every frame, across displacement regimes that exercise
// the pure-dirty path, driver re-derivation, and the forced-resweep
// boundary.
func TestSessionIncrementalMatchesOracle(t *testing.T) {
	mol := molecule.GenerateProtein("stream", 700, 99)
	base := SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	}
	// Per-axis hops stay under (1-rederiveFraction)·MinSlack/√3 ≈ 0.07, so
	// no single frame can jump a driver from inside its re-derivation
	// budget straight past the refresh threshold; compounded cluster drift
	// then reaches the re-derivation band on its own.
	regimes := []struct {
		name    string
		movers  int
		cluster int
		amp     float64
	}{
		{"sub-slack", 7, 16, 0.01}, // drift stays within the budget: pure dirty path
		{"re-derive", 7, 16, 0.06}, // compounds past half-margin: driver re-derivations
		{"mixed", 20, 48, 0.05},    // broad dirty regions, occasional re-derivation
	}
	for _, rg := range regimes {
		rg := rg
		t.Run("f64/"+rg.name, func(t *testing.T) {
			o := base
			frames := jitterFrames(mol, 24, rg.movers, rg.cluster, rg.amp, 7)

			oracle := o
			oracle.ResweepEvery = 1
			incr := o
			incr.ResweepEvery = 8 // frames 8, 16, 24 hit the forced-resweep boundary

			want, _ := runStream(t, mol, oracle, frames)
			got, reports := runStream(t, mol, incr, frames)
			sameEnergies(t, got, want)
			rederived, refreshed := 0, 0
			for _, rep := range reports {
				rederived += rep.Rederived
				if rep.Refreshed {
					refreshed++
				}
			}
			if rg.name == "re-derive" && rederived == 0 {
				t.Fatalf("re-derive regime never re-derived a driver; slack breach path untested")
			}
			if rg.name == "sub-slack" && (rederived != 0 || refreshed != 0) {
				t.Fatalf("sub-slack regime re-derived %d / refreshed %d; pure dirty path untested", rederived, refreshed)
			}
			for _, rep := range reports {
				if rep.Frame%8 == 0 && !rep.Refreshed && !rep.Resweep {
					t.Fatalf("frame %d should have taken the forced resweep", rep.Frame)
				}
			}
		})
	}
}

// refRowSum is the canonical two-level sum of a row's block store, written
// out independently of the session: blocks left to right into groups of
// bornGroup, groups left to right into the row.
func refRowSum(blk []float64, cnt int) []float64 {
	row := make([]float64, cnt)
	for lo := 0; lo < len(blk); lo += bornGroup * cnt {
		grp := make([]float64, cnt)
		for at := lo; at < min(lo+bornGroup*cnt, len(blk)); at += cnt {
			for j := range grp {
				grp[j] += blk[at+j]
			}
		}
		for j := range row {
			row[j] += grp[j]
		}
	}
	return row
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBornRowSumShape pins the fixed two-level shape at its group
// boundaries: for a row with 1, G−1, G, G+1 and 2G+3 partners, the row sum
// equals the independently written two-level sum bit for bit when every
// group is dirty, and again after a single block on either side of a
// boundary is rewritten and only its group marked — the incremental re-add
// and the from-scratch sum are the same tree.
func TestBornRowSumShape(t *testing.T) {
	mol := molecule.GenerateProtein("shape", 60, 3)
	ss, err := NewSession(mol, SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	a := ss.bs.TA.LeafIdx[0]
	lo, hi := ss.bs.TA.PointRange(a)
	cnt := int(hi - lo)
	rng := rand.New(rand.NewSource(17))
	for _, p := range []int{1, bornGroup - 1, bornGroup, bornGroup + 1, 2*bornGroup + 3} {
		ss.bornPartners[a] = make([]int32, p)
		ss.sizeRowStores(a)
		if g := (p + bornGroup - 1) / bornGroup; len(ss.rowBlk[a]) != p*cnt || len(ss.rowGrp[a]) != g*cnt || len(ss.grpDirty[a]) != g {
			t.Fatalf("P=%d: stores sized %d/%d/%d, want %d/%d/%d", p, len(ss.rowBlk[a]), len(ss.rowGrp[a]), len(ss.grpDirty[a]), p*cnt, g*cnt, g)
		}
		blk := ss.rowBlk[a]
		for i := range blk {
			blk[i] = rng.NormFloat64() * math.Exp(6*rng.Float64()) // mixed magnitudes: the order shows in the bits
		}
		for g := range ss.grpDirty[a] {
			ss.grpDirty[a][g] = true
		}
		ss.resumBornRow(a)
		if want := refRowSum(blk, cnt); !sameBits(ss.sAtomNear[lo:hi], want) {
			t.Fatalf("P=%d: full sum %v, two-level reference %v", p, ss.sAtomNear[lo:hi], want)
		}
		for _, at := range []int{0, bornGroup - 2, bornGroup - 1, bornGroup, p - 1} {
			if at < 0 || at >= p {
				continue
			}
			for j := 0; j < cnt; j++ {
				blk[at*cnt+j] = rng.NormFloat64() * math.Exp(6*rng.Float64())
			}
			ss.grpDirty[a][at/bornGroup] = true
			ss.resumBornRow(a)
			if want := refRowSum(blk, cnt); !sameBits(ss.sAtomNear[lo:hi], want) {
				t.Fatalf("P=%d, slot %d rewritten: incremental sum %v, two-level reference %v", p, at, ss.sAtomNear[lo:hi], want)
			}
			if slices.Contains(ss.grpDirty[a], true) {
				t.Fatalf("P=%d: a group stayed marked after the re-add", p)
			}
		}
	}
}

// TestSessionGroupBoundaryRows runs the oracle comparison on molecules small
// enough that whole rows have G−1, G and G+1 partners (a row of a real
// protein has hundreds): the last group of such a row is short, empty or a
// single block.
func TestSessionGroupBoundaryRows(t *testing.T) {
	covered := map[int]bool{}
	for _, n := range []int{8, 10, 25, 54} {
		mol := molecule.GenerateProtein("tiny", n, 5)
		o := SessionOptions{
			Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
			Eval: Options{Threads: 1, LeafSize: 4},
		}
		probe, err := NewSession(mol, o)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		for _, a := range probe.bs.TA.LeafIdx {
			covered[len(probe.bornPartners[a])] = true
		}
		frames := jitterFrames(mol, 12, 3, 0, 0.02, int64(n))
		oracle := o
		oracle.ResweepEvery = 1
		incr := o
		incr.ResweepEvery = 5
		want, _ := runStream(t, mol, oracle, frames)
		got, _ := runStream(t, mol, incr, frames)
		sameEnergies(t, got, want)
	}
	for _, p := range []int{bornGroup - 1, bornGroup, bornGroup + 1} {
		if !covered[p] {
			t.Errorf("no row with %d partners among the tiny molecules (have %v); pick sizes that cover it", p, covered)
		}
	}
}

// checkBornStores verifies, after a Step, that the locally repaired stores
// are what a rebuild from the drivers' near and far lists would give: the
// reverse index and the entry slots agree with the lists, near and partner
// lists ascend, every row's stores fit its partner count, no group is left
// marked, every cached block is what evaluating it now returns, every row
// is the two-level sum of its blocks, and the far sums are the full
// canonical sums of freshly computed far terms — all bit for bit.
func checkBornStores(t *testing.T, ss *Session) {
	t.Helper()
	entries := 0
	for ql, near := range ss.bornNear {
		if !slices.IsSorted(near) {
			t.Fatalf("frame %d driver %d: near list not ascending", ss.frame, ql)
		}
		if len(ss.bornEntrySlot[ql]) != len(near) {
			t.Fatalf("frame %d driver %d: %d slots for %d near entries", ss.frame, ql, len(ss.bornEntrySlot[ql]), len(near))
		}
		for k, a := range near {
			at := int(ss.bornEntrySlot[ql][k])
			if at >= len(ss.bornPartners[a]) || ss.bornPartners[a][at] != int32(ql) {
				t.Fatalf("frame %d driver %d entry %d (row %d): slot %d does not point back", ss.frame, ql, k, a, at)
			}
		}
		entries += len(near)
	}
	far := make([]float64, len(ss.sNodeFar))
	for ql, nodes := range ss.bornFar {
		for _, a := range nodes {
			ss.bs.AddBornFarTerm(a, ss.bs.TQ.LeafIdx[ql], far)
		}
	}
	if !sameBits(ss.sNodeFar, far) {
		t.Fatalf("frame %d: far sums differ from the full canonical sums", ss.frame)
	}
	var fresh []float64
	for _, a := range ss.bs.TA.LeafIdx {
		pp := ss.bornPartners[a]
		entries -= len(pp)
		if !slices.IsSorted(pp) || len(slices.Compact(slices.Clone(pp))) != len(pp) {
			t.Fatalf("frame %d row %d: partners not strictly ascending", ss.frame, a)
		}
		lo, hi := ss.bs.TA.PointRange(a)
		cnt, g := int(hi-lo), (len(pp)+bornGroup-1)/bornGroup
		if len(ss.rowBlk[a]) != len(pp)*cnt || len(ss.rowGrp[a]) != g*cnt || len(ss.grpDirty[a]) != g {
			t.Fatalf("frame %d row %d: stores do not fit %d partners", ss.frame, a, len(pp))
		}
		if slices.Contains(ss.grpDirty[a], true) {
			t.Fatalf("frame %d row %d: a group stayed marked", ss.frame, a)
		}
		fresh = core.Resize(fresh, len(pp)*cnt)
		ss.bs.EvalBornRowBlocks(a, lo, hi, pp, fresh)
		if !sameBits(ss.rowBlk[a], fresh) {
			t.Fatalf("frame %d row %d: a cached block is stale", ss.frame, a)
		}
		if !sameBits(ss.sAtomNear[lo:hi], refRowSum(ss.rowBlk[a], cnt)) {
			t.Fatalf("frame %d row %d: row is not the two-level sum of its blocks", ss.frame, a)
		}
	}
	if entries != 0 {
		t.Fatalf("frame %d: partner lists and near lists differ by %d entries", ss.frame, entries)
	}
}

// TestSessionPartnerRepair walks a stream through driver re-derivations
// that change partner membership and checks the stores after every frame
// (checkBornStores) and the energy against the oracle. A membership change
// in a row with more than bornGroup partners moves every later slot across
// a group boundary, so the stream must contain one, below the last group.
func TestSessionPartnerRepair(t *testing.T) {
	mol := molecule.GenerateProtein("repair", 700, 99)
	frames := jitterFrames(mol, 24, 7, 16, 0.06, 7)
	o := SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 9,
	}
	oo := o
	oo.ResweepEvery = 1
	ss, err := NewSession(mol, o)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	oracle, err := NewSession(mol, oo)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	checkBornStores(t, ss)
	shifted, crossed := 0, false
	for f, d := range frames {
		before := map[int32][]int32{}
		for _, a := range ss.bs.TA.LeafIdx {
			before[a] = slices.Clone(ss.bornPartners[a])
		}
		rep, err := ss.Step(d)
		if err != nil {
			t.Fatalf("Step frame %d: %v", f, err)
		}
		orep, err := oracle.Step(d)
		if err != nil {
			t.Fatalf("oracle Step frame %d: %v", f, err)
		}
		if math.Float64bits(rep.Energy) != math.Float64bits(orep.Energy) {
			t.Fatalf("frame %d: incremental %.17g vs oracle %.17g", f, rep.Energy, orep.Energy)
		}
		checkBornStores(t, ss)
		for _, a := range ss.slotDirty {
			shifted++
			was, is := before[a], ss.bornPartners[a]
			first := 0
			for first < min(len(was), len(is)) && was[first] == is[first] {
				first++
			}
			crossed = crossed || first/bornGroup < (max(len(was), len(is))-1)/bornGroup
		}
	}
	if shifted == 0 || !crossed {
		t.Fatalf("%d slot-shifted rows, a slot moved across a group boundary: %v; local repair untested", shifted, crossed)
	}
}

// TestSessionStepSteadyStateAllocs pins the steady-state frame at zero
// allocations: every per-frame list, mark array and scratch is sized at
// creation, so a Step that stays inside the slack margins (no
// re-derivation, no refresh) allocates nothing.
func TestSessionStepSteadyStateAllocs(t *testing.T) {
	mol := molecule.GenerateProtein("allocs", 600, 41)
	ss, err := NewSession(mol, SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 1 << 30,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Two frames that undo each other: nine atoms hop 0.01 Å out and back,
	// so the stream never drifts towards a re-derivation.
	var out, back FrameDelta
	for i := 0; i < 9; i++ {
		at := i * 61
		p := mol.Atoms[at].Pos
		out.Moves = append(out.Moves, AtomMove{Index: at, Pos: p.Add(geom.Vec3{X: 0.01, Y: -0.01, Z: 0.01})})
		back.Moves = append(back.Moves, AtomMove{Index: at, Pos: p})
	}
	step := func(d FrameDelta) {
		rep, err := ss.Step(d)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if rep.Rederived != 0 || rep.Refreshed || rep.Resweep || rep.DirtyBornRows == 0 {
			t.Fatalf("frame %d is not a plain incremental frame: %+v", rep.Frame, rep)
		}
	}
	step(out) // frame 1, which used to size the per-frame lists
	allocs := testing.AllocsPerRun(20, func() {
		step(back)
		step(out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step pair: %.1f allocs, want 0", allocs)
	}
}

// TestSessionRadiusToleranceDrift holds the radius staleness gate to its
// accuracy contract against a zero-tolerance session on the same stream:
// at the default tolerance the energy offset stays within 1e-5 relative,
// the cap the default was sized to (measured at most 4.4e-6, 0.15·tol);
// at 1e-6 it stays under 0.5·tol (measured 0.27·tol). Two streams: a
// compounding jitter (movers drawn near atom 0), and a directed drift
// (driftFrames: the 24 atoms nearest atom 0 translated one way, so every
// radius they shift moves one way and staleness cannot cancel). On the
// drift the largest offset of the stream's second half must also stay
// within 2× its first half's (measured 1.02× at 1e-6 and 1.23× at the
// default): the offset must not grow with the frame count. A gate that
// compares a radius with its previous frame's value instead of its pushed
// one lets the drift through unpushed: at the default it crosses the cap
// by frame 23.
func TestSessionRadiusToleranceDrift(t *testing.T) {
	mol := molecule.GenerateProtein("rtol", 600, 57)
	o := SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 8,
	}
	jitter := jitterFrames(mol, 24, 9, 24, 0.04, 21)
	drift := driftFrames(mol, 96, 24, 0.002)
	exact := o
	exact.radiusTolerance = -1
	exactJitter, _ := runStream(t, mol, exact, jitter)
	exactDrift, _ := runStream(t, mol, exact, drift)
	// offsets replays frames through a gated session and returns its
	// relative energy offset from the exact energies per frame.
	offsets := func(frames []FrameDelta, exact []float64, tol float64) []float64 {
		gated := o
		gated.radiusTolerance = tol
		eg, reps := runStream(t, mol, gated, frames)
		// The gate must actually suppress pushes, or it is not being tested.
		for _, rep := range reps {
			if rep.MovedAtoms > 0 && !rep.Resweep && !rep.Refreshed && rep.PushedRadii >= mol.N() {
				t.Fatalf("tol %g, frame %d pushed every radius; tolerance gate inert", tol, rep.Frame)
			}
		}
		rel := make([]float64, len(exact))
		for f := range exact {
			rel[f] = math.Abs(eg[f]-exact[f]) / math.Abs(exact[f])
		}
		return rel
	}
	for _, c := range []struct{ tol, bound float64 }{
		{defaultRadiusTolerance, 1e-5},
		{1e-6, 0.5e-6},
	} {
		for f, rel := range offsets(jitter, exactJitter, c.tol) {
			if rel > c.bound {
				t.Fatalf("tol %g, jitter frame %d: offset %.3g > %g", c.tol, f, rel, c.bound)
			}
		}
		rel := offsets(drift, exactDrift, c.tol)
		var half [2]float64
		for f, r := range rel {
			if r > c.bound {
				t.Fatalf("tol %g, drift frame %d: offset %.3g > %g", c.tol, f, r, c.bound)
			}
			half[2*f/len(rel)] = math.Max(half[2*f/len(rel)], r)
		}
		t.Logf("tol %g: drift offset per half of the stream %.3g", c.tol, half)
		if half[1] > 2*half[0] {
			t.Fatalf("tol %g: offset grows with the frame count: second half %.3g vs first %.3g", c.tol, half[1], half[0])
		}
	}
}

// TestSessionRefreshPath forces displacements large enough to breach an
// internal node's slack margin, which must take the structural-refresh
// path — here between two forced resweeps, so the rebuilt stores are summed
// once by the refresh and then by the incremental path before a resweep
// re-verifies them — and still match the oracle session bit for bit
// (refresh is geometry driven, so both sessions refresh on the same frame).
func TestSessionRefreshPath(t *testing.T) {
	mol := molecule.GenerateProtein("refresh", 500, 77)
	o := SessionOptions{
		Surf:        surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:        Options{Threads: 1},
		SlackFactor: 0.01,
		MinSlack:    0.05, // tight margins so modest jitter forces a refresh
	}
	frames := jitterFrames(mol, 10, 25, 0, 0.5, 3)

	oracle := o
	oracle.ResweepEvery = 1
	incr := o
	incr.ResweepEvery = 4

	want, wantReps := runStream(t, mol, oracle, frames)
	got, gotReps := runStream(t, mol, incr, frames)
	refreshed, between := 0, false
	for f := range wantReps {
		if wantReps[f].Refreshed != gotReps[f].Refreshed {
			t.Fatalf("frame %d: refresh divergence (oracle %v, incremental %v) — refresh must be geometry driven", f+1, wantReps[f].Refreshed, gotReps[f].Refreshed)
		}
		if gotReps[f].Refreshed {
			refreshed++
			between = between || (gotReps[f].Frame > 4 && gotReps[f].Frame < 8)
		}
	}
	if refreshed == 0 || !between {
		t.Fatalf("%d refreshes, one between the resweeps of frames 4 and 8: %v; structural path untested", refreshed, between)
	}
	sameEnergies(t, got, want)
}

// TestSessionAgreesWithPrepared sanity-checks the session's absolute
// energies against the stateless pipeline. The two legitimately differ at
// treecode-approximation level (the session's slack-inflated lists trade
// far entries for exact near ones, and its surface follows moved atoms
// rigidly instead of being re-sampled), so the tolerance is loose; the
// bitwise contract lives in the oracle tests above.
func TestSessionAgreesWithPrepared(t *testing.T) {
	mol := molecule.GenerateProtein("sanity", 400, 11)
	so := surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0}
	ss, err := NewSession(mol, SessionOptions{Surf: so, Eval: Options{Threads: 1}})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	p, err := Prepare(NewProblem(mol, so), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	rep, err := p.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatalf("EvalEpol: %v", err)
	}
	rel := math.Abs(ss.Energy()-rep.Energy) / math.Abs(rep.Energy)
	if rel > 5e-2 {
		t.Fatalf("session energy %.9g vs prepared %.9g (rel %.3g > 5e-2)", ss.Energy(), rep.Energy, rel)
	}
}

// TestSessionRejectsBadMove pins the validation contract: an out-of-range
// index, or a coordinate that is not finite or lies past MaxCoordinate,
// fails the whole frame and leaves the session untouched — the next good
// frame gives the energy a session that never saw the bad one gives.
func TestSessionRejectsBadMove(t *testing.T) {
	mol := molecule.GenerateProtein("bad", 200, 5)
	o := SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	}
	good := FrameDelta{Moves: []AtomMove{{Index: 3, Pos: mol.Atoms[3].Pos.Add(geom.Vec3{X: 0.05})}}}
	clean, err := NewSession(mol, o)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	want, err := clean.Step(good)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	p := mol.Atoms[7].Pos
	for _, tc := range []struct {
		name string
		move AtomMove
	}{
		{"index past the end", AtomMove{Index: mol.N(), Pos: geom.Vec3{}}},
		{"negative index", AtomMove{Index: -1, Pos: geom.Vec3{}}},
		{"NaN", AtomMove{Index: 7, Pos: geom.Vec3{X: math.NaN(), Y: p.Y, Z: p.Z}}},
		{"+Inf", AtomMove{Index: 7, Pos: geom.Vec3{X: p.X, Y: math.Inf(1), Z: p.Z}}},
		{"-Inf", AtomMove{Index: 7, Pos: geom.Vec3{X: p.X, Y: p.Y, Z: math.Inf(-1)}}},
		{"1e200", AtomMove{Index: 7, Pos: geom.Vec3{X: 1e200, Y: p.Y, Z: p.Z}}},
		{"just past the bound", AtomMove{Index: 7, Pos: geom.Vec3{X: p.X, Y: -math.Nextafter(MaxCoordinate, math.Inf(1)), Z: p.Z}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss, err := NewSession(mol, o)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			e0, f0 := ss.Energy(), ss.Frame()
			// The bad move comes after a good one: nothing of the frame applies.
			bad := FrameDelta{Moves: []AtomMove{{Index: 11, Pos: mol.Atoms[11].Pos.Add(geom.Vec3{Y: 0.1})}, tc.move}}
			if _, err := ss.Step(bad); err == nil {
				t.Fatalf("Step accepted %+v", tc.move)
			}
			if ss.Energy() != e0 || ss.Frame() != f0 {
				t.Fatalf("failed Step mutated the session")
			}
			got, err := ss.Step(good)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
				t.Fatalf("after the refused frame: energy %.17g, a clean session gives %.17g", got.Energy, want.Energy)
			}
		})
	}
}

// TestNewSessionRejectsBadAtoms: an atom coordinate that is not finite or
// lies past MaxCoordinate fails creation instead of yielding a session
// whose energy is NaN or whose octree is built around an unreachable point.
func TestNewSessionRejectsBadAtoms(t *testing.T) {
	o := SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	}
	for _, tc := range []struct {
		name string
		pos  geom.Vec3
	}{
		{"NaN", geom.Vec3{X: math.NaN()}},
		{"+Inf", geom.Vec3{Y: math.Inf(1)}},
		{"1e200", geom.Vec3{Z: 1e200}},
		{"-2e6", geom.Vec3{X: -2e6}},
	} {
		mol := molecule.GenerateProtein("bad-atoms", 60, 5)
		mol.Atoms[17].Pos = tc.pos
		if _, err := NewSession(mol, o); err == nil {
			t.Errorf("%s: NewSession accepted atom 17 at %+v", tc.name, tc.pos)
		}
	}
	mol := molecule.GenerateProtein("edge", 60, 5)
	mol.Atoms[17].Pos = geom.Vec3{X: MaxCoordinate}
	if _, err := NewSession(mol, o); err != nil {
		t.Errorf("NewSession refused a coordinate on the bound: %v", err)
	}
}

// degenerateMolecules are inputs at the edge of what the treecode assumes:
// one atom, two atoms on one point, no charge at all, and atoms on one line
// (flat octree boxes).
func degenerateMolecules() map[string]*molecule.Molecule {
	at := func(x, y, z, r, q float64) molecule.Atom {
		return molecule.Atom{Pos: geom.Vec3{X: x, Y: y, Z: z}, Radius: r, Charge: q}
	}
	line := &molecule.Molecule{Name: "collinear"}
	for i := 0; i < 60; i++ {
		line.Atoms = append(line.Atoms, at(1.4*float64(i), 0, 0, 1.6, 0.3*float64(i%3-1)))
	}
	return map[string]*molecule.Molecule{
		"one atom":   {Name: "one", Atoms: []molecule.Atom{at(0, 0, 0, 1.5, 0.5)}},
		"coincident": {Name: "coincident", Atoms: []molecule.Atom{at(1, 2, 3, 1.5, 0.5), at(1, 2, 3, 1.7, 0.5)}},
		"zero charge": {Name: "zero", Atoms: []molecule.Atom{at(0, 0, 0, 1.5, 0), at(3, 0, 0, 1.5, 0),
			at(0, 3, 0, 1.2, 0), at(0, 0, 3, 1.8, 0)}},
		"collinear": line,
	}
}

// TestSessionDegenerateInputs: each degenerate molecule creates a session
// with a finite energy, and frames that move its atoms — onto each other,
// along the line, off it — keep it finite.
func TestSessionDegenerateInputs(t *testing.T) {
	for name, mol := range degenerateMolecules() {
		ss, err := NewSession(mol, SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}})
		if err != nil {
			t.Errorf("%s: NewSession: %v", name, err)
			continue
		}
		energies := []float64{ss.Energy()}
		last := len(mol.Atoms) - 1
		for _, d := range []FrameDelta{
			{Moves: []AtomMove{{Index: 0, Pos: mol.Atoms[last].Pos}}},
			{Moves: []AtomMove{{Index: last, Pos: mol.Atoms[0].Pos.Add(geom.Vec3{X: 0.7})}}},
			{Moves: []AtomMove{{Index: 0, Pos: geom.Vec3{Y: 2.5}}}},
		} {
			rep, err := ss.Step(d)
			if err != nil {
				t.Fatalf("%s: Step: %v", name, err)
			}
			energies = append(energies, rep.Energy)
		}
		for f, e := range energies {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Errorf("%s: energy %d is %g", name, f, e)
			}
		}
		t.Logf("%s: energies %.6g", name, energies)
		ss.Close()
	}
}

// TestSessionMemoryBytesIsTheLiveHeap holds Session.MemoryBytes to what a
// session really keeps alive, measured as the live-heap growth of creating
// one and stepping it through a stream that re-derives drivers, to within
// 10 %.
func TestSessionMemoryBytesIsTheLiveHeap(t *testing.T) {
	mol := molecule.GenerateProtein("heap", 2000, 9)
	frames := homeJitter(mol, 8, 10, 0.25, 3)
	before := liveHeap()
	ss, err := NewSession(mol, SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range frames {
		if _, err := ss.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap() - before
	got := ss.MemoryBytes()
	t.Logf("MemoryBytes %d, live heap %d (%.3f)", got, held, float64(got)/float64(held))
	if d := float64(got-held) / float64(held); d < -0.10 || d > 0.10 {
		t.Errorf("MemoryBytes = %d, live heap grew by %d (%+.1f%%), want within 10%%", got, held, 100*d)
	}
	runtime.KeepAlive(ss)
}

// homeJitter is the stream of the repository benchmark's stream_md
// workload: each of k frames moves `movers` random atoms to a uniform
// per-axis offset from their home position, of norm at most amp.
func homeJitter(mol *molecule.Molecule, k, movers int, amp float64, seed int64) []FrameDelta {
	rng := rand.New(rand.NewSource(seed))
	a := amp / math.Sqrt(3)
	frames := make([]FrameDelta, k)
	for f := range frames {
		for m := 0; m < movers; m++ {
			i := rng.Intn(mol.N())
			d := geom.Vec3{X: (2*rng.Float64() - 1) * a, Y: (2*rng.Float64() - 1) * a, Z: (2*rng.Float64() - 1) * a}
			frames[f].Moves = append(frames[f].Moves, AtomMove{Index: i, Pos: mol.Atoms[i].Pos.Add(d)})
		}
	}
	return frames
}

// BenchmarkSessionStep times the plain incremental frame on the repository
// benchmark's stream_md recipe — a 3 000-atom protein, 10 atoms per frame
// jittering within 0.15 Å of home, engine defaults — with the periodic
// resweep pushed out of the loop. Every timed frame is a fresh one, as in
// stream_md: a frame replayed would move its atoms to where they already
// are and push fewer radii. Profile it with
//
//	go test ./internal/engine -run '^$' -bench SessionStep -cpuprofile step.prof
//
// to see a frame per stage (row re-sum, Born blocks, E_pol sweep). Beside
// the time it reports per frame the radii pushed past the radius tolerance, the
// energy drivers resummed and the ordered atom pairs of the energy near
// entries evaluated: counts that do not drift with the machine.
func BenchmarkSessionStep(b *testing.B) {
	mol := molecule.GenerateProtein("stream-200", 3000, 1200)
	frames := homeJitter(mol, b.N, 10, 0.15, 1201)
	ss, err := NewSession(mol, SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}, ResweepEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pushed, drivers, pairs int64
	for _, d := range frames {
		rep, err := ss.Step(d)
		if err != nil {
			b.Fatal(err)
		}
		pushed += int64(rep.PushedRadii)
		drivers += int64(rep.DirtyEpolDrivers)
		pairs += rep.EpolNearPairs
	}
	n := float64(b.N)
	b.ReportMetric(float64(pushed)/n, "pushed/frame")
	b.ReportMetric(float64(drivers)/n, "epol-drivers/frame")
	b.ReportMetric(float64(pairs)/n, "epol-pairs/frame")
}

// BenchmarkNewSession times creating a session on the stream_md molecule
// (3 000 atoms, engine defaults) and reports beside milliseconds, bytes and
// allocations per create the session's resident size, Session.MemoryBytes,
// in MB: the deterministic measure of what a session costs to create and
// to keep. "fresh" creates with core.Free drained; "recycled" closes the
// previous session first, so each create takes its stores and solvers.
func BenchmarkNewSession(b *testing.B) {
	mol := molecule.GenerateProtein("stream-200", 3000, 1200)
	o := SessionOptions{Surf: surface.Default(), Eval: Options{Threads: 1}}
	for _, recycle := range []bool{false, true} {
		name := "fresh"
		if recycle {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			core.Free.Drain()
			ss, err := NewSession(mol, o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recycle {
					ss.Close()
				}
				if ss, err = NewSession(mol, o); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
			b.ReportMetric(float64(ss.MemoryBytes())/1e6, "session-MB")
			ss.Close()
		})
	}
}
