package engine

import (
	"math"
	"testing"

	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// twoSidedEnergy is the oracle for the session's energy phase: the energy
// the session gave before mirrored blocks were counted once — every near
// entry of every driver evaluated, its values summed in traversal order,
// the drivers' near and far sums added ascending. It reads only the
// session's lists, solver state and far sums, which do not depend on how
// the near sums are formed, so it is what a two-sided session stepped
// through the same frames reports.
func twoSidedEnergy(ss *Session) float64 {
	var raw float64
	var vals []float64
	for vl, near := range ss.epolNear {
		vals = core.Resize(vals, len(near))
		ss.es.EvalEpolNearEntryValues(near, nil, vals)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		raw += sum + ss.farVal[vl]
	}
	return raw * core.EnergyScale()
}

// checkMutualWeights verifies every energy near entry's weight against the
// lists alone, written out independently of the session: a leaf's entry
// with itself and an entry whose block is in one list only weigh 1; the
// two entries of a block that is in both lists weigh 2 at the owner
// core.OwnsMutualBlock names and 0 at the other driver.
func checkMutualWeights(t *testing.T, ss *Session) {
	t.Helper()
	type key struct{ u, v int32 }
	at := map[key]uint8{}
	for vl, near := range ss.epolNear {
		if len(ss.epolW[vl]) != len(near) {
			t.Fatalf("frame %d driver %d: %d weights for %d entries", ss.frame, vl, len(ss.epolW[vl]), len(near))
		}
		for k, p := range near {
			at[key{p.A, p.B}] = ss.epolW[vl][k]
		}
	}
	mirrored := 0
	for k, w := range at {
		back, ok := at[key{k.v, k.u}]
		switch {
		case k.u == k.v || !ok:
			if w != 1 {
				t.Fatalf("frame %d: entry (%d, %d) is one-sided or a self block and weighs %d", ss.frame, k.u, k.v, w)
			}
		default:
			mirrored++
			want := uint8(0)
			if core.OwnsMutualBlock(ss.aDense[k.u], ss.aDense[k.v]) {
				want = 2
			}
			if w != want || w+back != 2 {
				t.Fatalf("frame %d: mirrored block (%d, %d) weighs %d here and %d at the other driver, want %d / %d", ss.frame, k.u, k.v, w, back, want, 2-want)
			}
		}
	}
	if mirrored == 0 {
		t.Fatalf("frame %d: no mirrored block; the owner rule is untested", ss.frame)
	}
}

// sessionRegimes are 72-frame streams of the stream_md recipe (10 movers
// jittered around their home positions) at three amplitudes: one that
// stays on the incremental path, one that re-derives drivers on nearly
// every frame, and one that refreshes the structure on nearly every frame.
var sessionRegimes = []struct {
	name string
	amp  float64
}{
	{"incremental", 0.15},
	{"re-derive", 0.25},
	{"refresh", 0.6},
}

// TestSessionMatchesTwoSidedOracle holds the session, which evaluates a
// mirrored block once at its owner and doubles it, to the two-sided
// oracle within 1e-12 relative on every frame of every regime, while the
// incremental session stays bitwise equal to the every-frame resweep.
func TestSessionMatchesTwoSidedOracle(t *testing.T) {
	mol := molecule.GenerateProtein("mutual", 700, 31)
	o := SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	}
	for _, rg := range sessionRegimes {
		t.Run(rg.name, func(t *testing.T) {
			frames := homeJitter(mol, 72, 10, rg.amp, 29)
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
			worst := relDiff(ss.Energy(), twoSidedEnergy(ss))
			rederived, refreshed := 0, 0
			for f, d := range frames {
				rep, err := ss.Step(d)
				if err != nil {
					t.Fatalf("Step frame %d: %v", f, err)
				}
				orep, err := oracle.Step(d)
				if err != nil {
					t.Fatalf("oracle Step frame %d: %v", f, err)
				}
				if math.Float64bits(rep.Energy) != math.Float64bits(orep.Energy) {
					t.Fatalf("frame %d: incremental %.17g vs resweep %.17g", f, rep.Energy, orep.Energy)
				}
				if rel := relDiff(rep.Energy, twoSidedEnergy(ss)); rel > worst {
					worst = rel
				}
				if rep.Rederived > 0 {
					rederived++
				}
				if rep.Refreshed {
					refreshed++
				}
			}
			t.Logf("%s: %d frames re-derived, %d refreshed, worst relative difference %.3g", rg.name, rederived, refreshed, worst)
			if worst > 1e-12 {
				t.Fatalf("energy differs from the two-sided oracle by %.3g relative, want ≤ 1e-12", worst)
			}
			switch rg.name {
			case "incremental":
				if refreshed != 0 {
					t.Fatalf("%d refreshes; the incremental path is untested", refreshed)
				}
			case "re-derive":
				if rederived < len(frames)*3/4 {
					t.Fatalf("re-derived on %d of %d frames", rederived, len(frames))
				}
			case "refresh":
				if refreshed < len(frames)*3/4 {
					t.Fatalf("refreshed on %d of %d frames", refreshed, len(frames))
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestSessionMutualWeights checks the weight of every energy near entry
// after creation and after every frame of each regime — re-derivations
// and refreshes change list membership, and both drivers of a block must
// keep agreeing on who counts it — and that a frame evaluates no entry of
// weight 0: the driver that skips a block never holds a dirty entry for it.
func TestSessionMutualWeights(t *testing.T) {
	mol := molecule.GenerateProtein("weights", 500, 43)
	o := SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 16,
	}
	for _, rg := range sessionRegimes {
		t.Run(rg.name, func(t *testing.T) {
			ss, err := NewSession(mol, o)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			checkMutualWeights(t, ss)
			for f, d := range homeJitter(mol, 72, 10, rg.amp, 47) {
				if _, err := ss.Step(d); err != nil {
					t.Fatalf("Step frame %d: %v", f, err)
				}
				checkMutualWeights(t, ss)
				for vl := range ss.dirtyEnt {
					if len(ss.dirtyEnt[vl]) != 0 {
						t.Fatalf("frame %d driver %d: %d dirty entries left undrained", ss.frame, vl, len(ss.dirtyEnt[vl]))
					}
				}
			}
		})
	}
}

// TestSessionCountsEachMirroredBlockOnce pins what a frame saves: the
// ordered atom pairs a resweep evaluates are those of the entries weighing
// 1 or 2, which is fewer than the lists hold by the pairs of every
// skipped (weight-0) entry.
func TestSessionCountsEachMirroredBlockOnce(t *testing.T) {
	mol := molecule.GenerateProtein("pairs", 500, 43)
	ss, err := NewSession(mol, SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 1,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	rep, err := ss.Step(FrameDelta{})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	nodes := ss.bs.TA.Nodes
	var owned, all int64
	for vl, near := range ss.epolNear {
		for k, p := range near {
			n := int64(nodes[p.A].Count) * int64(nodes[p.B].Count)
			all += n
			if ss.epolW[vl][k] != 0 {
				owned += n
			}
		}
	}
	if !rep.Resweep || rep.EpolNearPairs != owned {
		t.Fatalf("resweep evaluated %d near pairs, the entries of weight > 0 hold %d", rep.EpolNearPairs, owned)
	}
	if owned == 0 || float64(owned) > 0.6*float64(all) {
		t.Fatalf("entries of weight > 0 hold %d of %d near pairs; mirrored blocks are not counted once", owned, all)
	}
}
