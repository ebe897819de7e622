package core

import (
	"fmt"
	"math"
	"testing"
)

// TestStreamedBornMatchesMaterialised holds the engines' streamed Born phase
// to the materialised form it replaced: the same Stats and, because tiles
// are cut only where every accumulator keeps its addition order, the same
// bits in sNode and sAtom — for both traversals, both integrands, and any
// tile size from one entry to the whole list.
func TestStreamedBornMatchesMaterialised(t *testing.T) {
	m, q := testMol(1200, 77)
	for _, cfg := range []BornConfig{
		{Eps: 0.9},
		{Eps: 0.5, Exponent: 4},
		{Eps: 0.9, LeafSize: 5},
	} {
		bs := NewBornSolver(m, q, cfg)
		leaves := bs.NumQLeaves()
		lo, hi := leaves/5, leaves-leaves/7 // a segment, as a rank sees it

		wantN, wantA := bs.NewAccumulators()
		wantSt := bs.EvalBornList(bs.BuildBornList(lo, hi), wantN, wantA)
		dualN, dualA := bs.NewAccumulators()
		dualSt := bs.EvalBornList(bs.BuildBornDualList(), dualN, dualA)
		front, expand := bs.DualFrontier(64)

		for _, limit := range []int{1, 7, bornTileEntries, math.MaxInt} {
			name := fmt.Sprintf("%+v/tile=%d", cfg, limit)
			var tile InteractionList
			gotN, gotA := bs.NewAccumulators()
			st := bs.streamBornLeaves(&tile, lo, hi, limit, gotN, gotA)
			sameBits(t, name+"/leaves", st, wantSt, gotN, wantN, gotA, wantA)

			// The tile is reused as it comes back, stack and all.
			gotN, gotA = bs.NewAccumulators()
			st = bs.streamBornDual(&tile, []NodePair{{0, 0}}, limit, gotN, gotA)
			sameBits(t, name+"/dual", st, dualSt, gotN, dualN, gotA, dualA)

			// Frontier pairs in two batches, as two chunks of a pool's run.
			gotN, gotA = bs.NewAccumulators()
			st = expand
			st.Add(bs.streamBornDual(&tile, front[:len(front)/3], limit, gotN, gotA))
			st.Add(bs.streamBornDual(&tile, front[len(front)/3:], limit, gotN, gotA))
			sameBits(t, name+"/frontier", st, dualSt, gotN, dualN, gotA, dualA)
		}
	}
}

func sameBits(t *testing.T, name string, st, wantSt Stats, n, wantN, a, wantA []float64) {
	t.Helper()
	if st != wantSt {
		t.Errorf("%s: stats %+v, materialised %+v", name, st, wantSt)
	}
	for i := range wantN {
		if math.Float64bits(n[i]) != math.Float64bits(wantN[i]) {
			t.Fatalf("%s: sNode[%d] = %v, materialised %v", name, i, n[i], wantN[i])
		}
	}
	for i := range wantA {
		if math.Float64bits(a[i]) != math.Float64bits(wantA[i]) {
			t.Fatalf("%s: sAtom[%d] = %v, materialised %v", name, i, a[i], wantA[i])
		}
	}
}
