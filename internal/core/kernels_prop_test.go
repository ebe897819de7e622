package core

import (
	"fmt"
	"math"
	"testing"
)

// Property suite for the hand-vectorized flat kernels: tile-boundary leaf
// sizes against the recursive oracle, vector-vs-scalar dispatch parity,
// and allocation-freedom pins.

// TestFlatKernelsTileBoundarySizes sweeps octree leaf capacities that sit
// on the vector kernels' tile and unroll boundaries (tile cap 64, lane
// width 4): leaves of size 1, unroll−1/unroll/unroll+1, a non-multiple of
// the unroll, and cap−1/cap/cap+1 (the latter falling back to the scalar
// run path). Every combination must reproduce the recursive oracle to
// 1e-12.
func TestFlatKernelsTileBoundarySizes(t *testing.T) {
	leafSizes := []int{1, 3, 4, 5, 7, 63, 64, 65}
	if testing.Short() {
		leafSizes = []int{1, 5, 64, 65}
	}
	for _, n := range []int{1, 6, 300} {
		m, q := testMol(n, int64(301+n))
		for _, leaf := range leafSizes {
			t.Run(fmt.Sprintf("n=%d/leaf=%d", n, leaf), func(t *testing.T) {
				for _, exp := range []int{6, 4} {
					cfg := BornConfig{Eps: 0.9, Exponent: exp, LeafSize: leaf}
					bs := NewBornSolver(m, q, cfg)

					rn, ra := bs.NewAccumulators()
					for l := 0; l < bs.NumQLeaves(); l++ {
						bs.AccumulateQLeaf(l, rn, ra)
					}

					list := bs.BuildBornList(0, bs.NumQLeaves())
					fn, fa := bs.NewAccumulators()
					bs.EvalBornList(list, fn, fa)
					assertClose(t, fmt.Sprintf("r%d sNode", exp), fn, rn)
					assertClose(t, fmt.Sprintf("r%d sAtom", exp), fa, ra)
				}

				R := treecodeRadii(m, q)
				es := NewEpolSolverFromMolecule(m, R, EpolConfig{Eps: 0.9, LeafSize: leaf})
				var rRaw float64
				for l := 0; l < es.NumLeaves(); l++ {
					e, _ := es.LeafEnergy(l)
					rRaw += e
				}
				list := es.BuildEpolList(0, es.NumLeaves())
				fRaw, _ := es.EvalEpolList(list)
				if e := relErr(fRaw, rRaw); e > 1e-12 {
					t.Fatalf("epol energy: flat %v vs recursive %v (rel %v)", fRaw, rRaw, e)
				}
			})
		}
	}
}

// TestBornNearVecMatchesScalar pins the AVX2 Born near kernel against the
// pure-Go scalar kernel on the same list: per-element agreement to 1e-12.
// The near integrand subtracts two nearby reciprocals, so this is the
// test that catches re-association breaking cancellation.
func TestBornNearVecMatchesScalar(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2+FMA; vector path unreachable")
	}
	for _, exp := range []int{6, 4} {
		m, q := testMol(2000, int64(77+exp))
		bs := NewBornSolver(m, q, BornConfig{Eps: 0.9, Exponent: exp})
		list := bs.BuildBornList(0, bs.NumQLeaves())

		_, va := bs.NewAccumulators()
		bs.EvalBornNearRange(list, 0, len(list.Near), va)

		_, sa := bs.NewAccumulators()
		forceScalar(func() { bs.EvalBornNearRange(list, 0, len(list.Near), sa) })

		for i := range va {
			if e := relErr(va[i], sa[i]); e > 1e-12 {
				t.Fatalf("r%d sAtom[%d]: vec %v vs scalar %v (rel %v)", exp, i, va[i], sa[i], e)
			}
		}
	}
}

// TestBornRowBlocksMatchPerEntry holds the row-batched evaluator to the
// per-entry call it replaces in the session: for an A-leaf and a list of
// q-leaves, block k must carry the bits EvalBornNearRange leaves in a zeroed
// accumulator for the one-entry list {(a, q_k)} — on the vector and the
// pure-Go path, for both integrands, with q-leaves wider than bornTileCap (the vector path's scalar fallback), and for an
// empty partner list.
func TestBornRowBlocksMatchPerEntry(t *testing.T) {
	m, q := testMol(600, 83)
	for _, cfg := range []BornConfig{
		{Eps: 0.9},
		{Eps: 0.9, Exponent: 4},
		{Eps: 0.9, LeafSize: 3 * bornTileCap}, // q-leaves up to 192 points wide
	} {
		bs := NewBornSolver(m, q, cfg)
		wide := 0
		for _, ql := range bs.TQ.LeafIdx {
			if lo, hi := bs.TQ.PointRange(ql); int(hi-lo) > bornTileCap {
				wide++
			}
		}
		if cfg.LeafSize > bornTileCap && wide == 0 {
			t.Fatalf("%+v: no q-leaf wider than the tile; scalar fallback untested", cfg)
		}
		// Every third q-leaf, so consecutive entries pack different tiles.
		var qLeaves []int32
		for ql := 0; ql < bs.NumQLeaves(); ql += 3 {
			qLeaves = append(qLeaves, int32(ql))
		}
		check := func(path string) {
			_, want := bs.NewAccumulators()
			var one InteractionList
			for _, a := range bs.TA.LeafIdx[:min(8, len(bs.TA.LeafIdx))] {
				lo, hi := bs.TA.PointRange(a)
				cnt := int(hi - lo)
				got := make([]float64, len(qLeaves)*cnt+1)
				got[len(got)-1] = 42 // one past the last block: must stay untouched
				bs.EvalBornRowBlocks(a, lo, hi, qLeaves, got)
				for k, ql := range qLeaves {
					clear(want[lo:hi])
					one.Near = append(one.Near[:0], NodePair{A: a, B: bs.TQ.LeafIdx[ql]})
					bs.EvalBornNearRange(&one, 0, 1, want)
					for j := 0; j < cnt; j++ {
						if g, w := got[k*cnt+j], want[int(lo)+j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%+v %s: leaf %d entry %d row %d: batched %v, per-entry %v", cfg, path, a, k, j, g, w)
						}
					}
				}
				if got[len(got)-1] != 42 {
					t.Fatalf("%+v %s: leaf %d: wrote past the last block", cfg, path, a)
				}
				bs.EvalBornRowBlocks(a, lo, hi, nil, got[:0]) // empty partner list: nothing to write, no panic
			}
		}
		if hasAVX2FMA {
			check("vec")
		}
		forceScalar(func() { check("scalar") })
	}
}

// TestBornRowBlocksSubRange holds a row sub-range of the row-batched
// evaluator to the full-leaf call: every element of the rows asked for
// carries the bits the full call writes there, and every other element is
// left as it was — on the vector and the pure-Go path, for both
// integrands, and for depth-capped leaves of coincident points larger than
// bornTileCap on both trees (the wide q-leaf takes the vector path's scalar
// fallback).
func TestBornRowBlocksSubRange(t *testing.T) {
	m, q := testMol(400, 89)
	for i := 0; i < bornTileCap+16; i++ {
		m.Atoms = append(m.Atoms, m.Atoms[0])
		q = append(q, q[0])
	}
	for _, exp := range []int{6, 4} {
		bs := NewBornSolver(m, q, BornConfig{Eps: 0.9, Exponent: exp})
		leaves := bs.TA.LeafIdx[:min(6, len(bs.TA.LeafIdx))]
		var capped int32 = -1
		for _, a := range bs.TA.LeafIdx {
			if lo, hi := bs.TA.PointRange(a); int(hi-lo) > bornTileCap {
				capped = a
			}
		}
		if capped < 0 {
			t.Fatalf("r%d: no T_A leaf wider than the tile; depth-capped leaf untested", exp)
		}
		leaves = append(leaves, capped)
		var qLeaves []int32
		wide := 0
		for ql, qn := range bs.TQ.LeafIdx {
			qLeaves = append(qLeaves, int32(ql))
			if lo, hi := bs.TQ.PointRange(qn); int(hi-lo) > bornTileCap {
				wide++
			}
		}
		if wide == 0 {
			t.Fatalf("r%d: no q-leaf wider than the tile; scalar fallback untested", exp)
		}
		check := func(path string) {
			for _, a := range leaves {
				lo, hi := bs.TA.PointRange(a)
				cnt := int(hi - lo)
				full := make([]float64, len(qLeaves)*cnt)
				bs.EvalBornRowBlocks(a, lo, hi, qLeaves, full)
				for _, r := range [][2]int32{{lo, lo + 1}, {hi - 1, hi}, {lo + int32(cnt)/3, hi - int32(cnt)/3}} {
					if r[0] >= r[1] {
						continue
					}
					got := make([]float64, len(full))
					for i := range got {
						got[i] = -7 // outside the rows: must stay untouched
					}
					bs.EvalBornRowBlocks(a, r[0], r[1], qLeaves, got)
					for k := range qLeaves {
						for j := 0; j < cnt; j++ {
							want, in := -7.0, lo+int32(j) >= r[0] && lo+int32(j) < r[1]
							if in {
								want = full[k*cnt+j]
							}
							if g := got[k*cnt+j]; math.Float64bits(g) != math.Float64bits(want) {
								t.Fatalf("r%d %s: leaf %d rows [%d,%d) entry %d row %d (in range %v): got %v, want %v", exp, path, a, r[0], r[1], k, j, in, g, want)
							}
						}
					}
				}
			}
		}
		if hasAVX2FMA {
			check("vec")
		}
		forceScalar(func() { check("scalar") })
	}
}

// TestEpolNearVecMatchesScalar pins the AVX2 energy near kernel (vector
// exp, gathered 2^j table, Go-side self-pair correction) against the
// scalar kernel on the same list.
func TestEpolNearVecMatchesScalar(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2+FMA; vector path unreachable")
	}
	m, q := testMol(2000, 79)
	R := treecodeRadii(m, q)
	es := NewEpolSolverFromMolecule(m, R, EpolConfig{Eps: 0.9})
	list := es.BuildEpolList(0, es.NumLeaves())

	vec := es.EvalEpolNearRange(list, 0, len(list.Near))
	var scalar float64
	forceScalar(func() { scalar = es.EvalEpolNearRange(list, 0, len(list.Near)) })
	if e := relErr(vec, scalar); e > 1e-12 {
		t.Fatalf("near sum: vec %v vs scalar %v (rel %v)", vec, scalar, e)
	}
}

// TestKernelEvalZeroAllocs pins the flat evaluation hot paths at exactly
// zero allocations per pass once the lists and accumulators exist.
func TestKernelEvalZeroAllocs(t *testing.T) {
	m, q := testMol(2000, 83)
	R := treecodeRadii(m, q)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9})
	bList := bs.BuildBornList(0, bs.NumQLeaves())
	sN, sA := bs.NewAccumulators()
	if allocs := testing.AllocsPerRun(3, func() {
		bs.EvalBornList(bList, sN, sA)
	}); allocs != 0 {
		t.Errorf("EvalBornList: %v allocs/op, want 0", allocs)
	}

	es := NewEpolSolverFromMolecule(m, R, EpolConfig{Eps: 0.9})
	eList := es.BuildEpolList(0, es.NumLeaves())
	if allocs := testing.AllocsPerRun(3, func() {
		raw, _ := es.EvalEpolList(eList)
		_ = raw
	}); allocs != 0 {
		t.Errorf("EvalEpolList: %v allocs/op, want 0", allocs)
	}
}
