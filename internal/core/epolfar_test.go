package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"octgb/internal/octree"
)

// farFixture is a solver holding only what the far kernels read: nodes
// node centres at random in a 40 Å box and, per node, a random subset of M
// Born-radius bins with random charge, dipole and second moments — some
// nodes with one bin, some with none — and the bin R·R tables of a random
// R_min and ε.
func farFixture(rng *rand.Rand, nodes, M int) *EpolSolver {
	s := &EpolSolver{T: &octree.Tree{Nodes: make([]octree.Node, nodes)}, M: M}
	for range nodes {
		s.T.CX = append(s.T.CX, 40*rng.Float64())
		s.T.CY = append(s.T.CY, 40*rng.Float64())
		s.T.CZ = append(s.T.CZ, 40*rng.Float64())
	}
	s.nz.reset()
	for n := range nodes {
		bins := M
		switch n % 5 {
		case 0:
			bins = 1
		case 1:
			bins = rng.Intn(M + 1) // may be 0: a node of zero charge
		}
		for _, b := range rng.Perm(M)[:bins] {
			s.nz.bin = append(s.nz.bin, int32(b))
		}
		// A group's bins ascend, as appendMoments writes them.
		g := s.nz.bin[s.nz.start[n]:]
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && g[j] < g[j-1]; j-- {
				g[j], g[j-1] = g[j-1], g[j]
			}
		}
		for range bins {
			q := 2*rng.Float64() - 1
			for k := range momentFloats {
				scale := 1.0
				switch {
				case k >= 4:
					scale = 9
				case k >= 1:
					scale = 3
				}
				v := q * scale * (2*rng.Float64() - 1)
				if k == 0 {
					v = q
				}
				s.nz.mom = append(s.nz.mom, v)
			}
		}
		s.nz.start = append(s.nz.start, int32(len(s.nz.bin)))
	}
	rmin, eps := 1+2*rng.Float64(), 0.1+0.9*rng.Float64()
	for t := range 2*M - 1 {
		rr := rmin * rmin * math.Pow(1+eps, float64(t))
		s.binRR = append(s.binRR, rr)
		s.invRR4 = append(s.invRR4, 1/(4*rr))
	}
	s.buildFarBlocks()
	return s
}

// farRuns returns far entries in runs sharing their v node, of random
// lengths from 1 to 9, total entries in all.
func farRuns(rng *rand.Rand, nodes, total int) []NodePair {
	var far []NodePair
	for len(far) < total {
		v := int32(rng.Intn(nodes))
		for range min(1+rng.Intn(9), total-len(far)) {
			far = append(far, NodePair{int32(rng.Intn(nodes)), v})
		}
	}
	return far
}

// checkFarKernel holds the dispatched far paths to farPair bit for bit
// (the kernel repeats its operations; bits are stricter than the 1e-12
// the kernel owes): each entry alone, the whole range and a run through
// EvalEpolFarDriver against the scalar range in one accumulator.
func checkFarKernel(t *testing.T, name string, s *EpolSolver, far []NodePair) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, p := range far {
		got := s.evalEpolFar(far[k : k+1])
		if want := s.farPair(p.A, p.B, &s.nz, p.A, p.B); !same(got, want) {
			t.Fatalf("%s: entry %d %v: kernel %v, farPair %v (rel %v)", name, k, p, got, want, relErr(got, want))
		}
	}
	var want float64
	forceScalar(func() { want = s.evalEpolFar(far) })
	if got := s.evalEpolFar(far); !same(got, want) {
		t.Fatalf("%s: range %v, scalar %v", name, got, want)
	}
	v := far[0].B
	var us []int32
	for _, p := range far {
		if p.B != v {
			break
		}
		us = append(us, p.A)
	}
	forceScalar(func() { want = s.evalEpolFar(far[:len(us)]) })
	if got := s.EvalEpolFarDriver(us, v); !same(got, want) {
		t.Fatalf("%s: driver of %d nodes %v, scalar range %v", name, len(us), got, want)
	}
}

// TestEpolFarKernelMatchesFarPair: on dual lists of real molecules, at
// ε_E from 0.9 to 0.2 (some nodes then hold more bins than a lane block),
// every far entry through the dispatched path is farPair's, and so is
// each list's far range; a held list's energy, every root's EvalEpolList
// in root order, is its forceScalar energy within 1e-12 (the near kernels
// are not bitwise twins).
func TestEpolFarKernelMatchesFarPair(t *testing.T) {
	m, q := testMol(1200, 52)
	R := treecodeRadii(m, q)
	for _, eps := range []float64{0.9, 0.5, 0.2} {
		name := fmt.Sprintf("eps=%v", eps)
		es := NewEpolSolverFromMolecule(m, R, 0, EpolConfig{Eps: eps})
		far := es.BuildEpolDualList().Far
		if len(far) == 0 {
			t.Fatalf("%s: no far entries", name)
		}
		checkFarKernel(t, name, es, far)
		d := es.BuildDualList(32)
		held := func() (raw float64) {
			for r := range d.Roots() {
				seg := d.Root(r)
				e, _ := es.EvalEpolList(&seg)
				raw += e
			}
			return raw
		}
		var want float64
		forceScalar(func() { want = held() })
		if got := held(); relErr(got, want) > 1e-12 || math.IsNaN(got) {
			t.Errorf("%s: held list %v, forceScalar %v", name, got, want)
		}
	}
}

// FuzzEpolFarKernel holds the far kernel to farPair, bit for bit, on
// random centres, charges and moments: M from 1 to 8, nodes of zero, one
// and many bins (past four, a lane block's, the call ends and farPair
// takes the entry), so every entry shape, pair counts that are not a
// multiple of four, and runs sharing their v node for the driver path.
func FuzzEpolFarKernel(f *testing.F) {
	for m := range 8 {
		f.Add(int64(m), uint8(m), uint8(4*m+1))
	}
	f.Add(int64(99), uint8(0), uint8(4))
	f.Add(int64(7), uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, mb, entries uint8) {
		rng := rand.New(rand.NewSource(seed))
		M, nodes := 1+int(mb%8), 2+rng.Intn(40)
		s := farFixture(rng, nodes, M)
		far := farRuns(rng, nodes, 1+int(entries))
		checkFarKernel(t, fmt.Sprintf("seed=%d/M=%d", seed, M), s, far)
	})
}
