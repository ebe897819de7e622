package engine

import (
	"fmt"
	"math"
	"sort"

	"octgb/internal/cluster"
	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/partition"
)

// RunDistributedDataEnergy executes the energy phase with GENUINELY
// distributed atom data — the working implementation of the paper's §VI
// future-work direction ("distributing data as well as computation"):
//
//   - every rank keeps the tree skeleton (node geometry + charge bins) and
//     the atom payload of its OWN leaf segment; every other atom's charge,
//     Born radius and position are poisoned with NaN;
//   - ranks exchange ghost-leaf payloads point-to-point: each rank
//     requests exactly the leaves its near field touches (NeededLeaves)
//     and each owner answers with the payload;
//   - every rank then runs APPROX-EPOL over its owned leaves and the
//     partial energies are reduced.
//
// The ghost exchange is overlapped with compute: a rank's owned leaves
// split into purely-local ones (near field entirely resident) and boundary
// ones (near field touches a ghost), and the purely-local leaves are
// evaluated BETWEEN sending the payloads this rank owes and receiving the
// ghosts it needs — the paper's compute/communication overlap applied to
// the p2p phase.
//
// Because non-resident data is NaN, a finite result proves the ghost
// analysis was exactly sufficient; tests additionally check the energy
// equals the replicated-data engines'. Born radii are computed with the
// ordinary replicated Born phase first (distributing the Born phase's
// q-points is a further step the paper leaves open).
func RunDistributedDataEnergy(pr *Problem, P int, o Options) (float64, error) {
	o = o.withDefaults(OctMPI)
	if P < 1 {
		P = 1
	}
	setup := newDistDataSetup(pr, P, o)
	energies := make([]float64, P)
	err := cluster.RunLocal(P, nil, func(c cluster.Comm) error {
		e, err := setup.runRank(c)
		if err != nil {
			return err
		}
		energies[c.Rank()] = e
		return nil
	})
	if err != nil {
		return 0, err
	}
	return energies[0], nil
}

// RunDistributedDataEnergyRank is the per-process entry of the
// distributed-data energy phase over an arbitrary communicator with
// point-to-point messaging (a TCP mesh rank, for example): every process
// loads the same inputs and calls this with its own Comm. The shared
// read-only setup (Born phase, full solver, leaf ownership) is rebuilt
// per process, exactly like RunRank's replicated octrees.
func RunDistributedDataEnergyRank(c cluster.Comm, pr *Problem, o Options) (float64, error) {
	o = o.withDefaults(OctMPI)
	return newDistDataSetup(pr, c.Size(), o).runRank(c)
}

// distDataSetup is the shared read-only state of one distributed-data run:
// the fully-populated solver (the data ranks restrict away), the leaf
// partition and the leaf→owner map.
type distDataSetup struct {
	full      *core.EpolSolver
	segs      []partition.Segment
	leafNodes []int32
	ownerOf   map[int32]int
}

func newDistDataSetup(pr *Problem, P int, o Options) *distDataSetup {
	s := &distDataSetup{}
	// Born radii via the standard replicated pipeline.
	bs := core.NewBornSolver(pr.Mol, pr.QPts, o.bornConfig())
	sNode, sAtom := bs.NewAccumulators()
	bs.StreamBornLeaves(new(core.InteractionList), 0, bs.NumQLeaves(), sNode, sAtom)
	rTree := make([]float64, pr.Mol.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(pr.Mol.N()), rTree)
	R := bs.RadiiToOriginal(rTree)
	s.full = core.NewEpolSolver(bs.TA, pr.Charges, R, o.epolConfig())

	nLeaves := s.full.NumLeaves()
	s.segs = partition.Even(nLeaves, P)
	s.leafNodes = s.full.T.Leaves()
	s.ownerOf = make(map[int32]int, nLeaves)
	for r, seg := range s.segs {
		for l := seg.Lo; l < seg.Hi; l++ {
			s.ownerOf[s.leafNodes[l]] = r
		}
	}
	return s
}

// runRank is the per-rank body: ghost analysis, payload exchange with
// purely-local evaluation overlapped, boundary evaluation, reduction.
func (s *distDataSetup) runRank(c cluster.Comm) (float64, error) {
	msgr, ok := c.(cluster.Messenger)
	if !ok {
		return 0, fmt.Errorf("engine: transport lacks point-to-point messaging")
	}
	full, ownerOf := s.full, s.ownerOf
	rank := c.Rank()
	P := c.Size()
	seg := s.segs[rank]

	// Resident set: owned leaves. Ghost set: needed-but-not-owned. Leaves
	// whose near field is entirely resident are "purely local" — they can
	// be evaluated while the ghost payloads are still in flight.
	owned := s.leafNodes[seg.Lo:seg.Hi]
	ghostSet := map[int32]bool{}
	pureLocal := make([]bool, seg.Len())
	for l := seg.Lo; l < seg.Hi; l++ {
		localOnly := true
		for _, need := range full.NeededLeaves(l) {
			if ownerOf[need] != rank {
				ghostSet[need] = true
				localOnly = false
			}
		}
		pureLocal[l-seg.Lo] = localOnly
	}
	ghosts := make([]int32, 0, len(ghostSet))
	for g := range ghostSet {
		ghosts = append(ghosts, g)
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })

	// This rank's restricted (NaN-poisoned) solver.
	local := full.Restrict(owned)

	// Publish per-rank request counts, then the requests themselves,
	// via collectives (the request metadata is tiny); answer each
	// request point-to-point with the leaf payload.
	reqCounts := make([]int, P)
	counts := make([]float64, P)
	counts[rank] = float64(len(ghosts))
	if err := c.AllreduceSum(counts); err != nil {
		return 0, err
	}
	total := 0
	for r := range counts {
		reqCounts[r] = int(counts[r])
		total += reqCounts[r]
	}
	reqSeg := make([]float64, len(ghosts))
	for i, g := range ghosts {
		reqSeg[i] = float64(g)
	}
	allReqs := make([]float64, total)
	if err := c.Allgatherv(reqSeg, reqCounts, allReqs); err != nil {
		return 0, err
	}

	// Serve requests owned by this rank (deterministic order:
	// requester rank, then request order). Send never blocks, so every
	// payload this rank owes is on the wire before any compute starts.
	at := 0
	for r := 0; r < P; r++ {
		for k := 0; k < reqCounts[r]; k++ {
			leaf := int32(allReqs[at])
			at++
			if ownerOf[leaf] != rank {
				continue
			}
			q, rad, pts := full.ResidentData(leaf)
			payload := make([]float64, 0, 2+5*len(q))
			payload = append(payload, float64(leaf), float64(len(q)))
			for i := range q {
				payload = append(payload, q[i], rad[i], pts[i].X, pts[i].Y, pts[i].Z)
			}
			if err := msgr.Send(r, payload); err != nil {
				return 0, err
			}
		}
	}

	// Overlap: evaluate the purely-local leaves while the ghost payloads
	// are in flight. Only the summation order differs from evaluating all
	// owned leaves in segment order (~1e-15 relative).
	var raw float64
	var tile core.InteractionList
	evalLeaf := func(l int) error {
		local.StreamEpolLeaves(&tile, l, l+1, &raw)
		if math.IsNaN(raw) {
			return fmt.Errorf("engine: rank %d leaf %d touched non-resident data (ghost set insufficient)", rank, l)
		}
		return nil
	}
	for l := seg.Lo; l < seg.Hi; l++ {
		if pureLocal[l-seg.Lo] {
			if err := evalLeaf(l); err != nil {
				return 0, err
			}
		}
	}

	// Receive this rank's ghosts (one message per ghost, from its owner,
	// in this rank's request order); payloads go back to the transport's
	// buffer pool once parsed.
	for _, g := range ghosts {
		payload, err := msgr.Recv(ownerOf[g])
		if err != nil {
			return 0, err
		}
		leaf := int32(payload[0])
		if leaf != g {
			return 0, fmt.Errorf("engine: ghost stream misordered: got leaf %d, want %d", leaf, g)
		}
		n := int(payload[1])
		q := make([]float64, n)
		rad := make([]float64, n)
		pts := make([]geom.Vec3, n)
		for i := 0; i < n; i++ {
			base := 2 + 5*i
			q[i], rad[i] = payload[base], payload[base+1]
			pts[i] = geom.V(payload[base+2], payload[base+3], payload[base+4])
		}
		cluster.ReleaseBuffer(payload)
		local.SetResident(leaf, q, rad, pts)
	}

	// Boundary leaves: near field now fully resident. The traversal reads
	// only the shared skeleton, and the SoA kernels touch only the resident
	// point payloads (non-resident coordinates are NaN, so a finite sum
	// still proves the ghost set sufficient).
	for l := seg.Lo; l < seg.Hi; l++ {
		if !pureLocal[l-seg.Lo] {
			if err := evalLeaf(l); err != nil {
				return 0, err
			}
		}
	}

	ebuf := []float64{raw}
	if err := c.AllreduceSum(ebuf); err != nil {
		return 0, err
	}
	return ebuf[0] * core.EnergyScale(), nil
}

// Ghost message ordering: messages between a fixed (owner, requester) pair
// are sent in the requester's (ascending) request order and received the
// same way, so the per-pair streams line up; the embedded leaf id is
// asserted on receipt as a belt-and-braces check.
