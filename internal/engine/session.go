package engine

import (
	"fmt"
	"math"
	"slices"

	"octgb/internal/core"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// Session is the incremental-evaluation pipeline for moving molecules: an
// MD-trajectory or docking-refinement stream where a small fraction of the
// atoms moves a little each frame. Where Prepared amortizes preprocessing
// across evaluations of FROZEN geometry, a Session amortizes it across
// frames of DRIFTING geometry, turning per-frame cost from O(full eval)
// into O(changed atoms + affected neighborhoods).
//
// The design has three layers of caching, each with an explicit validity
// rule:
//
//   - Structure (octrees, interaction lists). Both trees' topology is
//     frozen for the session's lifetime; node geometry is frozen per
//     "epoch" between structural refreshes. Interaction lists are derived
//     per DRIVER leaf (a T_Q leaf for the Born phase, an atoms-tree leaf
//     for the energy phase) with every enclosing ball inflated by a slack
//     margin (core.SlackMargin), so a list stays valid while its driver's
//     points drift within the margin. A driver whose points exceed their
//     margin gets just its own segment re-derived against the refit ball
//     of its current points; a non-driver (internal) node exceeding its
//     margin triggers a full structural refresh (refit + rebuild).
//   - Far fields. Far-entry values depend only on epoch-frozen node
//     geometry and aggregates (ñ_Q is position independent; the energy
//     phase's charge bins are frozen per epoch), so they are cached per
//     entry and only recomputed when their segment is re-derived.
//   - Per-frame values, cached at PAIR granularity. The Born phase keeps
//     one row block per (T_A leaf, driver) near entry — the driver's
//     contribution to each atom of the leaf — and the energy phase one
//     value per (u-leaf, driver) near entry. A cached entry is a pure
//     function of its two leaves' atom data, so exactly the entries whose
//     inputs changed are re-evaluated each frame, and the sums over them
//     are rebuilt as plain float64 additions in a canonical order. For a
//     Born row that order is a FIXED TWO-LEVEL TREE: the row's blocks sit
//     in ascending driver order (slot s of P), every bornGroup consecutive
//     slots are added left to right into one group sum, and the row is the
//     left-to-right sum of its group sums. A rewritten block dirties only
//     its group, so a frame re-adds the groups that changed plus one short
//     pass over the group sums — O(changed blocks), not O(dirty rows ×
//     partners). The energy phase sums a driver's entry values in
//     traversal order and the drivers ascending. Every path —
//     incremental, resweep, refresh, creation — evaluates a block or an
//     entry through the same range evaluators (the row-major and the
//     driver-major Born evaluator give an entry the same bits) and sums
//     through the same group and row functions, and there is NO
//     subtract-old/add-new arithmetic anywhere, so a clean cache entry is
//     BITWISE the value a full recompute would produce: a session with
//     ResweepEvery=1 (every frame recomputes every value from current
//     state) is the from-scratch oracle, and the incremental path must
//     match it exactly, not merely within a drift tolerance.
//     ResweepEvery's periodic full resweep therefore re-verifies rather
//     than repairs; it bounds the blast radius of any dirty-tracking
//     defect.
//
// The per-driver and per-row stores are capacity-capped views cut from a
// few large allocations (sessionArenas), not individually grown slices: a
// view that a re-derivation outgrows moves to the heap on its own and
// cannot run into its neighbour.
//
// One deliberate, bounded staleness knob sits between the two phases:
// exact Born radii (rTree) are maintained every frame, but the energy
// solver's copy is re-pushed only when a radius drifts more than
// RadiusTolerance relative to its pushed value. Without the gate the
// radius coupling is dense — at 1% atom motion essentially every radius
// moves by a few ulps to 1e-6 relative, dirtying every energy driver and
// pinning the frame cost at a full energy near-field sweep. The push rule
// is a deterministic function of the frame stream alone (resweeps
// recompute values but do not force pushes), so oracle and incremental
// sessions hold bitwise-identical pushed radii and the bitwise oracle
// contract is untouched; the cost is a bounded absolute offset of order
// RadiusTolerance against a zero-tolerance session, far below the
// treecode approximation error. RadiusTolerance < 0 disables the gate.
//
// Surface quadrature points are transported rigidly with their owning atom
// (surface.SampleOwned); burial culling is decided at session creation and
// not revisited, which is the standard fixed-topology approximation for
// small-amplitude streams. A Session is not safe for concurrent use.
type Session struct {
	opts SessionOptions
	eo   Options // evaluation options, defaults resolved

	mol     *molecule.Molecule // session-owned copy, current positions
	charges []float64

	bs *core.BornSolver
	es *core.EpolSolver

	// Frozen-topology maps.
	aInv    []int32     // original atom index -> T_A tree index
	aLeafOf []int32     // T_A tree index -> owning leaf node
	qLeafOf []int32     // T_Q tree index -> owning leaf node
	qOwner  [][]int32   // original atom index -> owned q-point tree indices
	qOff    []geom.Vec3 // q-point tree index -> rigid offset from owner atom
	aDense  []int32     // T_A node id -> dense leaf index (-1 for non-leaf)
	qDense  []int32     // T_Q node id -> dense leaf index

	// Born phase per-driver segments (indexed by dense T_Q leaf index).
	bornNear       [][]int32   // near entries: T_A leaf node ids, traversal order
	bornFar        [][]int32   // far entries: T_A node ids, traversal order
	bornFarVal     [][]float64 // cached far-entry values, parallel to bornFar
	bornPartners   [][]int32   // T_A leaf node id -> dense driver indices, ascending
	bornPartnerPos [][]int32   // parallel: entry index within the driver's near list
	bornEntrySlot  [][]int32   // per driver: entry k's slot in its row's partner list

	// rowBlk holds the per-(row, driver) near blocks ROW-major: row leaf a
	// keeps its partners' blocks contiguous in ascending driver order
	// (slot s of P, each Count(a) wide). rowGrp holds the first level of
	// the row's canonical sum — group g is the left-to-right sum of slots
	// [g·bornGroup, (g+1)·bornGroup) — and the row itself is the
	// left-to-right sum of its groups; grpDirty marks the groups a block
	// write invalidated. The trade of the row-major layout is that a row's
	// slots shift when its partner MEMBERSHIP changes; rederiveBorn repairs
	// exactly those rows (symmetric difference of the old and new near
	// list) and they re-evaluate all their blocks.
	rowBlk   [][]float64 // per T_A leaf node id
	rowGrp   [][]float64 // per T_A leaf node id: ⌈P/bornGroup⌉ group sums
	grpDirty [][]bool    // per T_A leaf node id: groups to re-add

	sNodeFar  []float64 // per T_A node: canonical far sums
	farTotal  []float64 // per T_A node: pushed-down ancestor totals
	sAtomNear []float64 // per atom (tree order): near-field rows
	rTree     []float64 // per atom (tree order): exact current Born radii
	rPushed   []float64 // per atom (tree order): radius the energy solver holds

	// Energy phase per-driver segments (indexed by dense atoms-tree leaf
	// index). Near segments keep the NodePair form so resums can run the
	// same (vectorized where available) range evaluator the flat pipeline
	// uses — the session must use ONE evaluator per value kind everywhere,
	// or incremental and resweep values would diverge at summation-order
	// level.
	epolNear       [][]core.NodePair // near entries, traversal order
	epolNearVal    [][]float64       // cached per-entry near values, parallel to epolNear
	epolFar        [][]int32         // far entries: u node ids, traversal order
	nearVal        []float64         // per driver: near-field sum
	farVal         []float64         // per driver: far-field sum (epoch-frozen inputs)
	epolPartners   [][]int32         // u-leaf node id -> dense driver indices, ascending
	epolPartnerPos [][]int32         // parallel: entry index within the driver's near list

	// Slack-margin state. refPos* is the per-point position at the owning
	// driver's last (re-)derivation; epochPos* at the last structural
	// refresh. disp* hold per-leaf maximum point displacements against
	// those references; refBallR* the driver-ball radius the slack budget
	// is anchored to.
	refPosA, epochPosA   []geom.Vec3
	refPosQ, epochPosQ   []geom.Vec3
	dispRefA, dispEpochA []float64
	dispRefQ, dispEpochQ []float64
	refBallRA, refBallRQ []float64
	nodeDispA, nodeDispQ []float64 // epoch-bubble scratch, per node

	frame  int
	energy float64

	arenas sessionArenas

	// Per-frame scratch (mark bits cleared lazily via the id lists).
	scratch        core.InteractionList
	rowPairs       core.InteractionList // one driver's near entries as pairs
	rowScratch     []float64            // full-length row scratch for driver block evals
	movedA, movedQ []int32              // moved leaf node ids this frame
	markA, markQ   []bool
	dirtyRows      []int32 // T_A leaf node ids with dirty near rows
	markRow        []bool
	dirtyV         []int32 // dense energy-driver indices to resum
	markV          []bool
	listU          []int32 // T_A leaf node ids whose energy inputs changed
	markU          []bool
	dirtyEnt       [][]int32 // per driver: entry indices to re-evaluate (drained per frame)
	fullV          []bool    // per driver: re-evaluate the whole segment this frame
	slotDirty      []int32   // T_A leaf node ids whose partner membership changed
	markSlot       []bool
	farDirty       []int32 // T_A node ids whose far sum a re-derivation changed
	markFar        []bool
	oldNear        []int32 // rederiveBorn scratch: the driver's previous near list
	oldSlot        []int32 // and the slots its entries held
}

// bornGroup is the number of consecutive block-store slots one group sum
// of a Born row covers. It fixes the shape of the canonical sum, so it is a
// constant of the session format, not a tuning knob: 16 makes the second
// level of a 2 000-partner row 125 additions per atom and keeps a group's
// re-add (16 blocks) cheaper than the block evaluation that dirtied it.
const bornGroup = 16

// sessionArenas owns the backing storage of the per-driver and per-row
// stores. Traversal output (near and far lists, far values), whose length
// is known only once a driver's traversal has run, is cut from chunked
// slabs; everything derived from those lists is counted first and cut from
// one exact allocation. A structural refresh reuses all of it.
type sessionArenas struct {
	near, far, epolFar slab[int32]
	farVal             slab[float64]
	epolNear           slab[core.NodePair]

	slots, partners, partnerPos       []int32
	blocks, groups                    []float64
	marks                             []bool
	epolVals                          []float64
	epolPartners, epolPartnerPos, ent []int32
}

// slabShare sizes a slab's chunks: a chunk holds slabShare entries per
// driver, a few per cent of what the drivers' lists come to (a Born driver
// at the default ε has ~70 near and ~230 far entries).
const slabShare = 32

// slab cuts capacity-capped slices out of equally sized chunks, allocating
// a chunk whenever the current one cannot hold the next cut (one larger
// than a chunk gets a chunk of its own). reset hands the same chunks out
// again.
type slab[T any] struct {
	chunk     int // chunk length
	chunks    [][]T
	cur, used int
}

func (s *slab[T]) reset(chunk int) { s.chunk, s.cur, s.used = chunk, 0, 0 }

func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	s.chunks = append(s.chunks, make([]T, max(n, s.chunk)))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// cut takes the next n elements of a counted arena as a view that cannot
// grow into what follows it.
func cut[T any](buf *[]T, n int) []T {
	v := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return v
}

// SessionOptions configures a streaming session.
type SessionOptions struct {
	// Surf is the surface sampling used once at session creation.
	Surf surface.Options
	// Eval supplies the engine parameters (BornEps, EpolEps, Math,
	// LeafSize, CriterionPower). Parallel/distributed fields are ignored —
	// a session evaluates serially, its work being O(dirty).
	Eval Options
	// ResweepEvery forces a full value resweep every k-th frame (≤0 → 64).
	// The resweep recomputes every cached value from current positions in
	// canonical order; with sound dirty tracking it is a bitwise no-op, so
	// it bounds the damage of a tracking defect rather than accumulated
	// float drift (the zero-and-resum design has none). 1 = every frame
	// (the from-scratch oracle the property tests compare against).
	ResweepEvery int
	// SlackFactor and MinSlack define the drift margin
	// core.SlackMargin(r) = SlackFactor·r + MinSlack granted to enclosing
	// balls before lists are re-derived (driver leaves) or the structure
	// is refreshed (any node). Defaults 0.05 and 0.25 Å.
	SlackFactor float64
	MinSlack    float64
	// RadiusTolerance is the relative staleness budget of the Born radii
	// the energy phase evaluates with: atom radii are recomputed exactly
	// every frame, but the energy solver's copy is re-pushed only when
	// |r_exact - r_pushed| > RadiusTolerance·r_exact. The gate is what
	// localizes the energy phase's dirty set — the radius coupling is
	// dense at the last-ulp level — and its error against a zero-tolerance
	// session is a bounded offset of order RadiusTolerance, far below the
	// treecode approximation error. The push rule depends only on the
	// frame stream, never on resweep cadence, so it does not perturb the
	// oracle contract. 0 → default 1e-6; negative → exact (push every
	// changed bit).
	RadiusTolerance float64
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.ResweepEvery <= 0 {
		o.ResweepEvery = 64
	}
	if o.SlackFactor <= 0 {
		o.SlackFactor = 0.05
	}
	if o.MinSlack <= 0 {
		o.MinSlack = 0.25
	}
	switch {
	case o.RadiusTolerance == 0:
		o.RadiusTolerance = 1e-6
	case o.RadiusTolerance < 0:
		o.RadiusTolerance = 0
	}
	return o
}

// rederiveFraction is the share of a driver ball's slack margin its points
// may drift before the driver's segment is re-derived. It must be < 1: the
// epoch bubble refreshes the whole structure at the FULL margin, and both
// thresholds start from the same geometry, so an equal fraction would let
// the refresh path shadow re-derivation entirely. Classification inflation
// stays at the full margin, so re-deriving earlier never loosens a far
// decision — it only re-anchors the driver's budget sooner.
const rederiveFraction = 0.5

// AtomMove sets one atom (original order) to an absolute position.
type AtomMove struct {
	Index int
	Pos   geom.Vec3
}

// FrameDelta is one frame of a stream: the atoms that moved.
type FrameDelta struct {
	Moves []AtomMove
}

// FrameReport describes what one Step did.
type FrameReport struct {
	Frame      int
	Energy     float64 // E_pol after this frame, kcal/mol
	MovedAtoms int
	// DirtyBornRows counts T_A leaf rows whose Born near sums were
	// resummed; DirtyEpolDrivers the energy drivers resummed. Both are 0
	// when the frame took the resweep or refresh path.
	DirtyBornRows    int
	DirtyEpolDrivers int
	// PushedRadii counts Born radii re-pushed to the energy solver after
	// drifting past RadiusTolerance.
	PushedRadii int
	// Rederived counts driver segments re-derived after a slack breach.
	Rederived int
	// Resweep / Refreshed mark frames that took the periodic full resweep
	// or the structural-refresh path.
	Resweep   bool
	Refreshed bool
}

// NewSession samples the molecule's surface, builds both treecode solvers,
// derives every driver segment with slack margins, and evaluates the
// initial energy. The molecule is copied; the caller's value is never
// mutated.
func NewSession(mol *molecule.Molecule, o SessionOptions) (*Session, error) {
	o = o.withDefaults()
	eo := o.Eval.withDefaults(OctCilk)
	if err := eo.Validate(); err != nil {
		return nil, err
	}
	if mol.N() == 0 {
		return nil, fmt.Errorf("engine: session needs a non-empty molecule")
	}
	m := &molecule.Molecule{Name: mol.Name, Atoms: append([]molecule.Atom(nil), mol.Atoms...)}
	qpts, owners := surface.SampleOwned(m, o.Surf)
	if len(qpts) == 0 {
		return nil, fmt.Errorf("engine: session surface sampling produced no quadrature points")
	}

	ss := &Session{opts: o, eo: eo, mol: m}
	ss.charges = make([]float64, m.N())
	for i := range m.Atoms {
		ss.charges[i] = m.Atoms[i].Charge
	}
	ss.bs = core.NewBornSolver(m, qpts, eo.bornConfig())
	ta, tq := ss.bs.TA, ss.bs.TQ

	ss.aInv = ta.InvPerm()
	ss.aLeafOf = ta.PointLeaves()
	ss.qLeafOf = tq.PointLeaves()
	ss.qOwner = make([][]int32, m.N())
	ss.qOff = make([]geom.Vec3, len(qpts))
	owned := make([]int32, m.N())
	for _, ow := range owners {
		owned[ow]++
	}
	ownerBuf := make([]int32, len(qpts))
	for i := range ss.qOwner {
		ss.qOwner[i] = cut(&ownerBuf, int(owned[i]))[:0]
	}
	for j, orig := range tq.Perm {
		ow := owners[orig]
		ss.qOff[j] = qpts[orig].Pos.Sub(m.Atoms[ow].Pos)
		ss.qOwner[ow] = append(ss.qOwner[ow], int32(j))
	}
	ss.aDense = denseLeafIndex(len(ta.Nodes), ta.LeafIdx)
	ss.qDense = denseLeafIndex(len(tq.Nodes), tq.LeafIdx)

	nA := len(ta.Points)
	la, lq := len(ta.LeafIdx), len(tq.LeafIdx)
	ss.bornNear = make([][]int32, lq)
	ss.bornFar = make([][]int32, lq)
	ss.bornFarVal = make([][]float64, lq)
	ss.bornEntrySlot = make([][]int32, lq)
	ss.rowBlk = make([][]float64, len(ta.Nodes))
	ss.rowGrp = make([][]float64, len(ta.Nodes))
	ss.grpDirty = make([][]bool, len(ta.Nodes))
	ss.bornPartners = make([][]int32, len(ta.Nodes))
	ss.bornPartnerPos = make([][]int32, len(ta.Nodes))
	ss.sNodeFar = make([]float64, len(ta.Nodes))
	ss.farTotal = make([]float64, len(ta.Nodes))
	ss.sAtomNear = make([]float64, nA)
	ss.rTree = make([]float64, nA)
	ss.rPushed = make([]float64, nA)
	ss.epolNear = make([][]core.NodePair, la)
	ss.epolNearVal = make([][]float64, la)
	ss.epolFar = make([][]int32, la)
	ss.nearVal = make([]float64, la)
	ss.farVal = make([]float64, la)
	ss.epolPartners = make([][]int32, len(ta.Nodes))
	ss.epolPartnerPos = make([][]int32, len(ta.Nodes))
	ss.rowScratch = make([]float64, nA)

	ss.refPosA = append([]geom.Vec3(nil), ta.Points...)
	ss.epochPosA = append([]geom.Vec3(nil), ta.Points...)
	ss.refPosQ = append([]geom.Vec3(nil), tq.Points...)
	ss.epochPosQ = append([]geom.Vec3(nil), tq.Points...)
	ss.dispRefA = make([]float64, len(ta.Nodes))
	ss.dispEpochA = make([]float64, len(ta.Nodes))
	ss.dispRefQ = make([]float64, len(tq.Nodes))
	ss.dispEpochQ = make([]float64, len(tq.Nodes))
	ss.refBallRA = make([]float64, len(ta.Nodes))
	ss.refBallRQ = make([]float64, len(tq.Nodes))
	ss.nodeDispA = make([]float64, len(ta.Nodes))
	ss.nodeDispQ = make([]float64, len(tq.Nodes))
	ss.markA = make([]bool, len(ta.Nodes))
	ss.markQ = make([]bool, len(tq.Nodes))
	ss.markRow = make([]bool, len(ta.Nodes))
	ss.markSlot = make([]bool, len(ta.Nodes))
	ss.markFar = make([]bool, len(ta.Nodes))
	ss.markV = make([]bool, la)
	ss.markU = make([]bool, len(ta.Nodes))
	ss.dirtyEnt = make([][]int32, la)
	ss.fullV = make([]bool, la)
	// The per-frame id lists hold each leaf at most once, so their final
	// capacity is known now and no frame has to grow them.
	ss.movedA = make([]int32, 0, la)
	ss.movedQ = make([]int32, 0, lq)
	ss.dirtyRows = make([]int32, 0, la)
	ss.dirtyV = make([]int32, 0, la)
	ss.listU = make([]int32, 0, la)
	ss.slotDirty = make([]int32, 0, la)

	ss.rebuildStructure()
	return ss, nil
}

// denseLeafIndex inverts LeafIdx: node id -> dense leaf index, -1 elsewhere.
func denseLeafIndex(nodes int, leafIdx []int32) []int32 {
	out := make([]int32, nodes)
	for i := range out {
		out[i] = -1
	}
	for dense, node := range leafIdx {
		out[node] = int32(dense)
	}
	return out
}

// Energy returns E_pol after the most recent frame (kcal/mol).
func (ss *Session) Energy() float64 { return ss.energy }

// Frame returns the number of frames stepped so far.
func (ss *Session) Frame() int { return ss.frame }

// NumAtoms returns the atom count.
func (ss *Session) NumAtoms() int { return len(ss.mol.Atoms) }

// NumQPoints returns the surface quadrature point count.
func (ss *Session) NumQPoints() int { return len(ss.qOff) }

// Step advances the stream by one frame: apply the delta, re-derive what
// the slack margins invalidated, recompute exactly the dirty values, and
// return the new energy. On an out-of-range move index the session is left
// unchanged.
func (ss *Session) Step(d FrameDelta) (FrameReport, error) {
	n := len(ss.mol.Atoms)
	for _, mv := range d.Moves {
		if mv.Index < 0 || mv.Index >= n {
			return FrameReport{}, fmt.Errorf("engine: frame move references atom %d, have %d atoms", mv.Index, n)
		}
	}
	ss.clearFrameMarks()
	ss.frame++
	rep := FrameReport{Frame: ss.frame, MovedAtoms: len(d.Moves)}

	// Apply moves: patch every position mirror of both solvers, transport
	// owned q-points rigidly, and mark the moved leaves of both trees.
	for _, mv := range d.Moves {
		ti := ss.aInv[mv.Index]
		ss.mol.Atoms[mv.Index].Pos = mv.Pos
		ss.bs.SetAtomPoint(ti, mv.Pos)
		ss.es.SetPointMirrors(ti, mv.Pos)
		if l := ss.aLeafOf[ti]; !ss.markA[l] {
			ss.markA[l] = true
			ss.movedA = append(ss.movedA, l)
		}
		for _, qi := range ss.qOwner[mv.Index] {
			ss.bs.SetQPoint(qi, mv.Pos.Add(ss.qOff[qi]))
			if l := ss.qLeafOf[qi]; !ss.markQ[l] {
				ss.markQ[l] = true
				ss.movedQ = append(ss.movedQ, l)
			}
		}
	}
	slices.Sort(ss.movedA)
	slices.Sort(ss.movedQ)

	// Refresh per-leaf displacement maxima for the moved leaves, then
	// bubble epoch displacements up both trees; any node beyond its slack
	// margin forces a structural refresh.
	for _, l := range ss.movedA {
		ss.dispRefA[l], ss.dispEpochA[l] = leafDisp(ss.bs.TA, l, ss.refPosA, ss.epochPosA)
	}
	for _, l := range ss.movedQ {
		ss.dispRefQ[l], ss.dispEpochQ[l] = leafDisp(ss.bs.TQ, l, ss.refPosQ, ss.epochPosQ)
	}
	if len(ss.movedA)+len(ss.movedQ) > 0 && ss.epochBreach() {
		ss.refresh()
		rep.Refreshed = true
		rep.Energy = ss.energy
		return rep, nil
	}

	// Re-derive the driver segments whose points drifted past their slack
	// budget. Only moved leaves can newly breach.
	bornStruct, epolStruct := false, false
	for _, l := range ss.movedQ {
		if ss.dispRefQ[l] > rederiveFraction*core.SlackMargin(ss.refBallRQ[l], ss.opts.SlackFactor, ss.opts.MinSlack) {
			ss.rederiveBorn(l)
			bornStruct = true
			rep.Rederived++
		}
	}
	for _, l := range ss.movedA {
		if ss.dispRefA[l] > rederiveFraction*core.SlackMargin(ss.refBallRA[l], ss.opts.SlackFactor, ss.opts.MinSlack) {
			ss.rederiveEpol(l)
			epolStruct = true
			rep.Rederived++
		}
	}
	if bornStruct {
		ss.sumFarNodes(false)
		// Rows whose partner membership changed have shifted block slots:
		// resize their stores now (the resweep path writes through slots
		// too); their block values are rebuilt in the incremental pass.
		for _, a := range ss.slotDirty {
			ss.sizeRowStores(a)
		}
	}
	if epolStruct {
		ss.rebuildEpolPartners()
	}

	// Periodic full resweep: recompute EVERY cached value from current
	// positions in canonical order. Bitwise a no-op when dirty tracking is
	// sound — the property tests pin exactly that.
	if ss.frame%ss.opts.ResweepEvery == 0 {
		ss.resweep()
		rep.Resweep = true
		rep.Energy = ss.energy
		return rep, nil
	}

	// Born near blocks: a cached block is a pure function of its driver's
	// q-points and its row's atom positions, so re-evaluate every block of
	// a moved (or re-derived) driver, driver-major, and every block of a
	// moved row, row-major; then re-add the groups those writes dirtied
	// and rebuild the dirty rows from their group sums.
	for _, l := range ss.movedQ {
		ql := int(ss.qDense[l])
		ss.recomputeDriverBlocks(ql)
		for _, a := range ss.bornNear[ql] {
			ss.markDirtyRow(a)
		}
	}
	for _, l := range ss.movedA {
		ss.recomputeRowBlocks(l)
	}
	// Slot-shifted rows rebuild ALL their blocks: values of unmoved
	// partners are unchanged but live at new offsets, and re-evaluating
	// them reproduces them bitwise.
	for _, a := range ss.slotDirty {
		ss.recomputeRowBlocks(a)
	}
	slices.Sort(ss.dirtyRows)
	for _, a := range ss.dirtyRows {
		ss.resumBornRow(a)
	}
	rep.DirtyBornRows = len(ss.dirtyRows)

	// Born radii: rTree is always recomputed exactly (O(atoms), pure
	// function of the cached sums); the energy solver's copy is re-pushed
	// only past RadiusTolerance. The energy dirty set is then exactly the
	// leaves whose pushed inputs changed: moved leaves plus leaves holding
	// a re-pushed radius.
	for _, l := range ss.movedA {
		ss.markULeaf(l)
	}
	rep.PushedRadii = ss.pushRadii(true)

	// Energy near entries: a changed u-leaf dirties its entry in every
	// partnered driver; a driver whose own leaf changed dirties its whole
	// segment (its atoms sit on the v side of every entry). Dirty entries
	// are then re-evaluated grouped per driver — one v-tile pack per
	// driver in the vector path — and dirty drivers resum their cached
	// entries in traversal order.
	slices.Sort(ss.listU)
	for _, u := range ss.listU {
		if vl := ss.aDense[u]; vl >= 0 {
			ss.fullV[vl] = true
			ss.markDirtyV(vl)
		}
		pp, pk := ss.epolPartners[u], ss.epolPartnerPos[u]
		for idx := range pp {
			vl := pp[idx]
			if !ss.fullV[vl] {
				ss.dirtyEnt[vl] = append(ss.dirtyEnt[vl], pk[idx])
			}
			ss.markDirtyV(vl)
		}
	}
	slices.Sort(ss.dirtyV)
	for _, vl := range ss.dirtyV {
		if ss.fullV[vl] {
			ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		} else {
			ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], ss.dirtyEnt[vl], ss.epolNearVal[vl])
		}
		ss.fullV[vl] = false
		ss.dirtyEnt[vl] = ss.dirtyEnt[vl][:0]
		ss.resumEpolNear(int(vl))
	}
	rep.DirtyEpolDrivers = len(ss.dirtyV)

	ss.energy = ss.sumEnergy()
	rep.Energy = ss.energy
	return rep, nil
}

// clearFrameMarks resets the previous frame's scratch marks via their id
// lists (O(previously dirty), not O(nodes)).
func (ss *Session) clearFrameMarks() {
	for _, l := range ss.movedA {
		ss.markA[l] = false
	}
	for _, l := range ss.movedQ {
		ss.markQ[l] = false
	}
	for _, l := range ss.dirtyRows {
		ss.markRow[l] = false
	}
	for _, vl := range ss.dirtyV {
		ss.markV[vl] = false
	}
	for _, l := range ss.listU {
		ss.markU[l] = false
	}
	for _, l := range ss.slotDirty {
		ss.markSlot[l] = false
	}
	ss.movedA, ss.movedQ = ss.movedA[:0], ss.movedQ[:0]
	ss.dirtyRows, ss.dirtyV = ss.dirtyRows[:0], ss.dirtyV[:0]
	ss.listU = ss.listU[:0]
	ss.slotDirty = ss.slotDirty[:0]
}

func (ss *Session) markDirtyRow(aLeaf int32) {
	if !ss.markRow[aLeaf] {
		ss.markRow[aLeaf] = true
		ss.dirtyRows = append(ss.dirtyRows, aLeaf)
	}
}

func (ss *Session) markDirtyV(vl int32) {
	if !ss.markV[vl] {
		ss.markV[vl] = true
		ss.dirtyV = append(ss.dirtyV, vl)
	}
}

func (ss *Session) markULeaf(l int32) {
	if !ss.markU[l] {
		ss.markU[l] = true
		ss.listU = append(ss.listU, l)
	}
}

// pushRadii recomputes every Born radius exactly from the cached sums and
// re-pushes to the energy solver the ones that drifted past
// RadiusTolerance relative to their pushed value, returning the push
// count. With markLeaves set, the owning leaf of every push is added to
// the frame's changed-input set; the resweep path recomputes every energy
// entry anyway and skips the marking. The push RULE is identical on both
// paths — pushes depend only on the frame stream, which is what keeps
// oracle and incremental sessions bitwise aligned.
func (ss *Session) pushRadii(markLeaves bool) int {
	rtol := ss.opts.RadiusTolerance
	pushed := 0
	for i := range ss.rTree {
		r := ss.bs.BornRadiusFromSums(int32(i), ss.sAtomNear[i]+ss.farTotal[ss.aLeafOf[i]])
		ss.rTree[i] = r
		d := r - ss.rPushed[i]
		if d < 0 {
			d = -d
		}
		if d > rtol*r {
			ss.rPushed[i] = r
			ss.es.SetRadius(int32(i), r)
			pushed++
			if markLeaves {
				ss.markULeaf(ss.aLeafOf[i])
			}
		}
	}
	return pushed
}

// epochBreach bubbles per-leaf epoch displacements bottom-up (children
// precede parents in reverse index order) and reports whether any node's
// displacement exceeds its frozen ball's slack margin.
func (ss *Session) epochBreach() bool {
	return bubbleBreach(ss.bs.TA, ss.dispEpochA, ss.nodeDispA, ss.opts.SlackFactor, ss.opts.MinSlack) ||
		bubbleBreach(ss.bs.TQ, ss.dispEpochQ, ss.nodeDispQ, ss.opts.SlackFactor, ss.opts.MinSlack)
}

// rederiveBorn rebuilds one Born driver segment against the refit ball of
// the driver's current points, recomputes its cached far values, repairs
// the reverse index of the rows that entered or left its near list, marks
// the T_A nodes of its old and new far list for a far re-sum, and resets
// the driver's slack budget. The driver's blocks are left stale: only a
// moved driver can breach, and the frame re-evaluates a moved driver's
// blocks regardless.
func (ss *Session) rederiveBorn(qLeaf int32) {
	ql := ss.qDense[qLeaf]
	ss.oldNear = append(ss.oldNear[:0], ss.bornNear[ql]...)
	ss.oldSlot = append(ss.oldSlot[:0], ss.bornEntrySlot[ql]...)
	for _, a := range ss.bornFar[ql] {
		ss.markFarDirty(a)
	}
	c, r := currentBall(ss.bs.TQ, qLeaf)
	ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r, ss.opts.SlackFactor, ss.opts.MinSlack)
	ss.bornNear[ql] = appendANodes(ss.bornNear[ql][:0], ss.scratch.Near)
	ss.bornFar[ql] = appendANodes(ss.bornFar[ql][:0], ss.scratch.Far)
	ss.bornFarVal[ql] = resize(ss.bornFarVal[ql], len(ss.bornFar[ql]))
	ss.fillBornFarVals(int(ql))
	for _, a := range ss.bornFar[ql] {
		ss.markFarDirty(a)
	}

	// Both near lists come out of the traversal in ascending node order, so
	// one merge finds the rows that left (the driver comes out of the row's
	// partner list), the rows that entered (it goes in, at its place in the
	// ascending order), and the rows that stayed (same slot; only the
	// entry's index within the driver's list may have moved). A row that
	// left or entered has shifted slots from the change on.
	old, nw := ss.oldNear, ss.bornNear[ql]
	slots := resize(ss.bornEntrySlot[ql], len(nw))
	ss.bornEntrySlot[ql] = slots
	i, j := 0, 0
	for i < len(old) || j < len(nw) {
		switch {
		case j == len(nw) || (i < len(old) && old[i] < nw[j]):
			a, at := old[i], int(ss.oldSlot[i])
			ss.bornPartners[a] = slices.Delete(ss.bornPartners[a], at, at+1)
			ss.bornPartnerPos[a] = slices.Delete(ss.bornPartnerPos[a], at, at+1)
			ss.reslotRow(a, at)
			i++
		case i == len(old) || nw[j] < old[i]:
			a := nw[j]
			at, _ := slices.BinarySearch(ss.bornPartners[a], ql)
			ss.bornPartners[a] = slices.Insert(ss.bornPartners[a], at, ql)
			ss.bornPartnerPos[a] = slices.Insert(ss.bornPartnerPos[a], at, int32(j))
			ss.reslotRow(a, at)
			j++
		default:
			slots[j] = ss.oldSlot[i]
			ss.bornPartnerPos[nw[j]][slots[j]] = int32(j)
			i++
			j++
		}
	}
	ss.resetRefQ(qLeaf, r)
}

// reslotRow rewrites, after a partner was inserted at or deleted from slot
// `from` of row aLeaf, the slot every later partner's entry records, and
// marks the row slot-shifted.
func (ss *Session) reslotRow(aLeaf int32, from int) {
	pp, pk := ss.bornPartners[aLeaf], ss.bornPartnerPos[aLeaf]
	for at := from; at < len(pp); at++ {
		ss.bornEntrySlot[pp[at]][pk[at]] = int32(at)
	}
	if !ss.markSlot[aLeaf] {
		ss.markSlot[aLeaf] = true
		ss.slotDirty = append(ss.slotDirty, aLeaf)
	}
}

func (ss *Session) markFarDirty(aNode int32) {
	if !ss.markFar[aNode] {
		ss.markFar[aNode] = true
		ss.farDirty = append(ss.farDirty, aNode)
	}
}

// fillBornFarVals recomputes one driver's cached far-entry values.
func (ss *Session) fillBornFarVals(ql int) {
	qLeaf := ss.bs.TQ.LeafIdx[ql]
	vals := ss.bornFarVal[ql]
	for k, a := range ss.bornFar[ql] {
		vals[k] = ss.bs.BornFarTerm(a, qLeaf)
	}
}

// rowStoreSizes returns the lengths of one row's block store, group sums
// and group marks at its current partner count.
func (ss *Session) rowStoreSizes(aLeaf int32) (blocks, groups, marks int) {
	cnt := int(ss.bs.TA.Nodes[aLeaf].Count)
	p := len(ss.bornPartners[aLeaf])
	g := (p + bornGroup - 1) / bornGroup
	return p * cnt, g * cnt, g
}

// sizeRowStores resizes one row's stores after its partner count changed;
// the values are rebuilt by whoever changed the layout.
func (ss *Session) sizeRowStores(aLeaf int32) {
	nBlk, nGrp, nMark := ss.rowStoreSizes(aLeaf)
	ss.rowBlk[aLeaf] = resize(ss.rowBlk[aLeaf], nBlk)
	ss.rowGrp[aLeaf] = resize(ss.rowGrp[aLeaf], nGrp)
	ss.grpDirty[aLeaf] = resize(ss.grpDirty[aLeaf], nMark)
}

// rederiveEpol is rederiveBorn's energy-phase counterpart: the driver's
// near and far lists are rebuilt, its far sum recomputed from the frozen
// epoch aggregates, and its entry-value cache resized. The entry VALUES
// are left stale: an energy driver is only re-derived when its own atoms
// moved, which puts its leaf in the frame's changed-input set and forces a
// full segment re-evaluation later in the frame regardless.
func (ss *Session) rederiveEpol(aLeaf int32) {
	vl := int(ss.aDense[aLeaf])
	c, r := currentBall(ss.bs.TA, aLeaf)
	ss.es.BuildEpolDriverSlack(&ss.scratch, aLeaf, c, r, ss.opts.SlackFactor, ss.opts.MinSlack)
	ss.epolNear[vl] = append(ss.epolNear[vl][:0], ss.scratch.Near...)
	ss.epolFar[vl] = appendANodes(ss.epolFar[vl][:0], ss.scratch.Far)
	ss.epolNearVal[vl] = resize(ss.epolNearVal[vl], len(ss.epolNear[vl]))
	ss.recomputeEpolFar(vl)
	ss.markDirtyV(int32(vl))
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	copy(ss.refPosA[lo:hi], ss.bs.TA.Points[lo:hi])
	ss.dispRefA[aLeaf] = 0
	ss.refBallRA[aLeaf] = r
}

func (ss *Session) resetRefQ(qLeaf int32, ballR float64) {
	lo, hi := ss.bs.TQ.PointRange(qLeaf)
	copy(ss.refPosQ[lo:hi], ss.bs.TQ.Points[lo:hi])
	ss.dispRefQ[qLeaf] = 0
	ss.refBallRQ[qLeaf] = ballR
}

// rebuildBornPartners derives the reverse index (T_A leaf -> drivers whose
// near lists contain it, plus the entry position within each), in
// ascending driver order, and every entry's slot in its row — counted
// first, so each list is filled in place in an exactly sized view.
func (ss *Session) rebuildBornPartners() {
	ta, ar := ss.bs.TA, &ss.arenas
	count := make([]int32, len(ta.Nodes))
	total := 0
	for _, near := range ss.bornNear {
		for _, a := range near {
			count[a]++
		}
		total += len(near)
	}
	ar.slots = resize(ar.slots, total)
	ar.partners = resize(ar.partners, total)
	ar.partnerPos = resize(ar.partnerPos, total)
	slots, partners, partnerPos := ar.slots, ar.partners, ar.partnerPos
	for _, a := range ta.LeafIdx {
		ss.bornPartners[a] = cut(&partners, int(count[a]))[:0]
		ss.bornPartnerPos[a] = cut(&partnerPos, int(count[a]))[:0]
	}
	for ql, near := range ss.bornNear {
		ss.bornEntrySlot[ql] = cut(&slots, len(near))
		for k, a := range near {
			// Drivers are visited ascending, so the append position IS the
			// entry's slot in the row's partner-ordered block store.
			ss.bornEntrySlot[ql][k] = int32(len(ss.bornPartners[a]))
			ss.bornPartners[a] = append(ss.bornPartners[a], int32(ql))
			ss.bornPartnerPos[a] = append(ss.bornPartnerPos[a], int32(k))
		}
	}
}

// rebuildRowStores cuts every row's block store, group sums and group
// marks to its partner count out of three counted arenas. The values are
// rebuilt by the caller.
func (ss *Session) rebuildRowStores() {
	ta, ar := ss.bs.TA, &ss.arenas
	var nBlk, nGrp, nMark int
	for _, a := range ta.LeafIdx {
		b, g, m := ss.rowStoreSizes(a)
		nBlk, nGrp, nMark = nBlk+b, nGrp+g, nMark+m
	}
	ar.blocks = resize(ar.blocks, nBlk)
	ar.groups = resize(ar.groups, nGrp)
	ar.marks = resize(ar.marks, nMark)
	blocks, groups, marks := ar.blocks, ar.groups, ar.marks
	for _, a := range ta.LeafIdx {
		b, g, m := ss.rowStoreSizes(a)
		ss.rowBlk[a] = cut(&blocks, b)
		ss.rowGrp[a] = cut(&groups, g)
		ss.grpDirty[a] = cut(&marks, m)
	}
}

// rebuildEpolPartners derives the energy phase's reverse index (u-leaf ->
// drivers whose near lists contain it, ascending) and sizes each driver's
// dirty-entry list to its near list — a frame names each entry at most
// once — all counted first and cut from exact arenas.
func (ss *Session) rebuildEpolPartners() {
	ta, ar := ss.bs.TA, &ss.arenas
	count := make([]int32, len(ta.Nodes))
	total := 0
	for _, near := range ss.epolNear {
		for _, p := range near {
			count[p.A]++
		}
		total += len(near)
	}
	ar.epolPartners = resize(ar.epolPartners, total)
	ar.epolPartnerPos = resize(ar.epolPartnerPos, total)
	ar.ent = resize(ar.ent, total)
	partners, partnerPos, ent := ar.epolPartners, ar.epolPartnerPos, ar.ent
	for _, u := range ta.LeafIdx {
		ss.epolPartners[u] = cut(&partners, int(count[u]))[:0]
		ss.epolPartnerPos[u] = cut(&partnerPos, int(count[u]))[:0]
	}
	for vl, near := range ss.epolNear {
		ss.dirtyEnt[vl] = cut(&ent, len(near))[:0]
		for k, p := range near {
			ss.epolPartners[p.A] = append(ss.epolPartners[p.A], int32(vl))
			ss.epolPartnerPos[p.A] = append(ss.epolPartnerPos[p.A], int32(k))
		}
	}
}

// sumFarNodes rebuilds the canonical per-node far sums from the cached
// far-entry values (drivers ascending, entries in traversal order) and
// pushes them down the atoms tree: every node's with all set, otherwise
// those of the nodes re-derivations marked (markFarDirty) — each in the
// same order, so a partial rebuild leaves the bits a full one would.
func (ss *Session) sumFarNodes(all bool) {
	if all {
		zero(ss.sNodeFar)
	}
	for _, a := range ss.farDirty {
		ss.sNodeFar[a] = 0
	}
	for ql, far := range ss.bornFar {
		vals := ss.bornFarVal[ql]
		for k, a := range far {
			if all || ss.markFar[a] {
				ss.sNodeFar[a] += vals[k]
			}
		}
	}
	for _, a := range ss.farDirty {
		ss.markFar[a] = false
	}
	ss.farDirty = ss.farDirty[:0]
	ss.bs.FarTotals(ss.sNodeFar, ss.farTotal)
}

// sumSlots writes to dst the left-to-right sum of src's consecutive
// len(dst)-wide slots. Both levels of a Born row's canonical sum — blocks
// into a group, groups into the row — are this one loop. Columns are summed
// four at a time in registers: a column's additions happen in slot order
// whichever way the loop nest is turned, and this way no partial sum makes
// the round trip through dst.
func sumSlots(dst, src []float64) {
	w := len(dst)
	src = src[:len(src)/w*w]
	j := 0
	for ; j+4 <= w; j += 4 {
		var s0, s1, s2, s3 float64
		for at := j; at < len(src); at += w {
			v := src[at : at+4 : at+4]
			s0 += v[0]
			s1 += v[1]
			s2 += v[2]
			s3 += v[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < w; j++ {
		var sum float64
		for at := j; at < len(src); at += w {
			sum += src[at]
		}
		dst[j] = sum
	}
}

// resumBornRow rebuilds one T_A leaf's near-field row in the canonical
// two-level order: the dirty groups are re-added from the row's block
// store, then the row from its group sums.
func (ss *Session) resumBornRow(aLeaf int32) {
	lo, hi := ss.bs.TA.PointRange(aLeaf)
	cnt := int(hi - lo)
	blk, grp := ss.rowBlk[aLeaf], ss.rowGrp[aLeaf]
	for g, dirty := range ss.grpDirty[aLeaf] {
		if dirty {
			ss.grpDirty[aLeaf][g] = false
			end := min((g+1)*bornGroup*cnt, len(blk))
			sumSlots(grp[g*cnt:(g+1)*cnt], blk[g*bornGroup*cnt:end])
		}
	}
	sumSlots(ss.sAtomNear[lo:hi], grp)
}

// recomputeDriverBlocks re-evaluates every cached block of one Born
// driver in a single range call — a driver's entries share its q-tile, and
// each entry writes a disjoint row range of the scratch, so the batched
// call produces every block bitwise as a single-entry call would — and
// marks the group of every block it rewrote.
func (ss *Session) recomputeDriverBlocks(ql int) {
	qNode := ss.bs.TQ.LeafIdx[ql]
	pairs := ss.rowPairs.Near[:0]
	for _, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		clear(ss.rowScratch[lo:hi])
		pairs = append(pairs, core.NodePair{A: a, B: qNode})
	}
	ss.rowPairs.Near = pairs
	ss.bs.EvalBornNearRange(&ss.rowPairs, 0, len(pairs), ss.rowScratch)
	slots := ss.bornEntrySlot[ql]
	for k, a := range ss.bornNear[ql] {
		lo, hi := ss.bs.TA.PointRange(a)
		cnt := int(hi - lo)
		at := int(slots[k])
		copy(ss.rowBlk[a][at*cnt:(at+1)*cnt], ss.rowScratch[lo:hi])
		ss.grpDirty[a][at/bornGroup] = true
	}
}

// recomputeRowBlocks re-evaluates every cached block of one T_A leaf, row-
// major: its partners' blocks are contiguous in ascending driver order, so
// the row-batched evaluator writes the block store in place. The whole row
// is then dirty.
func (ss *Session) recomputeRowBlocks(aLeaf int32) {
	ss.bs.EvalBornRowBlocks(aLeaf, ss.bornPartners[aLeaf], ss.rowBlk[aLeaf])
	for g := range ss.grpDirty[aLeaf] {
		ss.grpDirty[aLeaf][g] = true
	}
	ss.markDirtyRow(aLeaf)
}

// resumEpolNear rebuilds one driver's near sum from its cached entry
// values in traversal order.
func (ss *Session) resumEpolNear(vl int) {
	var sum float64
	for _, v := range ss.epolNearVal[vl] {
		sum += v
	}
	ss.nearVal[vl] = sum
}

// recomputeEpolFar resums one energy driver's far sum; all inputs (node
// centers, charge bins) are epoch-frozen, so between re-derivations the
// cached value never changes.
func (ss *Session) recomputeEpolFar(vl int) {
	vNode := ss.bs.TA.LeafIdx[vl]
	var sum float64
	for _, u := range ss.epolFar[vl] {
		sum += ss.es.EvalEpolFarPair(u, vNode)
	}
	ss.farVal[vl] = sum
}

func (ss *Session) sumEnergy() float64 {
	var raw float64
	for vl := range ss.nearVal {
		raw += ss.nearVal[vl] + ss.farVal[vl]
	}
	return raw * core.EnergyScale()
}

// resweep recomputes every cached value — far entries, far sums, every
// near block and entry, every radius, every sum — from current state in
// canonical order, without touching the structure. The radius push stays
// tolerance gated (the rule must not depend on resweep cadence), so a
// resweep re-verifies the caches against the session's own semantics.
func (ss *Session) resweep() {
	for ql := range ss.bornFar {
		ss.fillBornFarVals(ql)
	}
	ss.sumFarNodes(true)
	for ql := range ss.bornNear {
		ss.recomputeDriverBlocks(ql)
	}
	for _, a := range ss.bs.TA.LeafIdx {
		ss.resumBornRow(a)
	}
	ss.pushRadii(false)
	for vl := range ss.nearVal {
		ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		ss.resumEpolNear(vl)
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()
}

// refresh is the structural-refresh path: refit both trees' node geometry
// to the current points, then rebuild every segment, aggregate and value —
// including a fresh energy solver whose charge bins re-bin against the
// current Born radii — and reset every slack budget.
func (ss *Session) refresh() {
	ss.bs.RefreshGeometry()
	ss.rebuildStructure()
}

// rebuildStructure derives all driver segments, sums and values from the
// current (frozen-as-of-now) node geometry. Used at creation and after
// every refresh.
func (ss *Session) rebuildStructure() {
	sf, ms := ss.opts.SlackFactor, ss.opts.MinSlack
	ta, tq := ss.bs.TA, ss.bs.TQ
	ar := &ss.arenas
	ar.near.reset(slabShare * len(tq.LeafIdx))
	ar.far.reset(slabShare * len(tq.LeafIdx))
	ar.farVal.reset(slabShare * len(tq.LeafIdx))
	ar.epolNear.reset(slabShare * len(ta.LeafIdx))
	ar.epolFar.reset(slabShare * len(ta.LeafIdx))

	maxNear := 0
	for ql, qLeaf := range tq.LeafIdx {
		c, r := currentBall(tq, qLeaf)
		ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r, sf, ms)
		ss.bornNear[ql] = appendANodes(ar.near.take(len(ss.scratch.Near))[:0], ss.scratch.Near)
		ss.bornFar[ql] = appendANodes(ar.far.take(len(ss.scratch.Far))[:0], ss.scratch.Far)
		ss.bornFarVal[ql] = ar.farVal.take(len(ss.scratch.Far))
		ss.fillBornFarVals(ql)
		ss.refBallRQ[qLeaf] = r
		maxNear = max(maxNear, len(ss.scratch.Near))
	}
	if cap(ss.rowPairs.Near) < maxNear {
		ss.rowPairs.Near = make([]core.NodePair, 0, maxNear)
	}
	ss.rebuildBornPartners()
	ss.rebuildRowStores()
	ss.sumFarNodes(true)
	for ql := range ss.bornNear {
		ss.recomputeDriverBlocks(ql)
	}
	for _, a := range ta.LeafIdx {
		ss.resumBornRow(a)
	}
	for i := range ss.rTree {
		ss.rTree[i] = ss.bs.BornRadiusFromSums(int32(i), ss.sAtomNear[i]+ss.farTotal[ss.aLeafOf[i]])
	}
	copy(ss.rPushed, ss.rTree)

	// Fresh energy solver: re-bins charges against the current (exact)
	// radii and rebuilds every mirror from the current positions.
	ss.es = core.NewEpolSolver(ta, ss.charges, ss.bs.RadiiToOriginal(ss.rTree), ss.eo.epolConfig())
	nVals := 0
	for vl, aLeaf := range ta.LeafIdx {
		c, r := currentBall(ta, aLeaf)
		ss.es.BuildEpolDriverSlack(&ss.scratch, aLeaf, c, r, sf, ms)
		ss.epolNear[vl] = append(ar.epolNear.take(len(ss.scratch.Near))[:0], ss.scratch.Near...)
		ss.epolFar[vl] = appendANodes(ar.epolFar.take(len(ss.scratch.Far))[:0], ss.scratch.Far)
		ss.refBallRA[aLeaf] = r
		nVals += len(ss.scratch.Near)
	}
	ar.epolVals = resize(ar.epolVals, nVals)
	vals := ar.epolVals
	for vl := range ss.epolNear {
		ss.epolNearVal[vl] = cut(&vals, len(ss.epolNear[vl]))
	}
	ss.rebuildEpolPartners()
	for vl := range ss.nearVal {
		ss.es.EvalEpolNearEntryValues(ss.epolNear[vl], nil, ss.epolNearVal[vl])
		ss.resumEpolNear(vl)
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()

	// Reset every slack budget: reference and epoch positions snap to the
	// current points, displacements to zero.
	copy(ss.refPosA, ta.Points)
	copy(ss.epochPosA, ta.Points)
	copy(ss.refPosQ, tq.Points)
	copy(ss.epochPosQ, tq.Points)
	zero(ss.dispRefA)
	zero(ss.dispEpochA)
	zero(ss.dispRefQ)
	zero(ss.dispEpochQ)
}

// --- small helpers -------------------------------------------------------

// currentBall computes the enclosing ball (centroid + max distance) of a
// node's CURRENT points with the same arithmetic octree.RefitAll uses, so
// at creation and right after a refresh it reproduces the frozen node
// geometry bitwise.
func currentBall(t *octree.Tree, node int32) (geom.Vec3, float64) {
	nd := &t.Nodes[node]
	var c geom.Vec3
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		c = c.Add(t.Points[i])
	}
	if nd.Count > 0 {
		c = c.Scale(1 / float64(nd.Count))
	}
	var r2 float64
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		if d := t.Points[i].Dist2(c); d > r2 {
			r2 = d
		}
	}
	return c, math.Sqrt(r2)
}

// leafDisp scans one leaf's point range and returns the maximum
// displacement against the reference and epoch snapshots.
func leafDisp(t *octree.Tree, leaf int32, ref, epoch []geom.Vec3) (dRef, dEpoch float64) {
	nd := &t.Nodes[leaf]
	var r2, e2 float64
	for i := nd.Start; i < nd.Start+nd.Count; i++ {
		p := t.Points[i]
		if d := p.Dist2(ref[i]); d > r2 {
			r2 = d
		}
		if d := p.Dist2(epoch[i]); d > e2 {
			e2 = d
		}
	}
	return math.Sqrt(r2), math.Sqrt(e2)
}

// bubbleBreach propagates per-leaf epoch displacements bottom-up (the
// linearized layout puts children after parents, so a reverse sweep sees
// children first) and reports whether any node's maximum point
// displacement exceeds the slack margin of its frozen ball.
func bubbleBreach(t *octree.Tree, leafDisp, nodeDisp []float64, sf, ms float64) bool {
	breach := false
	for n := len(t.Nodes) - 1; n >= 0; n-- {
		nd := &t.Nodes[n]
		d := 0.0
		if nd.Leaf {
			d = leafDisp[n]
		} else {
			for _, ch := range nd.Children {
				if ch != octree.NoChild && nodeDisp[ch] > d {
					d = nodeDisp[ch]
				}
			}
		}
		nodeDisp[n] = d
		if d > core.SlackMargin(nd.Radius, sf, ms) {
			breach = true
		}
	}
	return breach
}

func appendANodes(dst []int32, pairs []core.NodePair) []int32 {
	for _, p := range pairs {
		dst = append(dst, p.A)
	}
	return dst
}

// resize returns s with length n, reallocating only when its capacity
// falls short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
