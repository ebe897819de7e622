package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

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
//     geometry and aggregates (ñ_Q is position independent, the T_Q first
//     moments are rebuilt with the geometry, the energy phase's charge
//     bins are frozen per epoch), so a far sum changes only when its
//     segment is re-derived. A Born far sum is linear about its node's
//     center and is read at each atom's current position. The Born phase
//     does not store its terms: it recomputes each where it adds it
//     (sumFarNodes), the same bits in the same order. The energy phase
//     keeps one sum per driver.
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
//     partners); a moved atom re-evaluates only its own elements of its
//     row's blocks. The energy phase sums a driver's entry values, each
//     times its weight, in traversal order and the drivers ascending: a
//     block whose two leaves each hold the other in their near lists is
//     evaluated only by its owner (core.OwnsMutualBlock), which counts it
//     twice (entryWeight). Every path —
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
// One deliberate, bounded staleness gate sits between the two phases:
// exact Born radii (rTree) are maintained every frame, but the energy
// solver's copy is re-pushed only when a radius drifts more than
// defaultRadiusTolerance relative to its pushed value. Without the gate
// the radius coupling is dense — at 1% atom motion essentially every radius
// moves by a few ulps to 1e-6 relative, dirtying every energy driver and
// pinning the frame cost at a full energy near-field sweep. The push rule
// is a deterministic function of the frame stream alone (resweeps
// recompute values but do not force pushes), so oracle and incremental
// sessions hold bitwise-identical pushed radii and the bitwise oracle
// contract is untouched; the cost is an energy offset against a
// zero-tolerance session that stays within 1e-5 relative and does not
// grow with the frame count (TestSessionRadiusToleranceDrift).
//
// Surface quadrature points are transported rigidly with their owning atom
// (surface.SampleOwned); burial culling is decided at session creation and
// not revisited, which is the standard fixed-topology approximation for
// small-amplitude streams. A Session is not safe for concurrent use; Close
// hands its storage to the next NewSession.
type Session struct {
	opts SessionOptions
	eo   Options // evaluation options, defaults resolved

	bs *core.BornSolver
	es *core.EpolSolver

	frame     int
	energy    float64
	epolPairs int64 // EpolNearPairs of the frame in progress
	closed    bool

	sessionStores
}

// sessionStores is everything a Session owns apart from its two solvers:
// the molecule copy, the per-atom, per-node and per-driver stores, the
// arenas their views are cut from and the per-frame scratch. Close hands it
// to core.Free and NewSession takes it back from there, so a stream of
// sessions reuses one session's storage; sizeStores and rebuildStructure
// size every store to the session at hand with core.Resize.
type sessionStores struct {
	mol     molecule.Molecule // session-owned copy, current positions
	charges []float64

	// Frozen-topology maps.
	aInv    []int32     // original atom index -> T_A tree index
	aLeafOf []int32     // T_A tree index -> owning leaf node
	qLeafOf []int32     // T_Q tree index -> owning leaf node
	qOwner  [][]int32   // original atom index -> owned q-point tree indices
	qOff    []geom.Vec3 // q-point tree index -> rigid offset from owner atom
	aDense  []int32     // T_A node id -> dense leaf index (-1 for non-leaf)
	qDense  []int32     // T_Q node id -> dense leaf index

	// Born phase per-driver segments (indexed by dense T_Q leaf index).
	bornNear      [][]int32 // near entries: T_A leaf node ids, ascending
	bornFar       [][]int32 // far entries: T_A node ids, traversal order
	bornPartners  [][]int32 // T_A leaf node id -> dense driver indices, ascending
	bornEntrySlot [][]int32 // per driver: entry k's slot in its row's partner list

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

	sNodeFar  []float64 // 4 per T_A node: canonical far sums and gradients
	farTotal  []float64 // 4 per T_A node: pushed-down ancestor totals
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
	epolW          [][]uint8         // what each near entry counts for (entryWeight), parallel
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

	arenas sessionArenas

	// Per-frame scratch (mark bits cleared lazily via the id lists).
	scratch        core.InteractionList
	rowPairs       core.InteractionList // one driver's near entries as pairs
	rowScratch     []float64            // full-length row scratch for driver block evals
	movedA, movedQ []int32              // moved leaf node ids this frame
	movedRows      []int32              // moved atoms (tree order) this frame
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
	inFar          []bool  // markFarChanges scratch: in the driver's previous far list
	oldNear        []int32 // rederiveBorn scratch: the driver's previous near list
	oldSlot        []int32 // and the slots its entries held
	oldFar         []int32 // and its previous far list
}

// sessionArenas owns the backing storage of the per-driver and per-row
// stores. Traversal output (near and far lists), whose length is known
// only once a driver's traversal has run, is cut from chunked slabs;
// everything derived from those lists is counted first and cut from one
// exact allocation. A structural refresh reuses all of it, and so does the
// next session once Close hands it back.
type sessionArenas struct {
	near, far, epolFar slab[int32]
	epolNear           slab[core.NodePair]

	owners, slots, partners           []int32
	blocks, groups                    []float64
	marks, nodeMarks                  []bool
	epolVals                          []float64
	epolW                             []uint8
	epolPartners, epolPartnerPos, ent []int32
}

// slabShare sizes a slab's first chunk: slabShare entries per view, a
// share of what a driver's list comes to (a Born driver at the default ε
// has ~70 near and ~230 far entries).
const slabShare = 32

// slab cuts capacity-capped slices out of chunks, allocating one whenever
// the current chunk cannot hold the next cut. The first chunk holds
// slabShare entries per view; a later one what the views still to come
// need if they average what the views cut so far did (or the one view, if
// longer), so the chunks end about where the lists do. reset hands the
// same chunks out again.
type slab[T any] struct {
	views, done, taken int // views to cut; views and entries cut so far
	chunks             [][]T
	cur, used          int
}

func (s *slab[T]) reset(views int) { s.views, s.done, s.taken, s.cur, s.used = views, 0, 0, 0, 0 }

func (s *slab[T]) take(n int) []T {
	size := slabShare * s.views
	if s.done > 0 {
		size = (s.taken*(s.views-s.done) + s.done - 1) / s.done
	}
	s.done, s.taken = s.done+1, s.taken+n
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	s.chunks = append(s.chunks, make([]T, max(n, size)))
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
	// Eval supplies the engine parameters (BornEps, EpolEps, LeafSize,
	// CriterionPower). Parallel/distributed fields are ignored — a
	// session evaluates serially, its work being O(dirty).
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
	// radiusTolerance is the relative staleness budget of the Born radii
	// the energy phase evaluates with: the energy solver's copy of a
	// radius is re-pushed only when |r_exact - r_pushed| >
	// radiusTolerance·r_exact. 0 → defaultRadiusTolerance; negative →
	// exact (push every changed bit), the reference the tests compare
	// against. Only tests set it.
	radiusTolerance float64
}

// defaultRadiusTolerance is the session's radius push gate: the loosest of
// 1e-5, 3e-5, 1e-4, 3e-4 and 1e-3 whose energy offset against a
// zero-tolerance session stays within 1e-5 relative (100× under the
// treecode's own error) on every stream of the sizing suite — stream_md's
// jitter around home positions, a compounding jitter and two directed
// drifts of 96 and 240 frames. The largest offset there is 0.15× the
// tolerance, on the shorter drift.
const defaultRadiusTolerance = 3e-5

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
	case o.radiusTolerance == 0:
		o.radiusTolerance = defaultRadiusTolerance
	case o.radiusTolerance < 0:
		o.radiusTolerance = 0
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

// MaxCoordinate bounds every atom coordinate a session accepts, in Å per
// axis — at creation and in every frame, and so on every serving endpoint
// that hands atoms to the engine. Squared distances between points inside
// the bound stay far from overflow; beyond ~1e154 they do not, and a frame
// would answer a NaN energy or refresh its structure around a point no
// node's ball can hold.
const MaxCoordinate = 1e6

// checkCoordinates refuses a position with a coordinate that is not a
// finite number within ±MaxCoordinate.
func checkCoordinates(p geom.Vec3) error {
	for _, c := range [3]float64{p.X, p.Y, p.Z} {
		if !(math.Abs(c) <= MaxCoordinate) {
			return fmt.Errorf("coordinate %g outside ±%g Å", c, MaxCoordinate)
		}
	}
	return nil
}

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
	// drifting past the session's radius tolerance.
	PushedRadii int
	// EpolNearPairs counts the ordered atom pairs of the energy near
	// entries evaluated this frame, on every path.
	EpolNearPairs int64
	// Rederived counts driver segments re-derived after a slack breach.
	Rederived int
	// Resweep / Refreshed mark frames that took the periodic full resweep
	// or the structural-refresh path.
	Resweep   bool
	Refreshed bool
}

// ErrSessionClosed is what Step returns on a session Close has released.
var ErrSessionClosed = errors.New("engine: session is closed")

// NewSession samples the molecule's surface, builds both treecode solvers,
// derives every driver segment with slack margins, and evaluates the
// initial energy. The molecule is copied; the caller's value is never
// mutated. The stores come from a closed session when one was handed back
// (Close), and the solvers are built in a released solver's storage when
// there is one; the surface sample is always built anew, and the energies
// do not depend on where the storage came from.
func NewSession(mol *molecule.Molecule, o SessionOptions) (*Session, error) {
	return newSession(mol, o, core.Take[sessionStores](&core.Free, mol.N()))
}

// newSession is NewSession on the given stores. On an error they go to
// the garbage collector.
func newSession(mol *molecule.Molecule, o SessionOptions, st *sessionStores) (*Session, error) {
	o = o.withDefaults()
	eo := o.Eval.withDefaults(OctCilk)
	if err := eo.Validate(); err != nil {
		return nil, err
	}
	if mol.N() == 0 {
		return nil, fmt.Errorf("engine: session needs a non-empty molecule")
	}
	for i := range mol.Atoms {
		if err := checkCoordinates(mol.Atoms[i].Pos); err != nil {
			return nil, fmt.Errorf("engine: session atom %d: %w", i, err)
		}
	}
	ss := &Session{opts: o, eo: eo, sessionStores: *st}
	ss.mol = molecule.Molecule{Name: mol.Name, Atoms: append(ss.mol.Atoms[:0], mol.Atoms...)}
	qpts, owners := surface.SampleOwned(&ss.mol, o.Surf)
	if len(qpts) == 0 {
		return nil, fmt.Errorf("engine: session surface sampling produced no quadrature points")
	}
	ss.bs = core.NewBornSolver(&ss.mol, qpts, eo.bornConfig())
	ss.sizeStores(qpts, owners)
	ss.rebuildStructure()
	return ss, nil
}

// sizeStores sizes every per-atom, per-node and per-driver store to the
// session's trees, reusing the capacity a recycled store holds, and fills
// the topology maps. A store whose zero state is read — the marks, the
// displacements, the frame's id lists, the entry values a weight of 0
// multiplies — is cleared; rebuildStructure writes every other one before
// it reads it.
func (ss *Session) sizeStores(qpts []surface.QPoint, owners []int32) {
	ta, tq := ss.bs.TA, ss.bs.TQ
	nA, nodesA, nodesQ := len(ta.Points), len(ta.Nodes), len(tq.Nodes)
	la, lq := len(ta.LeafIdx), len(tq.LeafIdx)
	ar := &ss.arenas

	ss.charges = core.Resize(ss.charges, nA)
	for i := range ss.mol.Atoms {
		ss.charges[i] = ss.mol.Atoms[i].Charge
	}
	ss.aInv = ta.InvPermInto(ss.aInv)
	ss.aLeafOf = ta.PointLeaves(ss.aLeafOf)
	ss.qLeafOf = tq.PointLeaves(ss.qLeafOf)
	ss.qOwner = core.Resize(ss.qOwner, nA)
	ss.qOff = core.Resize(ss.qOff, len(qpts))
	owned := make([]int32, nA)
	for _, ow := range owners {
		owned[ow]++
	}
	ar.owners = core.Resize(ar.owners, len(qpts))
	ownerBuf := ar.owners
	for i := range ss.qOwner {
		ss.qOwner[i] = cut(&ownerBuf, int(owned[i]))[:0]
	}
	for j, orig := range tq.Perm {
		ow := owners[orig]
		ss.qOff[j] = qpts[orig].Pos.Sub(ss.mol.Atoms[ow].Pos)
		ss.qOwner[ow] = append(ss.qOwner[ow], int32(j))
	}
	ss.aDense = denseLeafIndex(ss.aDense, nodesA, ta.LeafIdx)
	ss.qDense = denseLeafIndex(ss.qDense, nodesQ, tq.LeafIdx)

	ss.bornNear = core.Resize(ss.bornNear, lq)
	ss.bornFar = core.Resize(ss.bornFar, lq)
	ss.bornEntrySlot = core.Resize(ss.bornEntrySlot, lq)
	ss.rowBlk = core.Resize(ss.rowBlk, nodesA)
	ss.rowGrp = core.Resize(ss.rowGrp, nodesA)
	ss.grpDirty = core.Resize(ss.grpDirty, nodesA)
	ss.bornPartners = core.Resize(ss.bornPartners, nodesA)
	ss.sNodeFar = core.Resize(ss.sNodeFar, 4*nodesA)
	ss.farTotal = core.Resize(ss.farTotal, 4*nodesA)
	ss.sAtomNear = core.Resize(ss.sAtomNear, nA)
	ss.rTree = core.Resize(ss.rTree, nA)
	ss.rPushed = core.Resize(ss.rPushed, nA)
	ss.epolNear = core.Resize(ss.epolNear, la)
	ss.epolNearVal = core.Resize(ss.epolNearVal, la)
	ss.epolW = core.Resize(ss.epolW, la)
	ss.epolFar = core.Resize(ss.epolFar, la)
	ss.nearVal = core.Resize(ss.nearVal, la)
	ss.farVal = core.Resize(ss.farVal, la)
	ss.epolPartners = core.Resize(ss.epolPartners, nodesA)
	ss.epolPartnerPos = core.Resize(ss.epolPartnerPos, nodesA)
	ss.rowScratch = core.Resize(ss.rowScratch, nA)
	clear(ar.epolVals[:cap(ar.epolVals)])

	ss.refPosA = core.Resize(ss.refPosA, nA)
	ss.epochPosA = core.Resize(ss.epochPosA, nA)
	ss.refPosQ = core.Resize(ss.refPosQ, len(tq.Points))
	ss.epochPosQ = core.Resize(ss.epochPosQ, len(tq.Points))
	ss.refBallRA = core.Resize(ss.refBallRA, nodesA)
	ss.refBallRQ = core.Resize(ss.refBallRQ, nodesQ)
	for _, d := range []*[]float64{&ss.dispRefA, &ss.dispEpochA, &ss.nodeDispA} {
		*d = core.Resize(*d, nodesA)
		clear(*d)
	}
	for _, d := range []*[]float64{&ss.dispRefQ, &ss.dispEpochQ, &ss.nodeDispQ} {
		*d = core.Resize(*d, nodesQ)
		clear(*d)
	}
	ar.nodeMarks = core.Resize(ar.nodeMarks, 6*nodesA+nodesQ+2*la) // every mark array, one allocation
	clear(ar.nodeMarks)
	marks := ar.nodeMarks
	ss.markA, ss.markRow, ss.markSlot = cut(&marks, nodesA), cut(&marks, nodesA), cut(&marks, nodesA)
	ss.markFar, ss.markU, ss.inFar = cut(&marks, nodesA), cut(&marks, nodesA), cut(&marks, nodesA)
	ss.markQ, ss.markV, ss.fullV = cut(&marks, nodesQ), cut(&marks, la), cut(&marks, la)
	ss.dirtyEnt = core.Resize(ss.dirtyEnt, la)
	// The per-frame id lists hold each leaf (or atom) at most once, so
	// their final capacity is known now and no frame has to grow them.
	for _, l := range []struct {
		s *[]int32
		n int
	}{{&ss.movedA, la}, {&ss.movedRows, nA}, {&ss.movedQ, lq}, {&ss.dirtyRows, la},
		{&ss.dirtyV, la}, {&ss.listU, la}, {&ss.slotDirty, la}} {
		*l.s = core.Resize(*l.s, l.n)[:0]
	}
	ss.farDirty = ss.farDirty[:0]
}

// Close hands the session's stores to the next NewSession and its solvers
// to the next solver build, and leaves the session closed: Step answers
// ErrSessionClosed, Energy and Frame keep their last values, and a second
// Close does nothing. The session keeps no reference to what it handed
// back. A session dropped without Close is left to the garbage collector.
func (ss *Session) Close() {
	if st := ss.release(); st != nil {
		core.Free.Put(st, cap(st.charges), st.bytes())
	}
}

// release closes the session and returns its stores with every view
// dropped: one that a re-derivation outgrew lives outside the arenas and is
// not carried over, and the next session cuts its own. On a closed session
// it returns nil.
func (ss *Session) release() *sessionStores {
	if ss.closed {
		return nil
	}
	ss.closed = true
	ss.es.Release()
	ss.bs.Release()
	ss.bs, ss.es = nil, nil
	st := ss.sessionStores
	ss.sessionStores = sessionStores{}
	for _, vs := range [][][]int32{st.qOwner, st.bornNear, st.bornFar, st.bornPartners, st.bornEntrySlot,
		st.epolFar, st.epolPartners, st.epolPartnerPos, st.dirtyEnt} {
		clear(vs)
	}
	clear(st.rowBlk)
	clear(st.rowGrp)
	clear(st.grpDirty)
	clear(st.epolNear)
	clear(st.epolNearVal)
	clear(st.epolW)
	return &st
}

// denseLeafIndex inverts LeafIdx into dst: node id -> dense leaf index, -1
// elsewhere.
func denseLeafIndex(dst []int32, nodes int, leafIdx []int32) []int32 {
	out := core.Resize(dst, nodes)
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

// MemoryBytes is the resident size of the session, the figure a byte
// budget on sessions charges: the molecule copy, both solvers (the atoms
// octree they share counted once), and every per-node, per-atom and
// per-driver store, arena and scratch the session keeps, by capacity —
// including the views re-derivations outgrew, which live outside their
// arenas until the next structural refresh re-cuts them.
func (ss *Session) MemoryBytes() int64 {
	if ss.closed {
		return 0
	}
	return ss.bs.MemoryBytes() + ss.es.MemoryBytes() + ss.bytes()
}

// bytes is the size of the stores by capacity, the views re-derivations
// outgrew included.
func (ss *sessionStores) bytes() int64 {
	ar := &ss.arenas
	n := capBytes(ss.mol.Atoms) + capBytes(ss.charges) + capBytes(ss.qOff) +
		capBytes(ss.rowScratch) + capBytes(ss.scratch.Near) + capBytes(ss.scratch.Far) + capBytes(ss.rowPairs.Near) +
		slabBytes(&ar.near) + slabBytes(&ar.far) + slabBytes(&ar.epolFar) + slabBytes(&ar.epolNear) +
		capBytes(ar.blocks) + capBytes(ar.groups) + capBytes(ar.marks) + capBytes(ar.nodeMarks) +
		capBytes(ar.epolVals) + capBytes(ar.epolW) + capBytes(ar.owners)
	for _, s := range [][][]int32{ss.qOwner, ss.bornNear, ss.bornFar, ss.bornPartners, ss.bornEntrySlot,
		ss.epolFar, ss.epolPartners, ss.epolPartnerPos, ss.dirtyEnt} {
		n += capBytes(s)
	}
	for _, s := range [][][]float64{ss.rowBlk, ss.rowGrp, ss.epolNearVal} {
		n += capBytes(s)
	}
	n += capBytes(ss.grpDirty) + capBytes(ss.epolNear) + capBytes(ss.epolW)
	for _, s := range [][]int32{ss.aInv, ss.aLeafOf, ss.qLeafOf, ss.aDense, ss.qDense, ar.slots, ar.partners,
		ar.epolPartners, ar.epolPartnerPos, ar.ent, ss.movedA, ss.movedQ, ss.movedRows,
		ss.dirtyRows, ss.dirtyV, ss.listU, ss.slotDirty, ss.farDirty, ss.oldNear, ss.oldSlot, ss.oldFar} {
		n += capBytes(s)
	}
	for _, s := range [][]float64{ss.sNodeFar, ss.farTotal, ss.sAtomNear, ss.rTree, ss.rPushed, ss.nearVal,
		ss.farVal, ss.dispRefA, ss.dispEpochA, ss.dispRefQ, ss.dispEpochQ, ss.refBallRA, ss.refBallRQ,
		ss.nodeDispA, ss.nodeDispQ} {
		n += capBytes(s)
	}
	for _, s := range [][]geom.Vec3{ss.refPosA, ss.epochPosA, ss.refPosQ, ss.epochPosQ} {
		n += capBytes(s)
	}
	return n + ss.spillBytes()
}

// spillBytes is the size of the views re-derivations outgrew: they live
// outside their arenas until the next structural refresh re-cuts them.
func (ss *sessionStores) spillBytes() int64 {
	ar := &ss.arenas
	return spilled(ss.bornNear, ar.near.chunks...) + spilled(ss.bornFar, ar.far.chunks...) +
		spilled(ss.bornEntrySlot, ar.slots) + spilled(ss.bornPartners, ar.partners) +
		spilled(ss.rowBlk, ar.blocks) + spilled(ss.rowGrp, ar.groups) + spilled(ss.grpDirty, ar.marks) +
		spilled(ss.epolNear, ar.epolNear.chunks...) + spilled(ss.epolFar, ar.epolFar.chunks...) +
		spilled(ss.epolNearVal, ar.epolVals) + spilled(ss.epolW, ar.epolW)
}

// spilled is the size of the views in vs that lie in none of the arenas
// they were cut from: a re-derivation outgrew them.
func spilled[T any](vs [][]T, arenas ...[]T) int64 {
	var n int64
	for _, v := range vs {
		if cap(v) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		in := false
		for _, a := range arenas {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
			in = in || (p >= lo && p < lo+uintptr(capBytes(a)))
		}
		if !in {
			n += capBytes(v)
		}
	}
	return n
}

// capBytes is the size of s's backing array.
func capBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// slabBytes is the size of a slab's chunks.
func slabBytes[T any](s *slab[T]) int64 {
	n := capBytes(s.chunks)
	for _, c := range s.chunks {
		n += capBytes(c)
	}
	return n
}

// Step advances the stream by one frame: apply the delta, re-derive what
// the slack margins invalidated, recompute exactly the dirty values, and
// return the new energy. On an out-of-range move index or a coordinate
// past MaxCoordinate (or not finite) the session is left unchanged; a
// closed session answers ErrSessionClosed.
func (ss *Session) Step(d FrameDelta) (FrameReport, error) {
	if ss.closed {
		return FrameReport{}, ErrSessionClosed
	}
	n := len(ss.mol.Atoms)
	for _, mv := range d.Moves {
		if mv.Index < 0 || mv.Index >= n {
			return FrameReport{}, fmt.Errorf("engine: frame move references atom %d, have %d atoms", mv.Index, n)
		}
		if err := checkCoordinates(mv.Pos); err != nil {
			return FrameReport{}, fmt.Errorf("engine: frame move of atom %d: %w", mv.Index, err)
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
		ss.movedRows = append(ss.movedRows, ti)
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
	slices.Sort(ss.movedRows)
	ss.movedRows = slices.Compact(ss.movedRows)

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
		rep.EpolNearPairs = ss.epolPairs
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
		// Re-weigh around every moved leaf: the re-derived ones are among
		// them, and re-weighing the others only writes weights that are
		// right already or that a re-derived leaf's pass writes as well.
		for _, l := range ss.movedA {
			ss.reweigh(l)
		}
		ss.cutDirtyEntries()
	}

	// Periodic full resweep: recompute EVERY cached value from current
	// positions in canonical order. Bitwise a no-op when dirty tracking is
	// sound — the property tests pin exactly that.
	if ss.frame%ss.opts.ResweepEvery == 0 {
		ss.resweep()
		rep.Resweep = true
		rep.Energy = ss.energy
		rep.EpolNearPairs = ss.epolPairs
		return rep, nil
	}

	// Born near blocks: a cached block element is a pure function of its
	// driver's q-points and its atom's position, so re-evaluate every block
	// of a moved (or re-derived) driver, driver-major, and each moved
	// atom's elements of its row's blocks, row-major; then re-add the groups
	// those writes dirtied and rebuild the dirty rows from their group sums.
	for _, l := range ss.movedQ {
		ql := int(ss.qDense[l])
		ss.recomputeDriverBlocks(ql)
		for _, a := range ss.bornNear[ql] {
			ss.markDirtyRow(a)
		}
	}
	for i := 0; i < len(ss.movedRows); {
		lo := ss.movedRows[i]
		l, hi := ss.aLeafOf[lo], lo+1
		for i++; i < len(ss.movedRows) && ss.movedRows[i] == hi && ss.aLeafOf[hi] == l; i++ {
			hi++ // a run of moved atoms in one leaf is one call
		}
		if !ss.markSlot[l] { // a slot-shifted row is rebuilt whole below
			ss.recomputeRowBlocks(l, lo, hi)
		}
	}
	// Slot-shifted rows rebuild ALL their blocks: values of unmoved
	// partners are unchanged but live at new offsets, and re-evaluating
	// them reproduces them bitwise.
	for _, a := range ss.slotDirty {
		lo, hi := ss.bs.TA.PointRange(a)
		ss.recomputeRowBlocks(a, lo, hi)
	}
	slices.Sort(ss.dirtyRows)
	for _, a := range ss.dirtyRows {
		ss.resumBornRow(a)
	}
	rep.DirtyBornRows = len(ss.dirtyRows)

	// Born radii: rTree is always recomputed exactly (O(atoms), pure
	// function of the cached sums); the energy solver's copy is re-pushed
	// only past the radius tolerance. The energy dirty set is then exactly
	// the leaves whose pushed inputs changed: moved leaves plus leaves
	// holding a re-pushed radius.
	for _, l := range ss.movedA {
		ss.markULeaf(l)
	}
	rep.PushedRadii = ss.pushRadii(true)

	// Energy near entries: a changed u-leaf dirties its entry in every
	// partnered driver that counts it (a mirrored block's owner, never the
	// driver that skips it); a driver whose own leaf changed dirties every
	// entry it counts (its atoms sit on the v side of each). Dirty entries
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
		for idx, vl := range pp {
			if ss.epolW[vl][pk[idx]] == 0 {
				continue
			}
			if !ss.fullV[vl] {
				ss.dirtyEnt[vl] = append(ss.dirtyEnt[vl], pk[idx])
			}
			ss.markDirtyV(vl)
		}
	}
	slices.Sort(ss.dirtyV)
	for _, vl := range ss.dirtyV {
		if ss.fullV[vl] {
			ss.fullV[vl] = false
			ss.ownEntries(vl)
		}
		ss.evalDirtyEntries(vl)
	}
	rep.DirtyEpolDrivers = len(ss.dirtyV)
	rep.EpolNearPairs = ss.epolPairs

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
	ss.movedRows = ss.movedRows[:0]
	ss.epolPairs = 0
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

// epochBreach bubbles per-leaf epoch displacements bottom-up (children
// precede parents in reverse index order) and reports whether any node's
// displacement exceeds its frozen ball's slack margin.
func (ss *Session) epochBreach() bool {
	return bubbleBreach(ss.bs.TA, ss.dispEpochA, ss.nodeDispA, ss.opts.SlackFactor, ss.opts.MinSlack) ||
		bubbleBreach(ss.bs.TQ, ss.dispEpochQ, ss.nodeDispQ, ss.opts.SlackFactor, ss.opts.MinSlack)
}

// resweep recomputes every cached value — far entries, far sums, every
// near block and entry, every radius, every sum — from current state in
// canonical order, without touching the structure. The radius push stays
// tolerance gated (the rule must not depend on resweep cadence), so a
// resweep re-verifies the caches against the session's own semantics.
func (ss *Session) resweep() {
	ss.sumFarNodes(true)
	for ql := range ss.bornNear {
		ss.recomputeDriverBlocks(ql)
	}
	for _, a := range ss.bs.TA.LeafIdx {
		ss.resumBornRow(a)
	}
	ss.pushRadii(false)
	for vl := range ss.nearVal {
		ss.ownEntries(int32(vl))
		ss.evalDirtyEntries(int32(vl))
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()
}

// refresh is the structural-refresh path: refit both trees' node geometry
// to the current points, then rebuild every segment, aggregate and value —
// including a fresh energy solver whose charge bins re-bin against the
// current Born radii and take their moments about the refitted centres —
// and reset every slack budget.
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
	ar.near.reset(len(tq.LeafIdx))
	ar.far.reset(len(tq.LeafIdx))
	ar.epolNear.reset(len(ta.LeafIdx))
	ar.epolFar.reset(len(ta.LeafIdx))

	maxNear := 0
	for ql, qLeaf := range tq.LeafIdx {
		c, r := currentBall(tq, qLeaf)
		ss.bs.BuildBornDriverSlack(&ss.scratch, qLeaf, c, r, sf, ms)
		ss.bornNear[ql] = appendANodes(ar.near.take(len(ss.scratch.Near))[:0], ss.scratch.Near)
		ss.bornFar[ql] = appendANodes(ar.far.take(len(ss.scratch.Far))[:0], ss.scratch.Far)
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
		ss.rTree[i] = ss.bornRadius(i)
	}
	copy(ss.rPushed, ss.rTree)

	// Fresh energy solver: re-bins charges against the current (exact)
	// radii and rebuilds every mirror from the current positions, in the
	// storage of the one it replaces.
	ss.es.Release()
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
	ar.epolVals = core.Resize(ar.epolVals, nVals)
	ar.epolW = core.Resize(ar.epolW, nVals)
	vals, weights := ar.epolVals, ar.epolW
	for vl := range ss.epolNear {
		ss.epolNearVal[vl] = cut(&vals, len(ss.epolNear[vl]))
		ss.epolW[vl] = cut(&weights, len(ss.epolNear[vl]))
	}
	ss.rebuildEpolPartners()
	for vl := range ss.nearVal {
		ss.weighDriver(vl)
	}
	ss.cutDirtyEntries()
	for vl := range ss.nearVal {
		ss.ownEntries(int32(vl))
		ss.evalDirtyEntries(int32(vl))
		ss.recomputeEpolFar(vl)
	}
	ss.energy = ss.sumEnergy()

	// Reset every slack budget: reference and epoch positions snap to the
	// current points, displacements to zero.
	copy(ss.refPosA, ta.Points)
	copy(ss.epochPosA, ta.Points)
	copy(ss.refPosQ, tq.Points)
	copy(ss.epochPosQ, tq.Points)
	clear(ss.dispRefA)
	clear(ss.dispEpochA)
	clear(ss.dispRefQ)
	clear(ss.dispEpochQ)
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
