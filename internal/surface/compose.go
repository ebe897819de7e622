package surface

import (
	"errors"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
)

// ErrRotatedPose is returned by ComposePose (and PoseComposer.Compose) when
// the pose carries a non-identity rotation. Composition is only exact for
// pure translations; rotated poses must go through the full re-sample path
// (Sample of the merged molecule).
var ErrRotatedPose = errors.New("surface: pose carries a rotation; composed surfaces are exact only for pure translations")

// ComposePose assembles the molecular surface of a receptor–ligand complex
// from the two molecules' already-sampled surfaces instead of re-sampling
// the merged molecule — the per-pose fast path of a docking sweep, where
// the receptor never moves and the ligand is placed at thousands of rigid
// translations.
//
// Exactness contract: the pose must be a pure translation
// (geom.Rigid.IsTranslation — the rotation block is bitwise the identity);
// anything else returns ErrRotatedPose and the caller falls back to
// Sample(Merge(...)). Under that restriction the result is numerically
// identical to Sample(Merge(rec, lig.Transform(pose)), opt): a receptor
// point survives in the complex iff it is not strictly inside any other
// complex atom, and the receptor-internal part of that test was already
// applied when recQ was sampled, so only burial by posed-ligand atoms
// remains to check (and symmetrically for ligand points against receptor
// atoms). Ligand points translate rigidly with the very arithmetic Sample
// would use; normals and quadrature weights are translation invariant.
//
// A rotation would break the contract at the discretization level: Sample
// re-tiles every posed ligand atom with the fixed world-frame icosphere,
// while transporting the original tiling rotates it with the molecule. The
// two quadratures agree only to quadrature accuracy, which is why rotated
// poses are rejected instead of silently composed.
//
// recQ and ligQ must have been sampled with the same Options opt that is
// passed here (opt supplies the radius scale for the burial tests).
func ComposePose(name string, rec *molecule.Molecule, recQ []QPoint,
	lig *molecule.Molecule, ligQ []QPoint, pose geom.Rigid, opt Options) (*molecule.Molecule, []QPoint, error) {
	if !pose.IsTranslation() {
		return nil, nil, ErrRotatedPose
	}
	opt = opt.withDefaults()
	posed := lig.Transform(pose)
	cx := molecule.Merge(name, rec, posed)

	out := make([]QPoint, 0, len(recQ)+len(ligQ))

	// Receptor points: cull those buried by any posed-ligand atom.
	ligTree, ligMaxR := centerTree(posed, opt.RadiusScale)
	// Ligand points: rigidly transport, cull those buried by any receptor
	// atom.
	recTree, recMaxR := centerTree(rec, opt.RadiusScale)
	out = composeInto(out, rec, recQ, posed, ligQ, recTree, recMaxR, ligTree, ligMaxR, pose, opt)
	return cx, out, nil
}

// composeInto runs the two burial sweeps of ComposePose, appending
// surviving points to out. posed is the ligand already at its pose;
// ligTree/recTree are center octrees over posed and rec.
func composeInto(out []QPoint, rec *molecule.Molecule, recQ []QPoint,
	posed *molecule.Molecule, ligQ []QPoint,
	recTree *octree.Tree, recMaxR float64, ligTree *octree.Tree, ligMaxR float64,
	pose geom.Rigid, opt Options) []QPoint {
	for i := range recQ {
		if buriedByAny(ligTree, posed, opt.RadiusScale, recQ[i].Pos, ligMaxR) {
			continue
		}
		out = append(out, recQ[i])
	}
	for i := range ligQ {
		p := pose.Apply(ligQ[i].Pos)
		if buriedByAny(recTree, rec, opt.RadiusScale, p, recMaxR) {
			continue
		}
		out = append(out, QPoint{
			Pos:    p,
			Normal: ligQ[i].Normal, // translation: normals carry over
			Weight: ligQ[i].Weight,
		})
	}
	return out
}

// PoseComposer amortizes ComposePose across a sweep of translations of the
// same receptor/ligand pair: the receptor octree and the base-pose ligand
// octree are built once, and each Compose call only translates the ligand
// tree into reusable scratch storage and re-runs the burial sweeps. The
// result of Compose is identical to ComposePose for the same inputs.
type PoseComposer struct {
	rec, lig   *molecule.Molecule
	recQ, ligQ []QPoint
	opt        Options

	recTree *octree.Tree
	recMaxR float64
	ligBase *octree.Tree
	ligMaxR float64

	sc *ComposeScratch
}

// ComposeScratch is reusable backing storage for PoseComposer: the
// translated ligand tree and the output q-point buffer. A zero value is
// ready to use. Scratch is molecule independent, so one ComposeScratch can
// be recycled (e.g. via sync.Pool) across composers for different
// receptor/ligand pairs — but a q-point slice returned by Compose aliases
// the scratch and is only valid until the next Compose using the same
// scratch.
type ComposeScratch struct {
	posed *octree.Tree
	buf   []QPoint
}

// NewPoseComposer prepares a composer for sweeping lig over translations
// against rec. recQ and ligQ must have been sampled with opt. sc may be
// nil, in which case the composer allocates its own scratch.
func NewPoseComposer(rec *molecule.Molecule, recQ []QPoint,
	lig *molecule.Molecule, ligQ []QPoint, opt Options, sc *ComposeScratch) *PoseComposer {
	opt = opt.withDefaults()
	if sc == nil {
		sc = &ComposeScratch{}
	}
	pc := &PoseComposer{rec: rec, lig: lig, recQ: recQ, ligQ: ligQ, opt: opt, sc: sc}
	pc.recTree, pc.recMaxR = centerTree(rec, opt.RadiusScale)
	pc.ligBase, pc.ligMaxR = centerTree(lig, opt.RadiusScale)
	return pc
}

// Compose is ComposePose against the cached trees. The returned q-point
// slice aliases the composer's scratch buffer and is valid only until the
// next Compose call; callers that retain it across poses must copy.
func (pc *PoseComposer) Compose(name string, pose geom.Rigid) (*molecule.Molecule, []QPoint, error) {
	if !pose.IsTranslation() {
		return nil, nil, ErrRotatedPose
	}
	posed := pc.lig.Transform(pose)
	cx := molecule.Merge(name, pc.rec, posed)
	// Translating the base tree applies the same p + T arithmetic that
	// lig.Transform just ran, so the tree's points match posed bitwise and
	// the burial sweeps reproduce ComposePose's decisions exactly.
	pc.sc.posed = pc.ligBase.TransformInto(pc.sc.posed, pose)
	pc.sc.buf = composeInto(pc.sc.buf[:0], pc.rec, pc.recQ, posed, pc.ligQ,
		pc.recTree, pc.recMaxR, pc.sc.posed, pc.ligMaxR, pose, pc.opt)
	return cx, pc.sc.buf, nil
}

// centerTree builds an octree over the molecule's atom centers and returns
// it with the largest scaled radius (the burial query ball).
func centerTree(m *molecule.Molecule, scale float64) (*octree.Tree, float64) {
	centers := make([]geom.Vec3, m.N())
	maxR := 0.0
	for i := range m.Atoms {
		centers[i] = m.Atoms[i].Pos
		if r := m.Atoms[i].Radius * scale; r > maxR {
			maxR = r
		}
	}
	return octree.BuildOwned(centers, 0), maxR
}

// buriedByAny reports whether p lies strictly inside any atom of mol —
// the cross-molecule half of Sample's burial rule, where no atom is
// "self". The strictness threshold matches buriedBy's exactly so composed
// surfaces reproduce Sample's culling decisions.
func buriedByAny(tree *octree.Tree, mol *molecule.Molecule, scale float64, p geom.Vec3, maxR float64) bool {
	hit := false
	tree.ForEachInBall(p, maxR, func(ti int32) bool {
		a := &mol.Atoms[tree.Perm[ti]]
		r := a.Radius * scale
		if a.Pos.Dist2(p) < r*r*(1-1e-12) {
			hit = true
			return false
		}
		return true
	})
	return hit
}
