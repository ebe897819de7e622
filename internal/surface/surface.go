// Package surface samples Gaussian-quadrature points from the molecular
// surface — the set Q of "q-points" the paper's Born-radius integral
// (Eq. 4) is evaluated over.
//
// The paper obtains Q by triangulating the molecular surface and placing
// Dunavant quadrature points in each triangle. We reproduce that pipeline
// for the van-der-Waals union-of-spheres surface: every atom sphere is
// triangulated with a subdivided icosahedron, Dunavant points are placed in
// each (projected) triangle, and points buried inside any other atom are
// culled, leaving a quadrature of the exposed molecular surface with
// outward normals and area weights. This is the substitution documented in
// DESIGN.md for the authors' surface-generation toolchain.
package surface

import (
	"math"
	"sync"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/quadrature"
	"octgb/internal/sched"
)

// QPoint is one surface quadrature point: location, unit outward normal of
// the molecular surface, and quadrature weight (units of area, Å²).
type QPoint struct {
	Pos    geom.Vec3
	Normal geom.Vec3
	Weight float64
}

// Options controls surface sampling resolution.
type Options struct {
	// SubdivLevel is the icosphere subdivision level per atom
	// (0 → 20 triangles/atom). Default 1 (80 triangles).
	SubdivLevel int
	// Degree is the Dunavant rule degree (1–5). Default 1 (1 point per
	// triangle; the paper notes "a constant number of quadrature points per
	// triangle").
	Degree int
	// RadiusScale inflates atom radii before surface construction
	// (1.0 = van-der-Waals surface). Default 1.0.
	RadiusScale float64
}

func (o Options) withDefaults() Options {
	if o.SubdivLevel < 0 {
		o.SubdivLevel = 0
	}
	if o.Degree <= 0 {
		o.Degree = 1
	}
	if o.RadiusScale <= 0 {
		o.RadiusScale = 1
	}
	return o
}

// Default returns the default sampling options.
func Default() Options { return Options{SubdivLevel: 1, Degree: 1, RadiusScale: 1} }

// Sample generates the surface quadrature point set of mol.
func Sample(mol *molecule.Molecule, opt Options) []QPoint { return SampleParallel(mol, opt, 1) }

// SampleParallel is Sample with the atoms divided over a work-stealing
// pool of `workers` threads (≤ 1 is the serial Sample). Every atom's
// points land at a precomputed offset, so the output is identical to
// Sample's under any schedule.
func SampleParallel(mol *molecule.Molecule, opt Options, workers int) []QPoint {
	q, _ := sample(mol, opt, max(workers, 1), false)
	return q
}

// SampleOwned is Sample additionally reporting, for every quadrature point,
// the index of the atom whose sphere it was placed on. Owners are what lets
// incremental (streaming) evaluation transport q-points rigidly with their
// parent atom when it moves: a point at atomPos + r·dir stays at the same
// offset under translation, and its normal and weight are translation
// invariant. Burial culling is decided at sampling time and not revisited
// by such transports (see engine.Session).
func SampleOwned(mol *molecule.Molecule, opt Options) ([]QPoint, []int32) {
	return sample(mol, opt, 1, true)
}

// template is the quadrature of the unit sphere every atom sphere is a
// scaled copy of: unit directions and weights summing to exactly 4π.
type template struct {
	dir []geom.Vec3
	w   []float64
}

// templates caches one template per (SubdivLevel, Degree): building one
// subdivides and projects an icosahedron, as much work as sampling a small
// molecule with it.
var templates sync.Map // [2]int → *template

func templateFor(level, degree int) *template {
	key := [2]int{level, degree}
	if t, ok := templates.Load(key); ok {
		return t.(*template)
	}
	mesh := quadrature.Icosphere(level)
	rule := quadrature.Rule(degree)
	// Calibrate weights so an isolated unit sphere integrates to exactly 4π
	// (flat facets slightly under-tile the sphere).
	areaFix := 4 * math.Pi / mesh.TotalArea()
	t := &template{}
	for i := range mesh.Tris {
		area := mesh.TriangleArea(i) * areaFix
		for _, p := range rule {
			t.dir = append(t.dir, mesh.PointAt(i, p.A, p.B, p.C).Unit())
			t.w = append(t.w, p.W*area)
		}
	}
	templates.Store(key, t)
	return t
}

// sample is the one sampler body. A point on atom i's sphere can only be
// buried by an atom whose sphere overlaps i's, so each atom gathers those
// neighbours once (one ball query on the atom-center octree) and tests
// every template direction against that short list; the survivors are
// recorded as a bitmask first, so the output is allocated once at its
// exact size and filled at per-atom offsets, atom-major in template order.
// The owner table is built only when asked for.
func sample(mol *molecule.Molecule, opt Options, workers int, owned bool) ([]QPoint, []int32) {
	opt = opt.withDefaults()
	n := mol.N()
	if n == 0 {
		return nil, nil
	}
	tpl := templateFor(opt.SubdivLevel, opt.Degree)
	scale := opt.RadiusScale
	tree, maxR := centerTree(mol, scale)
	words := (len(tpl.dir) + 63) / 64
	keep := make([]uint64, n*words)
	start := make([]int32, n+1) // start[i+1] holds atom i's count until the prefix sum

	pool := sched.NewPool(workers)
	type neighbours struct{ x, y, z, thr []float64 }
	scratch := make([]neighbours, pool.Workers())
	pool.ParallelFor(n, 0, func(w, lo, hi int) {
		nb := &scratch[w]
		for i := lo; i < hi; i++ {
			ai := &mol.Atoms[i]
			ri := ai.Radius * scale
			nb.x, nb.y, nb.z, nb.thr = nb.x[:0], nb.y[:0], nb.z[:0], nb.thr[:0]
			// The 1e-9 slack keeps the list a superset of what a per-point
			// query finds: a sphere that far outside cannot bury strictly.
			tree.ForEachInBall(ai.Pos, (ri+maxR)*(1+1e-9), func(ti int32) bool {
				j := tree.Perm[ti]
				a := &mol.Atoms[j]
				r := a.Radius * scale
				if reach := ri + r; int(j) != i && a.Pos.Dist2(ai.Pos) <= reach*reach*(1+1e-9) {
					nb.x, nb.y, nb.z = append(nb.x, a.Pos.X), append(nb.y, a.Pos.Y), append(nb.z, a.Pos.Z)
					nb.thr = append(nb.thr, r*r*(1-1e-12))
				}
				return true
			})
			mask := keep[i*words : (i+1)*words]
			for k, dir := range tpl.dir {
				if !buriedBy(nb.x, nb.y, nb.z, nb.thr, ai.Pos.Add(dir.Scale(ri))) {
					mask[k/64] |= 1 << (k % 64)
					start[i+1]++
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}

	out := make([]QPoint, start[n])
	var owners []int32
	if owned {
		owners = make([]int32, start[n])
	}
	pool.ParallelFor(n, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := &mol.Atoms[i]
			ri := ai.Radius * scale
			at := start[i]
			for k, dir := range tpl.dir {
				if keep[i*words+k/64]&(1<<(k%64)) == 0 {
					continue
				}
				out[at] = QPoint{Pos: ai.Pos.Add(dir.Scale(ri)), Normal: dir, Weight: tpl.w[k] * ri * ri}
				if owned {
					owners[at] = int32(i)
				}
				at++
			}
		}
	})
	return out, owners
}

// buriedBy reports whether p lies strictly inside any sphere of the
// neighbour list: centers x, y, z, and thr the squared radius shrunk by
// the strictness margin.
func buriedBy(x, y, z, thr []float64, p geom.Vec3) bool {
	for j := range thr {
		dx, dy, dz := x[j]-p.X, y[j]-p.Y, z[j]-p.Z
		if dx*dx+dy*dy+dz*dz < thr[j] {
			return true
		}
	}
	return false
}

// TotalArea returns the summed quadrature weight — the exposed molecular
// surface area in Å².
func TotalArea(q []QPoint) float64 {
	var s float64
	for i := range q {
		s += q[i].Weight
	}
	return s
}

// Positions extracts the point locations (used to build the q-point octree).
func Positions(q []QPoint) []geom.Vec3 {
	out := make([]geom.Vec3, len(q))
	for i := range q {
		out[i] = q[i].Pos
	}
	return out
}
