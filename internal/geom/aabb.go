package geom

import "math"

// AABB is an axis-aligned bounding box given by its minimum and maximum
// corners. The zero value is the "empty" box (Min=+Inf, Max=-Inf is produced
// by EmptyAABB; the literal zero value is a degenerate point at the origin,
// so use EmptyAABB when accumulating).
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the identity element for Union: a box that contains
// nothing and leaves any box unchanged when united with it.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// NewAABB returns the smallest box containing all the given points.
func NewAABB(pts ...Vec3) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		// The built-ins, not ExpandPoint's math.Min/Max: octree builds call
		// this on every point set, and the library calls cost several times
		// the comparison they wrap.
		b.Min.X, b.Max.X = min(b.Min.X, p.X), max(b.Max.X, p.X)
		b.Min.Y, b.Max.Y = min(b.Min.Y, p.Y), max(b.Max.Y, p.Y)
		b.Min.Z, b.Max.Z = min(b.Min.Z, p.Z), max(b.Max.Z, p.Z)
	}
	return b
}

// ExpandPoint returns the smallest box containing b and p.
func (b AABB) ExpandPoint(p Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, c.Min.X), math.Min(b.Min.Y, c.Min.Y), math.Min(b.Min.Z, c.Min.Z)},
		Max: Vec3{math.Max(b.Max.X, c.Max.X), math.Max(b.Max.Y, c.Max.Y), math.Max(b.Max.Z, c.Max.Z)},
	}
}

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Contains reports whether p lies inside b (inclusive of the boundary).
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// HalfDiagonal returns the distance from the center to a corner, i.e. the
// radius of the smallest sphere centered at Center() that encloses the box.
func (b AABB) HalfDiagonal() float64 { return b.Size().Norm() / 2 }

// Cube returns the smallest axis-aligned cube sharing b's center that
// contains b. Octrees subdivide cubes so all children have identical shape.
func (b AABB) Cube() AABB {
	c := b.Center()
	h := b.Size().MaxComponent() / 2
	d := Vec3{h, h, h}
	return AABB{Min: c.Sub(d), Max: c.Add(d)}
}

// Octant returns the i-th (0..7) octant cube of b. Bit 0 selects the upper
// half in X, bit 1 in Y, bit 2 in Z.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	o := b
	if i&1 != 0 {
		o.Min.X = c.X
	} else {
		o.Max.X = c.X
	}
	if i&2 != 0 {
		o.Min.Y = c.Y
	} else {
		o.Max.Y = c.Y
	}
	if i&4 != 0 {
		o.Min.Z = c.Z
	} else {
		o.Max.Z = c.Z
	}
	return o
}

// OctantIndex returns which octant of b (relative to its center) the point p
// falls in, matching the bit layout of Octant.
func (b AABB) OctantIndex(p Vec3) int {
	c := b.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	if p.Z >= c.Z {
		i |= 4
	}
	return i
}
