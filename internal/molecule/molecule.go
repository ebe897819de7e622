// Package molecule defines the molecular inputs of the library — atoms with
// positions, van-der-Waals radii and partial charges — together with
// deterministic synthetic generators that stand in for the paper's
// benchmark data (ZDock Benchmark 2.0 proteins, the Cucumber Mosaic Virus
// shell and the Blue Tongue Virus), and a PQR-style text format for
// persisting molecules.
package molecule

import (
	"fmt"

	"octgb/internal/geom"
)

// Atom is a single atom: position, van-der-Waals radius (Å) and partial
// charge (elementary charges).
type Atom struct {
	Pos    geom.Vec3
	Radius float64
	Charge float64
}

// Molecule is a collection of atoms plus a name used in reports.
type Molecule struct {
	Name  string
	Atoms []Atom
}

// N returns the number of atoms.
func (m *Molecule) N() int { return len(m.Atoms) }

// Bounds returns the axis-aligned bounding box of the atom centers (not
// inflated by radii).
func (m *Molecule) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for i := range m.Atoms {
		b = b.ExpandPoint(m.Atoms[i].Pos)
	}
	return b
}

// TotalCharge returns the sum of partial charges.
func (m *Molecule) TotalCharge() float64 {
	var q float64
	for i := range m.Atoms {
		q += m.Atoms[i].Charge
	}
	return q
}

// Centroid returns the unweighted geometric center of the atom positions.
func (m *Molecule) Centroid() geom.Vec3 {
	if len(m.Atoms) == 0 {
		return geom.Vec3{}
	}
	var c geom.Vec3
	for i := range m.Atoms {
		c = c.Add(m.Atoms[i].Pos)
	}
	return c.Scale(1 / float64(len(m.Atoms)))
}

// Transform returns a copy of m with the rigid transform applied to every
// atom position. Radii and charges are unchanged. This is the docking-reuse
// path from the paper (§IV-C): move/rotate the molecule, recompute energy.
func (m *Molecule) Transform(t geom.Rigid) *Molecule {
	out := &Molecule{Name: m.Name, Atoms: make([]Atom, len(m.Atoms))}
	for i, a := range m.Atoms {
		a.Pos = t.Apply(a.Pos)
		out.Atoms[i] = a
	}
	return out
}

// Merge returns a new molecule containing the atoms of both inputs; used to
// form ligand–receptor complexes.
func Merge(name string, ms ...*Molecule) *Molecule {
	out := &Molecule{Name: name}
	for _, m := range ms {
		out.Atoms = append(out.Atoms, m.Atoms...)
	}
	return out
}

// Validate checks structural invariants: positive radii, finite positions
// and charges. It returns the first violation found.
func (m *Molecule) Validate() error {
	for i := range m.Atoms {
		if err := CheckAtom(m.Name, i, &m.Atoms[i]); err != nil {
			return err
		}
	}
	return nil
}

// CheckAtom is Validate for atom i of the molecule called name: a
// non-finite position, a non-positive radius, or a NaN charge or one
// outside ±1e3 is an error. Callers that hold the atoms in another form
// (the serving tiers' wire rows) check them with it one at a time.
func CheckAtom(name string, i int, a *Atom) error {
	switch {
	case !a.Pos.IsFinite():
		return fmt.Errorf("molecule %q: atom %d has non-finite position", name, i)
	case a.Radius <= 0:
		return fmt.Errorf("molecule %q: atom %d has non-positive radius %g", name, i, a.Radius)
	case a.Charge != a.Charge || a.Charge > 1e3 || a.Charge < -1e3:
		return fmt.Errorf("molecule %q: atom %d has bad charge %g", name, i, a.Charge)
	}
	return nil
}
