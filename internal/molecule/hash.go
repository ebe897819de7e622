package molecule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// HashSize is the size of a molecule content hash in bytes.
const HashSize = sha256.Size

// Hash returns a deterministic content hash of the molecule: the atoms are
// encoded in order as five little-endian IEEE-754 float64 words each
// (x, y, z, radius, charge — 40 bytes per atom) and the byte stream is
// digested with SHA-256. The name is deliberately excluded: two molecules
// with identical atoms are the same problem regardless of label, which is
// exactly the identity the serving layer's prepared-problem cache needs.
//
// The hash is order-sensitive by design. Atom order determines octree
// construction and floating-point summation order, so a permuted molecule
// is a different cacheable problem even though its physics is the same;
// canonicalizing the order here would let a cache hit return bitwise
// different energies than a cold run of the caller's molecule.
//
// The encoding is over raw float bits, so +0/-0 and NaN payloads are
// distinguished; Validate rejects NaN charges and non-finite positions, so
// validated molecules never collide on such artifacts.
//
// Hash performs a constant number of heap allocations regardless of atom
// count (see TestHashAllocationBounded).
func (m *Molecule) Hash() [HashSize]byte {
	h := NewHasher()
	for i := range m.Atoms {
		h.Add(&m.Atoms[i])
	}
	return h.Sum()
}

// Hasher computes Hash one atom at a time, for callers that hold the atoms
// in another form: the serving tiers hash wire rows in place.
type Hasher struct {
	h   hash.Hash
	buf [40]byte
}

// NewHasher returns a Hasher over no atoms yet.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Add appends one atom's 40 bytes to the digest.
func (h *Hasher) Add(a *Atom) {
	binary.LittleEndian.PutUint64(h.buf[0:8], math.Float64bits(a.Pos.X))
	binary.LittleEndian.PutUint64(h.buf[8:16], math.Float64bits(a.Pos.Y))
	binary.LittleEndian.PutUint64(h.buf[16:24], math.Float64bits(a.Pos.Z))
	binary.LittleEndian.PutUint64(h.buf[24:32], math.Float64bits(a.Radius))
	binary.LittleEndian.PutUint64(h.buf[32:40], math.Float64bits(a.Charge))
	h.h.Write(h.buf[:])
}

// Sum is the hash of the atoms added so far.
func (h *Hasher) Sum() [HashSize]byte {
	var out [HashSize]byte
	h.h.Sum(out[:0])
	return out
}

// HashString returns Hash as lowercase hex — the form used in cache keys
// and request logs.
func (m *Molecule) HashString() string {
	sum := m.Hash()
	return hex.EncodeToString(sum[:])
}
