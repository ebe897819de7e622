package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"octgb/internal/molecule"
)

// This file is the wire boundary of the molecule-bearing requests
// (/v1/energy, /v1/sweep, POST /v1/stream) on both tiers: the router and the
// workers read a body with ReadRequest and so agree byte for byte on what a
// valid request is. A 2 500-atom body is ~200 kB of which ~100 bytes are not
// atom rows, so the rows are scanned by hand — no reflection, one slice
// sized before the first row — and only what is left of the envelope goes
// through encoding/json.
//
// Against encoding/json the decoder is stricter in three documented ways
// and otherwise identical (the same float64 bits for the same digits — see
// number, in wirenum.go — and the same case-folded key matching): an atom
// row is exactly five JSON numbers (encoding/json zero-fills a short row
// and drops a sixth number); a molecule, and each of its name, atoms and
// hash, appears at most once (encoding/json keeps the last, and every
// repeat here would cost another atoms allocation); and nothing but
// whitespace may follow the request object.

// maxBodyBytes bounds a request body on both tiers (a 200k-atom molecule
// is ~20 MB of JSON; leave generous headroom).
const maxBodyBytes = 256 << 20

// maxSubdivLevel and maxDegree bound the surface sampling a request (or
// epolserve's flags) may ask for. Each subdivision level multiplies every
// atom's icosphere by four and each distinct (level, degree) template stays
// resident for the life of the process, so an unchecked level lets a
// ~90-byte body allocate gigabytes; Dunavant rules exist for degrees 1–5.
const (
	maxSubdivLevel = 4
	maxDegree      = 5
)

// CheckSampling refuses surface sampling parameters outside the served
// range. Zero is "unset" for both, as on the wire.
func CheckSampling(subdivLevel, degree int) error {
	if subdivLevel < 0 || subdivLevel > maxSubdivLevel {
		return fmt.Errorf("subdiv_level %d outside [0, %d]", subdivLevel, maxSubdivLevel)
	}
	if degree < 0 || degree > maxDegree {
		return fmt.Errorf("degree %d outside [1, %d]", degree, maxDegree)
	}
	return nil
}

// UnknownMolecule is the token of the 404 a worker answers a hash-only
// request with when it does not hold the hash: the sender's cue to send the
// atoms.
const UnknownMolecule = "unknown_molecule"

// ReadBody reads the request body once. A declared Content-Length sizes the
// buffer — io.ReadAll's doubling growth allocates about four times the body
// — and a declared length over the limit is refused unread. The read stays
// behind MaxBytesReader and takes at most the declared bytes, so a lying
// header makes the server neither allocate past the limit nor read past the
// declared length; a body shorter than declared is an error.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxBodyBytes:
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	case n >= 0:
		body = make([]byte, n)
		_, err = io.ReadFull(src, body)
	default: // unknown length (chunked)
		body, err = io.ReadAll(src)
	}
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return body, nil
}

// ReadRequest reads the body with ReadBody and decodes it into req, one of
// the molecule-bearing request types. The body is returned for replay.
func ReadRequest(w http.ResponseWriter, r *http.Request, req json.Unmarshaler) ([]byte, error) {
	body, err := ReadBody(w, r)
	if err != nil {
		return nil, err
	}
	return body, req.UnmarshalJSON(body)
}

// RejectStatus maps a ReadRequest or Resolve error onto the status and token
// both tiers answer with: only a body over the limit is 413 too_large; a
// short or aborted body, malformed JSON and an invalid molecule are all 400
// bad_request.
func RejectStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, "too_large"
	}
	return http.StatusBadRequest, "bad_request"
}

// Resolve validates the wire molecule and returns its content hash — the
// ring key and the molecule part of the prepared-cache key. With atoms it
// builds and validates the molecule and hashes the atoms itself: a hash
// sent along is checked, never trusted. Without atoms the hash stands for
// a molecule the receiver may already hold and the molecule returned is nil.
func (mj *MoleculeJSON) Resolve() (*molecule.Molecule, [molecule.HashSize]byte, error) {
	return mj.resolve(true)
}

// ResolveHash is Resolve without the molecule: each wire row is checked and
// hashed in place, with the same rules and the same bytes, so the router
// keys a request exactly as the worker will without building what only the
// worker needs.
func (mj *MoleculeJSON) ResolveHash() ([molecule.HashSize]byte, error) {
	_, sum, err := mj.resolve(false)
	return sum, err
}

// resolve is Resolve, building the molecule only when build is set.
func (mj *MoleculeJSON) resolve(build bool) (*molecule.Molecule, [molecule.HashSize]byte, error) {
	var claimed [molecule.HashSize]byte
	if mj.Hash != "" {
		if len(mj.Hash) != hex.EncodedLen(len(claimed)) {
			return nil, claimed, fmt.Errorf("hash: want %d hex digits", hex.EncodedLen(len(claimed)))
		}
		if _, err := hex.Decode(claimed[:], []byte(mj.Hash)); err != nil {
			return nil, claimed, fmt.Errorf("hash: %w", err)
		}
		if len(mj.Atoms) == 0 {
			return nil, claimed, nil
		}
	}
	var mol *molecule.Molecule
	var sum [molecule.HashSize]byte
	var err error
	if build {
		if mol, err = mj.ToMolecule(); err == nil {
			sum = mol.Hash()
		}
	} else {
		sum, err = mj.hashRows()
	}
	if err != nil {
		return nil, claimed, err
	}
	if mj.Hash != "" && sum != claimed {
		return nil, sum, errors.New("hash does not match atoms")
	}
	return mol, sum, nil
}

// hashRows is ToMolecule followed by Hash without the molecule: each row is
// checked and hashed where it lies.
func (mj *MoleculeJSON) hashRows() ([molecule.HashSize]byte, error) {
	if len(mj.Atoms) == 0 {
		return [molecule.HashSize]byte{}, errors.New("empty molecule")
	}
	h := molecule.NewHasher()
	var a molecule.Atom
	for i := range mj.Atoms {
		if err := mj.atom(i, &a); err != nil {
			return [molecule.HashSize]byte{}, err
		}
		h.Add(&a)
	}
	return h.Sum(), nil
}

// resolveAtoms is Resolve for the endpoints that are built from coordinates
// (sweeps, sessions): there a hash without atoms is an error.
func (mj *MoleculeJSON) resolveAtoms() (*molecule.Molecule, error) {
	mol, _, err := mj.Resolve()
	if err == nil && mol == nil {
		err = errors.New("a hash without atoms is served on /v1/energy only")
	}
	return mol, err
}

// UnmarshalJSON decodes the request with the hand-rolled molecule decoder.
func (r *EnergyRequest) UnmarshalJSON(b []byte) error {
	type envelope EnergyRequest // same fields, no UnmarshalJSON: the remainder cannot recurse
	return decodeRequest(b, (*envelope)(r), molField{key: "molecule", val: &r.Molecule})
}

// UnmarshalJSON decodes the request with the hand-rolled molecule decoder.
func (r *SweepRequest) UnmarshalJSON(b []byte) error {
	type envelope SweepRequest
	return decodeRequest(b, (*envelope)(r),
		molField{key: "receptor", ptr: &r.Receptor}, molField{key: "ligand", val: &r.Ligand})
}

// UnmarshalJSON decodes the request with the hand-rolled molecule decoder.
func (r *StreamCreateRequest) UnmarshalJSON(b []byte) error {
	type envelope StreamCreateRequest
	return decodeRequest(b, (*envelope)(r), molField{key: "molecule", val: &r.Molecule})
}

// molField binds a top-level key to the molecule it decodes into: val for a
// value field, ptr for an optional one (null clears it, an object allocates).
type molField struct {
	key string
	val *MoleculeJSON
	ptr **MoleculeJSON
}

// decodeRequest walks the request object: the molecule fields are decoded
// here, every other member is copied into a remainder object (~100 bytes)
// that encoding/json decodes into envelope. JSON null is a no-op, as for
// every Unmarshaler.
func decodeRequest(b []byte, envelope any, mols ...molField) error {
	d := wireDec{b: b}
	d.ws()
	if !d.null() {
		keys := make([]string, len(mols))
		for k, f := range mols {
			keys[k] = f.key
		}
		rest, err := d.object(keys, func(k int) error {
			f := mols[k]
			switch {
			case f.ptr == nil:
				return d.molecule(f.val)
			case d.null():
				*f.ptr = nil
				return nil
			}
			*f.ptr = new(MoleculeJSON)
			return d.molecule(*f.ptr)
		})
		if err != nil {
			return err
		}
		if err := json.Unmarshal(rest, envelope); err != nil {
			return err
		}
	}
	d.ws()
	if d.i != len(d.b) {
		return d.errorf("trailing data after the request object")
	}
	return nil
}

// wireDec is a cursor over a request body.
type wireDec struct {
	b []byte
	i int
}

func (d *wireDec) errorf(format string, args ...any) error {
	return fmt.Errorf("request body offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (d *wireDec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *wireDec) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *wireDec) null() bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		return false
	}
	d.i += 4
	return true
}

// object walks one JSON object. A member whose key folds to names[k] is
// decoded by take(k), called with the cursor on its value, and may appear
// once. Every other member is copied verbatim into the returned object,
// which the caller hands to encoding/json — so whatever this file does not
// parse itself is still checked, by the standard decoder.
func (d *wireDec) object(names []string, take func(k int) error) ([]byte, error) {
	if !d.eat('{') {
		return nil, d.errorf("want an object")
	}
	rest := []byte{'{'}
	seen := make([]bool, len(names))
	for first := true; ; first = false {
		d.ws()
		if first && d.eat('}') {
			break
		}
		rawKey, err := d.str()
		if err != nil {
			return nil, err
		}
		var key string
		if err := json.Unmarshal(rawKey, &key); err != nil {
			return nil, d.errorf("object key: %v", err)
		}
		d.ws()
		if !d.eat(':') {
			return nil, d.errorf("want ':' after object key")
		}
		d.ws()
		k := slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(key, n) })
		switch {
		case k < 0:
			start := d.i
			if err := d.skip(); err != nil {
				return nil, err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(append(append(rest, rawKey...), ':'), d.b[start:d.i]...)
		case seen[k]:
			return nil, d.errorf("%s: repeated", names[k])
		default:
			seen[k] = true
			if err := take(k); err != nil {
				return nil, err
			}
		}
		d.ws()
		if d.eat('}') {
			break
		}
		if !d.eat(',') {
			return nil, d.errorf("want ',' or '}' in object")
		}
	}
	return append(rest, '}'), nil
}

// str consumes a string and returns it raw, quotes included. The content is
// not checked here: every string goes to encoding/json.
func (d *wireDec) str() ([]byte, error) {
	start := d.i
	if !d.eat('"') {
		return nil, d.errorf("want a string")
	}
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			d.i++
			return d.b[start:d.i], nil
		case '\\':
			d.i++
		}
		d.i++
	}
	d.i = len(d.b)
	return nil, d.errorf("unterminated string")
}

// skip moves past one value without checking it beyond bracket balance; the
// caller passes the skipped bytes to encoding/json.
func (d *wireDec) skip() error {
	depth := 0
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			if _, err := d.str(); err != nil {
				return err
			}
			if depth == 0 {
				return nil
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return nil // the enclosing object's bracket ends a bare value
			}
			if depth--; depth == 0 {
				d.i++
				return nil
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return nil
			}
		}
		d.i++
	}
	return d.errorf("unexpected end of body")
}

// text decodes a string member into dst; null leaves dst alone.
func (d *wireDec) text(dst *string) error {
	if d.null() {
		return nil
	}
	raw, err := d.str()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

// molecule decodes one molecule object into mj, setting only the members
// present; null is a no-op.
func (d *wireDec) molecule(mj *MoleculeJSON) error {
	if d.null() {
		return nil
	}
	rest, err := d.object([]string{"atoms", "name", "hash"}, func(k int) error {
		switch k {
		case 0:
			return d.atoms(&mj.Atoms)
		case 1:
			return d.text(&mj.Name)
		}
		return d.text(&mj.Hash)
	})
	if err != nil {
		return err
	}
	if !json.Valid(rest) {
		return d.errorf("malformed molecule member")
	}
	return nil
}

// minRowBytes is the shortest atom row with its separator: "[0,0,0,0,0],".
const minRowBytes = 12

// atoms decodes the [[x,y,z,r,q],…] array. The slice is allocated once:
// every row opens with one '[', so the count of '[' in what is left of the
// body bounds the rows from above, as does the length over the shortest row
// — whatever the bytes turn out to be, the allocation is within 40/12 of the
// body, and a request reaches here at most once per molecule.
func (d *wireDec) atoms(dst *[][5]float64) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if !d.eat('[') {
		return d.errorf("atoms: want an array")
	}
	left := d.b[d.i:]
	atoms := make([][5]float64, 0, min(bytes.Count(left, []byte{'['}), len(left)/minRowBytes))
	d.ws()
	if d.eat(']') {
		*dst = atoms
		return nil
	}
	for {
		d.ws()
		if !d.eat('[') {
			return d.errorf("atom %d: want [x,y,z,radius,charge]", len(atoms))
		}
		var row [5]float64
		for k := range row {
			d.ws()
			v, err := d.number()
			if err != nil {
				return err
			}
			row[k] = v
			d.ws()
			end := byte(',')
			if k == len(row)-1 {
				end = ']'
			}
			if !d.eat(end) {
				return d.errorf("atom %d: want exactly 5 numbers", len(atoms))
			}
		}
		atoms = append(atoms, row)
		d.ws()
		if d.eat(']') {
			*dst = atoms
			return nil
		}
		if !d.eat(',') {
			return d.errorf("want ',' or ']' after atom %d", len(atoms)-1)
		}
	}
}
