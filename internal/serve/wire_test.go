package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"octgb/internal/molecule"
)

// TestReadBodySizedFromContentLength: a declared length is read into one
// exactly-sized buffer and never past it, an unknown length still reads to
// EOF, a declared length over the limit is too_large without a byte read,
// and a body that comes up short is a bad request, not an oversized one.
func TestReadBodySizedFromContentLength(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 13000) // 208 kB, a warm_serve body
	read := func(body io.Reader, declared int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/energy", body)
		r.ContentLength = declared
		return ReadBody(httptest.NewRecorder(), r)
	}

	got, err := read(bytes.NewReader(payload), int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) || cap(got) != len(payload) {
		t.Errorf("declared length: err=%v len=%d cap=%d, want the %d-byte payload in a buffer of its size", err, len(got), cap(got), len(payload))
	}
	got, err = read(bytes.NewReader(payload), -1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("unknown length: err=%v len=%d, want the %d-byte payload", err, len(got), len(payload))
	}
	if got, err = read(strings.NewReader(""), 0); err != nil || len(got) != 0 {
		t.Errorf("empty body: err=%v len=%d", err, len(got))
	}

	// A header that understates the body: only the declared bytes are taken.
	src := bytes.NewReader(payload)
	if got, err = read(src, 100); err != nil || !bytes.Equal(got, payload[:100]) || src.Len() != len(payload)-100 {
		t.Errorf("understated length: err=%v len=%d, %d bytes left unread", err, len(got), src.Len())
	}
	// A header that overstates it within the limit: the body is short, 400.
	_, err = read(bytes.NewReader(payload), int64(len(payload))+1)
	if status, token := RejectStatus(err); err == nil || status != http.StatusBadRequest || token != "bad_request" {
		t.Errorf("short body: err=%v → %d %s, want 400 bad_request", err, status, token)
	}
	// Beyond the limit: 413 without reading (or allocating for) a byte.
	src = bytes.NewReader(payload)
	_, err = read(src, maxBodyBytes+1)
	if status, token := RejectStatus(err); err == nil || status != http.StatusRequestEntityTooLarge || token != "too_large" {
		t.Errorf("declared over the limit: err=%v → %d %s, want 413 too_large", err, status, token)
	}
	if src.Len() != len(payload) {
		t.Errorf("declared over the limit: %d bytes read before the reject", len(payload)-src.Len())
	}

	allocs := testing.AllocsPerRun(20, func() { _, _ = read(bytes.NewReader(payload), int64(len(payload))) })
	unknown := testing.AllocsPerRun(20, func() { _, _ = read(bytes.NewReader(payload), -1) })
	if allocs >= unknown {
		t.Errorf("declared length costs %v allocations, unknown %v: the sized read should be cheaper", allocs, unknown)
	}
}

// The reference decoders: the same structs without the UnmarshalJSON methods,
// so encoding/json decodes them reflectively, molecules included.
type (
	refEnergy EnergyRequest
	refSweep  SweepRequest
	refStream StreamCreateRequest
)

// members calls fn with every member of the JSON object in raw — repeated
// keys included, which a struct decode would fold into the last.
func members(raw []byte, fn func(key string, val json.RawMessage)) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return
	}
	for dec.More() {
		key, err := dec.Token()
		var val json.RawMessage
		if err != nil || dec.Decode(&val) != nil {
			return
		}
		fn(key.(string), val)
	}
}

// stricter reports whether body holds what the wire decoder is documented to
// refuse though encoding/json takes it: in the members named molKeys, an
// atom row that is anything but exactly five numbers (encoding/json fills or
// trims it), or a molecule or one of its name, atoms, hash given twice
// (encoding/json keeps the last).
func stricter(body []byte, molKeys ...string) (found bool) {
	once := func(seen map[string]bool, key string, names ...string) bool {
		for _, n := range names {
			if strings.EqualFold(key, n) {
				found = found || seen[n]
				seen[n] = true
				return true
			}
		}
		return false
	}
	mols := map[string]bool{}
	members(body, func(key string, mol json.RawMessage) {
		if !once(mols, key, molKeys...) {
			return
		}
		fields := map[string]bool{}
		members(mol, func(key string, atoms json.RawMessage) {
			var rows []json.RawMessage
			if !once(fields, key, "atoms", "name", "hash") || !strings.EqualFold(key, "atoms") || json.Unmarshal(atoms, &rows) != nil {
				return
			}
			for _, row := range rows {
				var nums []json.RawMessage
				if json.Unmarshal(row, &nums) != nil || len(nums) != 5 {
					found = true
				}
				for _, n := range nums {
					if string(n) == "null" {
						found = true
					}
				}
			}
		})
	})
	return found
}

// sameBits is reflect.DeepEqual with float64 compared by bit pattern (-0 ≠ 0).
func sameBits(a, b any) bool {
	var cmp func(x, y reflect.Value) bool
	cmp = func(x, y reflect.Value) bool {
		switch x.Kind() {
		case reflect.Float64:
			return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
		case reflect.Pointer:
			if x.IsNil() || y.IsNil() {
				return x.IsNil() == y.IsNil()
			}
			return cmp(x.Elem(), y.Elem())
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				if !cmp(x.Field(i), y.Field(i)) {
					return false
				}
			}
			return true
		case reflect.Slice:
			if x.IsNil() != y.IsNil() || x.Len() != y.Len() {
				return false
			}
			fallthrough
		case reflect.Array:
			for i := 0; i < x.Len(); i++ {
				if !cmp(x.Index(i), y.Index(i)) {
					return false
				}
			}
			return true
		default:
			return reflect.DeepEqual(x.Interface(), y.Interface())
		}
	}
	return cmp(reflect.ValueOf(a), reflect.ValueOf(b))
}

// checkDecode holds one body against the decoder's whole contract for all
// three request types: never a panic, the atoms allocation within the body
// bound, nothing accepted that encoding/json refuses (so no number outside
// the RFC 8259 grammar), bit-identical values where both accept, and a
// refusal of something encoding/json takes only under a documented rule.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	capOK := func(mols ...*MoleculeJSON) {
		for _, m := range mols {
			if m != nil && cap(m.Atoms) > len(body)/minRowBytes {
				t.Errorf("atoms capacity %d for a %d-byte body", cap(m.Atoms), len(body))
			}
		}
	}
	verdict := func(name string, err, refErr error, got, ref any, molKeys ...string) {
		switch {
		case err == nil && refErr != nil:
			t.Errorf("%s: accepted what encoding/json refuses (%v): %q", name, refErr, body)
		case err == nil && !sameBits(got, ref):
			t.Errorf("%s: decoded %+v, encoding/json %+v: %q", name, got, ref, body)
		case err != nil && refErr == nil && !stricter(body, molKeys...):
			t.Errorf("%s: refused (%v) what encoding/json takes, with no row short, long or null and no molecule member repeated: %q", name, err, body)
		}
	}

	var e EnergyRequest
	var re refEnergy
	err, refErr := e.UnmarshalJSON(body), json.Unmarshal(body, &re)
	capOK(&e.Molecule)
	verdict("energy", err, refErr, e, EnergyRequest(re), "molecule")
	if err == nil {
		checkTiersResolve(t, body, &e.Molecule)
	}

	var s SweepRequest
	var rs refSweep
	err, refErr = s.UnmarshalJSON(body), json.Unmarshal(body, &rs)
	capOK(s.Receptor, &s.Ligand)
	verdict("sweep", err, refErr, s, SweepRequest(rs), "receptor", "ligand")
	if err == nil {
		checkTiersResolve(t, body, s.Receptor, &s.Ligand)
	}

	var c StreamCreateRequest
	var rc refStream
	err, refErr = c.UnmarshalJSON(body), json.Unmarshal(body, &rc)
	capOK(&c.Molecule)
	verdict("stream", err, refErr, c, StreamCreateRequest(rc), "molecule")
	if err == nil {
		checkTiersResolve(t, body, &c.Molecule)
	}
}

// checkTiersResolve holds the router's in-place ResolveHash to the worker's
// Resolve on each decoded molecule: the same verdict, answered with the
// same status and token, and on acceptance the same hash, which is
// molecule.Hash of the molecule the worker builds.
func checkTiersResolve(t *testing.T, body []byte, mols ...*MoleculeJSON) {
	t.Helper()
	for _, mj := range mols {
		if mj == nil {
			continue
		}
		mol, sum, err := mj.Resolve()
		rsum, rerr := mj.ResolveHash()
		switch {
		case (err == nil) != (rerr == nil):
			t.Errorf("worker Resolve %v, router ResolveHash %v: %q", err, rerr, body)
		case err != nil:
			ws, wt := RejectStatus(err)
			rs, rt := RejectStatus(rerr)
			if ws != rs || wt != rt {
				t.Errorf("worker answers %d %s, router %d %s: %q", ws, wt, rs, rt, body)
			}
		case sum != rsum:
			t.Errorf("worker hash %x, router hash %x: %q", sum, rsum, body)
		case mol != nil && mol.Hash() != sum:
			t.Errorf("resolved hash %x, built molecule's %x: %q", sum, mol.Hash(), body)
		}
	}
}

// decodeSeeds are bodies worth holding against checkDecode: the three
// request shapes, encoding/json's corner cases (folded and repeated keys,
// nulls, escapes, unknown members) and the inputs the decoder must refuse.
var decodeSeeds = []string{
	`{"molecule":{"name":"m","atoms":[[1,2,3,1.5,0.25],[-0.0,1e-3,2E+2,1.25,-1]]},"options":{"born_eps":0.5,"precision":"f32"},"deadline_ms":250,"include_radii":true}`,
	`{"receptor":{"name":"r","atoms":[[0,0,0,2,1]]},"ligand":{"atoms":[[9,0,0,1,-1]]},"poses":[{"t":[1,2,3]},{"rot":[1,0,0,0,1,0,0,0,1],"t":[0,0,0]}],"exact_surface":true}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]]},"options":{"born_eps":0.7,"resweep_every":8,"min_slack":0.5},"deadline_ms":9}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]]},"options":{"epol_eps":0.5,"approximate_math":true}}`,
	`{"molecule":{"hash":"00ff","name":"h"},"deadline_ms":1}`,
	" \n{ \"molecule\" : { \"atoms\" : [ [ 1 , 2 , 3 , 4 , 5 ] , [ 6 , 7 , 8 , 9 , 10 ] ] } } \r\n",
	`{"MOLECULE":{"ATOMS":[[1,2,3,4,5]],"Name":"x","HASH":"y"},"Deadline_MS":3}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]],"name":"é\n😀\ud800"}}`,
	`{"molecule":{"name":"a","atoms":[[1,2,3,4,5]]},"molecule":{"atoms":[[5,4,3,2,1],[0,0,0,1,0]]},"deadline_ms":1,"deadline_ms":2}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]],"atoms":null,"name":null,"hash":null,"extra":{"deep":[1,{"x":"]}"}]}},"unknown":[{"a":"}"}],"options":null}`,
	`{"receptor":null,"ligand":{"atoms":[]},"poses":[]}`,
	`{"receptor":{"atoms":[[1,1,1,1,1]]},"receptor":null,"ligand":null}`,
	`{"molecule":null}`, `null`, `{}`, ``, `5`, `[]`, `{"molecule":[]}`, `{"molecule":{"atoms":{}}}`, `{"molecule":{"name":5}}`,
	// Refused: rows that are not exactly five numbers, repeats, trailing data.
	`{"molecule":{"atoms":[[1,2,3]]}}`, `{"molecule":{"atoms":[[1,2,3,4,5,6,7]]}}`, `{"molecule":{"atoms":[[1,2,3,4,5,"x"]]}}`,
	`{"molecule":{"atoms":[null]}}`, `{"molecule":{"atoms":[[1,2,null,4,5]]}}`, `{"molecule":{"atoms":[[]]}}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]]}} x`, `{"molecule":{"atoms":[[1,2,3,4,5]]}}{}`,
	// Refused: everything strconv.ParseFloat takes beyond the JSON grammar.
	`{"molecule":{"atoms":[[0x1p-2,2,3,4,5]]}}`, `{"molecule":{"atoms":[[Inf,2,3,4,5]]}}`, `{"molecule":{"atoms":[[1_0,2,3,4,5]]}}`,
	`{"molecule":{"atoms":[[+1,2,3,4,5]]}}`, `{"molecule":{"atoms":[[.5,2,3,4,5]]}}`, `{"molecule":{"atoms":[[1.,2,3,4,5]]}}`,
	`{"molecule":{"atoms":[[01,2,3,4,5]]}}`, `{"molecule":{"atoms":[[1e,2,3,4,5]]}}`, `{"molecule":{"atoms":[[-,2,3,4,5]]}}`,
	`{"molecule":{"atoms":[[NaN,2,3,4,5]]}}`, `{"molecule":{"atoms":[[1e999,2,3,4,5]]}}`, `{"molecule":{"atoms":[["1",2,3,4,5]]}}`,
	// Decoded, then refused by Resolve: a coordinate whose square overflows.
	`{"molecule":{"atoms":[[1e200,0,0,1.5,0.1],[0,0,0,1.5,-0.1]]}}`,
	`{"receptor":{"atoms":[[0,0,0,2,1]]},"ligand":{"atoms":[[0,-1e200,0,1,-1]]},"poses":[{"t":[1,2,3]}]}`,
	`{"molecule":{"atoms":[[0,0,1e200,1.5,0.1]]},"options":{"resweep_every":8}}`,
	// Decoded, then refused by both tiers' per-atom rules or hash check.
	`{"molecule":{"atoms":[[0,0,0,0,1]]}}`, `{"molecule":{"atoms":[[0,0,0,1,1e4]]}}`, `{"molecule":{"atoms":[[0,2e6,0,1,1]]}}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]],"hash":"` + strings.Repeat("ab", 32) + `"}}`, `{"molecule":{"atoms":[]}}`,
	// Refused: broken structure.
	`{"molecule":{"atoms":[[1,2,3,4,5]`, `{"molecule":{"atoms":[[1,2,3,4,5],]}}`, `{"molecule":{"atoms":[[1,2,3,4,5]],}}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]] "name":"x"}}`, `{"molecule":{"name":"unterminated}}`, `{"molecule" {"atoms":[]}}`,
	`{"molecule":{"atoms":[[1,2,3,4,5]]},"options":{"born_eps":"x"}}`, `{"molecule":{"atoms":[[1,2,3,4,5]],"extra":tru}}`,
	`{"molecule":{"atoms":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[`, `{"a":nullnull}`, `{"molecule":nullx}`,
}

// TestDecodeContract runs the seeds through checkDecode (the fuzz target
// does the same in seed mode; this keeps the table in `go test -run`), then
// pins the verdicts the contract names one by one.
func TestDecodeContract(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"molecule":{"atoms":[[1,2,3,4,5]]}}`, true},
		{`{"molecule":{"atoms":[[1,2,3,4,5]]}} ` + "\n", true},
		{`{"molecule":{"atoms":[[-0,0.5,1e2,1E-2,2.5e+1]]}}`, true},
		{`{"molecule":{"atoms":[[1,2,3]]}}`, false},
		{`{"molecule":{"atoms":[[1,2,3,4,5,6]]}}`, false},
		{`{"molecule":{"atoms":[[1,2,3,4,5]],"atoms":[]}}`, false},
		{`{"molecule":{"atoms":[[1,2,3,4,5]]},"Molecule":null}`, false},
		{`{"molecule":{"atoms":[[1,2,3,4,5]]}}}`, false},
		{`{"molecule":{"atoms":[[1,2,3,4,5]]}} {"molecule":{}}`, false},
		{`{"molecule":{"atoms":[[0x1p-2,2,3,4,5]]}}`, false},
		{`{"molecule":{"atoms":[[Inf,2,3,4,5]]}}`, false},
		{`{"molecule":{"atoms":[[1_0,2,3,4,5]]}}`, false},
		{`{"molecule":{"atoms":[[+1,2,3,4,5]]}}`, false},
		{`{"molecule":{"atoms":[[.5,2,3,4,5]]}}`, false},
		{`{"molecule":{"atoms":[[1.,2,3,4,5]]}}`, false},
	} {
		var req EnergyRequest
		if err := req.UnmarshalJSON([]byte(tc.body)); (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want accepted=%v", tc.body, err, tc.ok)
		}
		// The same verdict through encoding/json's front door.
		if err := json.Unmarshal([]byte(tc.body), &req); (err == nil) != tc.ok {
			t.Errorf("json.Unmarshal %s: err=%v, want accepted=%v", tc.body, err, tc.ok)
		}
	}

	// A full-size body round-trips bit for bit with one atoms allocation.
	mol := molecule.GenerateProtein("rt", 2500, 3)
	body, err := json.Marshal(EnergyRequest{Molecule: FromMolecule(mol), DeadlineMS: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, body)
	var req EnergyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if !sameBits(req.Molecule, FromMolecule(mol)) || req.DeadlineMS != 7 {
		t.Fatal("round trip changed the request")
	}
	if cap(req.Molecule.Atoms) != mol.N() {
		t.Errorf("atoms capacity %d for %d rows: want the one exact allocation", cap(req.Molecule.Atoms), mol.N())
	}
}

// TestResolve: atoms are hashed here and a hash sent along is only ever
// checked against them; a hash alone resolves to no molecule.
func TestResolve(t *testing.T) {
	mol := molecule.GenerateProtein("r", 20, 4)
	mj := FromMolecule(mol)
	got, sum, err := mj.Resolve()
	if err != nil || got.N() != mol.N() || sum != mol.Hash() {
		t.Fatalf("atoms only: mol=%v err=%v, hash match %v", got, err, sum == mol.Hash())
	}
	for _, h := range []string{mol.HashString(), strings.ToUpper(mol.HashString())} {
		mj.Hash = h
		if _, sum, err = mj.Resolve(); err != nil || sum != mol.Hash() {
			t.Errorf("atoms + own hash %s: %v", h, err)
		}
		only := MoleculeJSON{Name: "r", Hash: h}
		if got, sum, err = only.Resolve(); err != nil || got != nil || sum != mol.Hash() {
			t.Errorf("hash only %s: mol=%v err=%v", h, got, err)
		}
		if _, err := only.resolveAtoms(); err == nil {
			t.Errorf("hash only accepted where atoms are required")
		}
	}
	other := molecule.GenerateProtein("o", 20, 5)
	mj.Hash = other.HashString()
	if _, _, err = mj.Resolve(); err == nil {
		t.Error("atoms with another molecule's hash accepted")
	}
	for _, h := range []string{"abc", strings.Repeat("g", 64), mol.HashString() + "00", mol.HashString()[:62]} {
		for _, mj := range []MoleculeJSON{{Hash: h}, {Hash: h, Atoms: FromMolecule(mol).Atoms}} {
			if _, _, err := mj.Resolve(); err == nil {
				t.Errorf("malformed hash %q accepted (atoms: %v)", h, mj.Atoms != nil)
			}
		}
	}
	empty := MoleculeJSON{}
	if _, _, err := empty.Resolve(); err == nil {
		t.Error("molecule with neither atoms nor hash accepted")
	}
	bad := MoleculeJSON{Atoms: [][5]float64{{0, 0, 0, -1, 0}}}
	if _, _, err := bad.Resolve(); err == nil {
		t.Error("negative radius accepted")
	}
	if status, token := RejectStatus(errors.New("any decode error")); status != http.StatusBadRequest || token != "bad_request" {
		t.Errorf("decode error → %d %s", status, token)
	}
}

// FuzzDecodeEnergyRequest fuzzes the wire boundary of all three
// molecule-bearing requests against encoding/json (see checkDecode).
func FuzzDecodeEnergyRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// warmBody is a warm_serve request: 2 500 atoms, ~208 kB.
func warmBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := json.Marshal(EnergyRequest{Molecule: FromMolecule(molecule.GenerateProtein("warm", 2500, 1)), DeadlineMS: 120000})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkDecodeEnergyRequest is the servers' decode of a warm_serve body:
// direct is what the router and a worker pay (ISSUE 21 bound: 2 ms),
// unmarshal is the same decoder behind json.Unmarshal's validating pre-scan,
// the path cmd/bench's serve.decode_ms probe takes.
func BenchmarkDecodeEnergyRequest(b *testing.B) {
	body := warmBody(b)
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req EnergyRequest
			if err := req.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req EnergyRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
