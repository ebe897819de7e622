package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/serve"
	"octgb/internal/testutil"
)

// probeSlack bounds a hash-only request body: name, 64 hex digits, options.
const probeSlack = 512

func workerByID(t *testing.T, workers []*fabricWorker, id string) *fabricWorker {
	t.Helper()
	for _, fw := range workers {
		if fw.id == id {
			return fw
		}
	}
	t.Fatalf("no worker %q", id)
	return nil
}

func energyVia(t *testing.T, url string, req serve.EnergyRequest) (serve.EnergyResponse, string) {
	t.Helper()
	resp, body := postBody(t, url+"/v1/energy", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/energy: %d %s", url, resp.StatusCode, body)
	}
	var er serve.EnergyResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	return er, resp.Header.Get(WorkerHeader)
}

// TestE2EHashHopColdWarm: through the router a cold molecule costs exactly
// one unknown_molecule probe and one body send to the same worker, and the
// answer is the worker's own; a warm one moves no molecule bytes across the
// hop at all. A probe miss is not a failover.
func TestE2EHashHopColdWarm(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	rt, front, workers := newFabric(t, 2, RouterConfig{HedgeDelay: -1})

	mol := molecule.GenerateProtein("hop", 60, 21)
	req := serve.EnergyRequest{Molecule: serve.FromMolecule(mol), IncludeRadii: true}
	full, _ := json.Marshal(req)

	cold, owner := energyVia(t, front.URL, req)
	fw := workerByID(t, workers, owner)
	if cold.Cache != "miss" {
		t.Errorf("cold cache = %q, want miss", cold.Cache)
	}
	if st := rt.Stats().Requests; st.ProbeMisses != 1 || st.Retries != 0 {
		t.Errorf("cold: probe_misses=%d retries=%d, want 1 and 0", st.ProbeMisses, st.Retries)
	}
	if n, b := fw.requests.Load(), fw.bodyBytes.Load(); n != 2 || b < int64(len(full)) || b > int64(len(full))+probeSlack {
		t.Errorf("cold: worker saw %d requests / %d body bytes, want the probe and one %d-byte body", n, b, len(full))
	}

	direct, _ := energyVia(t, fw.ts.URL, req)
	if direct.Cache != "hit" {
		t.Errorf("direct repeat cache = %q, want hit", direct.Cache)
	}

	before := fw.bodyBytes.Load()
	warm, warmOwner := energyVia(t, front.URL, req)
	if moved := fw.bodyBytes.Load() - before; warmOwner != owner || moved <= 0 || moved > probeSlack {
		t.Errorf("warm: served by %s (cold %s) with %d body bytes read, want only the hash-only probe", warmOwner, owner, moved)
	}
	if warm.Cache != "hit" {
		t.Errorf("warm cache = %q, want hit", warm.Cache)
	}
	// One worker thread: evaluations of one prepared entry repeat bit for bit.
	for name, got := range map[string]serve.EnergyResponse{"cold": cold, "warm": warm} {
		if math.Float64bits(got.Energy) != math.Float64bits(direct.Energy) {
			t.Errorf("%s energy %.17g via the router, %.17g direct", name, got.Energy, direct.Energy)
		}
		if got.Name != "hop" || got.Atoms != mol.N() || len(got.BornRadii) != mol.N() || got.Engine != direct.Engine {
			t.Errorf("%s response name=%q atoms=%d radii=%d engine=%q; direct %+v", name, got.Name, got.Atoms, len(got.BornRadii), got.Engine, direct)
		}
	}
	if st := rt.Stats().Requests; st.ProbeMisses != 1 || st.Retries != 0 {
		t.Errorf("warm: probe_misses=%d retries=%d, want 1 and 0", st.ProbeMisses, st.Retries)
	}

	// An external client may speak the same protocol: hash only, through the
	// router, served from the entry; an unknown hash is relayed as the
	// worker's 404 for the client to act on.
	only := serve.EnergyRequest{Molecule: serve.MoleculeJSON{Name: "mine", Hash: mol.HashString()}}
	if got, by := energyVia(t, front.URL, only); by != owner || got.Cache != "hit" || got.Name != "mine" ||
		math.Float64bits(got.Energy) != math.Float64bits(direct.Energy) {
		t.Errorf("client hash-only: %+v served by %s", got, by)
	}
	only.Molecule.Hash = molecule.GenerateProtein("other", 10, 1).HashString()
	resp, body := postBody(t, front.URL+"/v1/energy", only)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), serve.UnknownMolecule) {
		t.Errorf("client hash-only, unknown: %d %s, want 404 %s", resp.StatusCode, body, serve.UnknownMolecule)
	}
}

// TestE2EHashHopEviction: an entry the worker no longer holds (evicted; a
// restarted worker answers the same way) is a probe miss and a transparent
// re-send to that worker — never a retry, never a client-visible error.
func TestE2EHashHopEviction(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	// A one-byte cache keeps only the newest entry.
	rt, front, _ := newFabricOf(t, 1, RouterConfig{HedgeDelay: -1}, serve.Config{Workers: 2, Threads: 1, MaxCacheBytes: 1})
	a := serve.EnergyRequest{Molecule: serve.FromMolecule(molecule.GenerateProtein("a", 30, 1))}
	b := serve.EnergyRequest{Molecule: serve.FromMolecule(molecule.GenerateProtein("b", 30, 2))}

	first, _ := energyVia(t, front.URL, a)
	energyVia(t, front.URL, b) // evicts a
	again, _ := energyVia(t, front.URL, a)
	if again.Cache != "miss" || math.Float64bits(again.Energy) != math.Float64bits(first.Energy) {
		t.Errorf("after eviction: cache=%q energy %.17g, first %.17g", again.Cache, again.Energy, first.Energy)
	}
	if st := rt.Stats().Requests; st.ProbeMisses != 3 || st.Retries != 0 || st.Forwarded != 3 {
		t.Errorf("probe_misses=%d retries=%d forwarded=%d, want 3, 0, 3", st.ProbeMisses, st.Retries, st.Forwarded)
	}
}

// TestE2EHashHopHedged: hedge legs go through the same send, so they ask by
// hash too — a molecule crosses the hop once per worker that has to build
// it, however many requests and legs.
func TestE2EHashHopHedged(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	rt, front, workers := newFabric(t, 2, RouterConfig{HedgeDelay: time.Millisecond})

	req := serve.EnergyRequest{Molecule: serve.FromMolecule(molecule.GenerateProtein("hedged", 80, 31))}
	full, _ := json.Marshal(req)
	const rounds = 6
	for i := 0; i < rounds; i++ {
		energyVia(t, front.URL, req)
	}
	waitHedgeSettled(t, rt, rt.Stats().Hedge.Launched)
	var moved int64
	for _, fw := range workers {
		moved += fw.bodyBytes.Load()
	}
	if limit := int64(2*len(full) + 2*rounds*probeSlack); moved > limit {
		t.Errorf("%d body bytes crossed the hop in %d hedged rounds of a %d-byte body, want at most one body per worker (%d)", moved, rounds, len(full), limit)
	}
	if st := rt.Stats(); st.Requests.Retries != 0 || st.Requests.ProbeMisses > 2 {
		t.Errorf("hedged: retries=%d probe_misses=%d, want 0 and at most one per worker", st.Requests.Retries, st.Requests.ProbeMisses)
	}

}

// TestE2EHashHopSpilled: a saturated primary sends a cold key to the
// replica, probe first like any other send.
func TestE2EHashHopSpilled(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	rt, front, workers := newFabric(t, 2, RouterConfig{HedgeDelay: -1})
	spill := serve.EnergyRequest{Molecule: serve.FromMolecule(molecule.GenerateProtein("spilled", 40, 32))}
	spillBody, _ := json.Marshal(spill)
	mol, err := spill.Molecule.ToMolecule()
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.mem.Ring().Owners(KeyHash(mol.Hash()), 2)
	workerByID(t, workers, owners[0]).busy.Store(true)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m, ok := rt.mem.Member(owners[0]); ok && m.Load.busy() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never reported busy")
		}
	}
	replica := workerByID(t, workers, owners[1])
	got, by := energyVia(t, front.URL, spill)
	if by != owners[1] || got.Cache != "miss" {
		t.Fatalf("spilled request served by %s cache=%q, want replica %s building it", by, got.Cache, owners[1])
	}
	if n, b := replica.requests.Load(), replica.bodyBytes.Load(); n != 2 || b < int64(len(spillBody)) || b > int64(len(spillBody))+probeSlack {
		t.Errorf("spill: replica saw %d requests / %d body bytes, want the probe and one %d-byte body", n, b, len(spillBody))
	}
	if st := rt.Stats().Requests; st.Spills != 1 || st.ProbeMisses != 1 || st.Retries != 0 {
		t.Errorf("spill: spills=%d probe_misses=%d retries=%d, want 1, 1, 0", st.Spills, st.ProbeMisses, st.Retries)
	}
}

// rawPost sends one POST with a Content-Length the caller picks — honest or
// not — and returns the status and error token of the answer.
func rawPost(t *testing.T, url, path string, declared int, body string) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", path, declared, body)
	if declared > len(body) {
		_ = conn.(*net.TCPConn).CloseWrite() // a short body ends here, not at a read timeout
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e serve.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e) // a 200 has no token
	return resp.StatusCode, e.Error
}

// TestE2EWireContractBothTiers: one decoder, one contract — a body gets the
// same status and token from a worker asked directly and from the router in
// front of it, and they are the documented ones.
func TestE2EWireContractBothTiers(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, front, workers := newFabric(t, 1, RouterConfig{HedgeDelay: -1})

	const row = `[0,0,0,1.5,0.1]`
	mol := `{"atoms":[` + row + `,[3,0,0,1.5,-0.1]]}`
	otherHash := molecule.GenerateProtein("x", 5, 1).HashString()
	// One live session for the frame rows; "{id}" in a path is its ID as
	// the tier asked knows it.
	var created serve.StreamCreateResponse
	resp, body := postBody(t, workers[0].ts.URL+"/v1/stream", serve.StreamCreateRequest{Molecule: serve.FromMolecule(molecule.GenerateProtein("frames", 30, 5))})
	if err := json.Unmarshal(body, &created); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream create: %d %s", resp.StatusCode, body)
	}
	sessionID := map[string]string{"worker": created.SessionID, "router": workers[0].id + sessionIDSep + created.SessionID}
	for _, tc := range []struct {
		name, path, body string
		declared         int // 0: len(body)
		status           int
		token            string
	}{
		{"valid", "/v1/energy", `{"molecule":` + mol + `}`, 0, 200, ""},
		{"trailing whitespace", "/v1/energy", `{"molecule":` + mol + "} \n", 0, 200, ""},
		{"trailing bytes", "/v1/energy", `{"molecule":` + mol + `} x`, 0, 400, "bad_request"},
		{"second value", "/v1/energy", `{"molecule":` + mol + `}{}`, 0, 400, "bad_request"},
		{"three-number row", "/v1/energy", `{"molecule":{"atoms":[[0,0,1.5]]}}`, 0, 400, "bad_request"},
		{"seven-number row", "/v1/energy", `{"molecule":{"atoms":[[0,0,0,1.5,0.1,7,8]]}}`, 0, 400, "bad_request"},
		{"number outside the grammar", "/v1/energy", `{"molecule":{"atoms":[[0,0,0,0x1p1,.5]]}}`, 0, 400, "bad_request"},
		{"negative radius", "/v1/energy", `{"molecule":{"atoms":[[0,0,0,-1.5,0.1]]}}`, 0, 400, "bad_request"},
		{"repeated molecule", "/v1/energy", `{"molecule":` + mol + `,"molecule":` + mol + `}`, 0, 400, "bad_request"},
		{"no atoms, no hash", "/v1/energy", `{"molecule":{"name":"n"}}`, 0, 400, "bad_request"},
		{"malformed hash", "/v1/energy", `{"molecule":{"hash":"abc"}}`, 0, 400, "bad_request"},
		{"hash of other atoms", "/v1/energy", `{"molecule":{"hash":"` + otherHash + `","atoms":[` + row + `]}}`, 0, 400, "bad_request"},
		{"unknown hash", "/v1/energy", `{"molecule":{"hash":"` + otherHash + `"}}`, 0, 404, serve.UnknownMolecule},
		{"short body", "/v1/energy", `{"molecule":{"atoms":[[0,0,`, 4096, 400, "bad_request"},
		{"declared over the limit", "/v1/energy", ``, 300 << 20, 413, "too_large"},
		{"sweep, trailing bytes", "/v1/sweep", `{"ligand":` + mol + `,"poses":[{"t":[9,0,0]}]} x`, 0, 400, "bad_request"},
		{"sweep, hash-only ligand", "/v1/sweep", `{"ligand":{"hash":"` + otherHash + `"},"poses":[{"t":[9,0,0]}]}`, 0, 400, "bad_request"},
		{"sweep, short receptor row", "/v1/sweep", `{"receptor":{"atoms":[[1,2,3,4]]},"ligand":` + mol + `,"poses":[{"t":[9,0,0]}]}`, 0, 400, "bad_request"},
		{"stream create, short row", "/v1/stream", `{"molecule":{"atoms":[[0,0,1.5]]}}`, 0, 400, "bad_request"},
		{"stream create, short body", "/v1/stream", `{"molecule":`, 64, 400, "bad_request"},
		{"stream create, hash only", "/v1/stream", `{"molecule":{"hash":"` + otherHash + `"}}`, 0, 400, "bad_request"},
		// Molecule coordinates are held to the ±1e6 Å of frame moves: past
		// ~1e154 d² overflows and the answer would be 200 with a NaN energy.
		{"coordinate 1e200", "/v1/energy", `{"molecule":{"atoms":[` + row + `,[1e200,0,0,1.5,-0.1]]}}`, 0, 400, "bad_request"},
		{"coordinate just past the bound", "/v1/energy", `{"molecule":{"atoms":[` + row + `,[0,-1000001,0,1.5,-0.1]]}}`, 0, 400, "bad_request"},
		{"coordinate on the bound", "/v1/energy", `{"molecule":{"atoms":[[999997,0,1e6,1.5,0.1],[1e6,0,1e6,1.5,-0.1]]}}`, 0, 200, ""},
		{"sweep, ligand coordinate 1e200", "/v1/sweep", `{"ligand":{"atoms":[[0,0,-1e200,1.5,0.1]]},"poses":[{"t":[9,0,0]}]}`, 0, 400, "bad_request"},
		{"sweep, receptor coordinate 1e200", "/v1/sweep", `{"receptor":{"atoms":[[1e200,0,0,1.5,0.1]]},"ligand":` + mol + `,"poses":[{"t":[9,0,0]}]}`, 0, 400, "bad_request"},
		{"stream create, coordinate 1e200", "/v1/stream", `{"molecule":{"atoms":[` + row + `,[0,1e200,0,1.5,-0.1]]}}`, 0, 400, "bad_request"},
		// Surface sampling is bounded where options are resolved; the deleted
		// "precision" option is an unknown member like any other.
		{"subdiv_level 12", "/v1/energy", `{"molecule":` + mol + `,"options":{"subdiv_level":12}}`, 0, 400, "bad_request"},
		{"degree 9", "/v1/energy", `{"molecule":` + mol + `,"options":{"degree":9}}`, 0, 400, "bad_request"},
		{"subdiv_level 4, degree 5", "/v1/energy", `{"molecule":` + mol + `,"options":{"subdiv_level":4,"degree":5}}`, 0, 200, ""},
		{"precision f32", "/v1/energy", `{"molecule":` + mol + `,"options":{"precision":"f32"}}`, 0, 200, ""},
		{"sweep, subdiv_level 12", "/v1/sweep", `{"ligand":` + mol + `,"poses":[{"t":[9,0,0]}],"options":{"subdiv_level":12}}`, 0, 400, "bad_request"},
		{"stream create, degree 9", "/v1/stream", `{"molecule":` + mol + `,"options":{"degree":9}}`, 0, 400, "bad_request"},
		// Frame bodies obey the same contract, and a refused frame leaves
		// the session usable.
		{"frame, valid", "/v1/stream/{id}/frame", `{"moves":[]}`, 0, 200, ""},
		{"frame, trailing bytes", "/v1/stream/{id}/frame", `{"moves":[]}x`, 0, 400, "bad_request"},
		{"frame, short body", "/v1/stream/{id}/frame", `{"moves":[`, 64, 400, "bad_request"},
		{"frame, declared over the limit", "/v1/stream/{id}/frame", ``, 300 << 20, 413, "too_large"},
		{"frame, coordinate past the bound", "/v1/stream/{id}/frame", `{"moves":[{"i":1,"pos":[1e300,0,0]}]}`, 0, 400, "bad_request"},
		{"frame, valid after the refusals", "/v1/stream/{id}/frame", `{"moves":[{"i":1,"pos":[1,2,3]}]}`, 0, 200, ""},
	} {
		declared := tc.declared
		if declared == 0 {
			declared = len(tc.body)
		}
		for tier, url := range map[string]string{"worker": workers[0].ts.URL, "router": front.URL} {
			path := strings.Replace(tc.path, "{id}", sessionID[tier], 1)
			if status, token := rawPost(t, url, path, declared, tc.body); status != tc.status || token != tc.token {
				t.Errorf("%s via %s: %d %q, want %d %q", tc.name, tier, status, token, tc.status, tc.token)
			}
		}
	}
}
