package fabric

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
)

// DefaultReplicas is the replication factor R: hot keys and failover both
// use the key's first R distinct ring owners.
const DefaultReplicas = 2

// sessionIDSep joins a worker ID and a worker-local session ID into the
// routed session ID clients hold ("worker~s-abc-0001"). Worker IDs cannot
// contain it (validWorkerID) and worker-minted session IDs never do.
const sessionIDSep = "~"

// WorkerHeader is set on every proxied response: which shard served it.
// The load generator's router mode reads it for per-shard attribution.
const WorkerHeader = "X-Octgb-Worker"

// RouterConfig configures the front-end router tier.
type RouterConfig struct {
	// Addr is the HTTP listen address (":8700" when empty).
	Addr string
	// MembershipAddr is the worker registration listener (":8701" when
	// empty).
	MembershipAddr string
	// Replicas is the replication factor R (DefaultReplicas when 0).
	Replicas int
	// VNodes is the ring's virtual-node count per worker.
	VNodes int
	// Timeout is the membership heartbeat timeout.
	Timeout time.Duration
	// HedgeDelay fixes the hedging delay. 0 derives it per request from
	// the p95 of observed upstream latency (the adaptive default);
	// negative disables hedging.
	HedgeDelay time.Duration
	// Client performs upstream requests (a pooled default when nil).
	Client *http.Client
	// Observe mounts /metrics, which renders the router's own registry and
	// then the observer's; nil leaves /metrics off. The router counts
	// with or without it.
	Observe *obs.Observer
	// Logger receives lifecycle logs; nil is silent.
	Logger *log.Logger
}

// upstreamMetric is the upstream latency family, one series per worker;
// hedgeMetric is the same observations across all workers, the sample the
// p95-derived hedge delay is taken from. Two families, so a query over
// either counts every upstream request once.
const (
	upstreamMetric = "octgb_fabric_upstream_seconds"
	upstreamHelp   = "Upstream request latency by worker shard."
	hedgeMetric    = "octgb_fabric_hedge_upstream_seconds"
	hedgeHelp      = "Upstream request latency across all workers: the hedge delay's p95 sample."
)

// routerCounters are the router's counter handles, resolved once in
// newRouterCounters on the router's registry; /stats and /metrics read the
// same ones.
type routerCounters struct {
	forwarded      *obs.Counter // requests relayed to a worker (any status)
	retries        *obs.Counter // failover retries after a transport error
	probeMisses    *obs.Counter // hash-only sends answered unknown_molecule (body re-sent, not a failover)
	spills         *obs.Counter // load spills: busy primary skipped for an idle replica
	hotSpreads     *obs.Counter // hot keys alternated across their replica set
	noWorkers      *obs.Counter // rejected: empty ring
	upstreamFailed *obs.Counter // all owners exhausted by transport errors
	lostSessions   *obs.Counter // sticky session whose shard is gone

	hedgesLaunched *obs.Counter // secondary requests launched
	hedgeWins      *obs.Counter // secondary finished first
	hedgesDeduped  *obs.Counter // both legs answered; duplicate discarded
	hedgesCanceled *obs.Counter // loser cut short by context cancel
}

func newRouterCounters(reg *obs.Registry) routerCounters {
	const hedges, hedgeHelp = "octgb_fabric_hedges_total", "Hedge legs by outcome: launched after the p95-derived delay, won (finished before the primary), deduped (both legs answered), canceled (loser cut short)."
	return routerCounters{
		forwarded:      reg.Counter("octgb_fabric_forwarded_total", "", "Requests relayed to a worker, any status."),
		retries:        reg.Counter("octgb_fabric_retries_total", "", "Failover retries onto a replica shard."),
		probeMisses:    reg.Counter("octgb_fabric_probe_misses_total", "", "Hash-only sends the worker did not hold; the body was re-sent to it."),
		spills:         reg.Counter("octgb_fabric_spills_total", "", "Cold keys spilled from a saturated primary to an idle replica."),
		hotSpreads:     reg.Counter("octgb_fabric_hot_spreads_total", "", "Hot keys routed to a replica to keep R shards warm."),
		noWorkers:      reg.Counter("octgb_fabric_no_workers_total", "", "Requests refused 503 no_workers: the ring was empty."),
		upstreamFailed: reg.Counter("octgb_fabric_upstream_failed_total", "", "Requests answered 502: every owner failed in transport."),
		lostSessions:   reg.Counter("octgb_fabric_lost_sessions_total", "", "Sticky stream requests whose owning shard was gone (404 not_found)."),
		hedgesLaunched: reg.Counter(hedges, `event="launched"`, hedgeHelp),
		hedgeWins:      reg.Counter(hedges, `event="won"`, hedgeHelp),
		hedgesDeduped:  reg.Counter(hedges, `event="deduped"`, hedgeHelp),
		hedgesCanceled: reg.Counter(hedges, `event="canceled"`, hedgeHelp),
	}
}

// Router is the stateless front end of the serving fabric. It owns no
// evaluation state — only the membership registry, the ring, and soft
// routing state (hot-key tracker, latency histograms) that can be lost
// without losing a request — so routers scale horizontally and restart
// freely.
type Router struct {
	cfg    RouterConfig
	mem    *Membership
	client *http.Client
	mux    *http.ServeMux
	hot    *hotTracker
	spread atomic.Uint64 // alternates hot keys across their replica set

	start time.Time
	met   routerCounters
	// upstreamLat is the all-worker upstream latency (hedgeMetric); it
	// feeds the p95-derived hedge delay.
	upstreamLat *obs.Histogram

	httpSrv *http.Server
	ln      net.Listener
	stopped atomic.Bool
}

// NewRouter builds a router and its membership registry; Start (or
// Handler + Serve on the membership listener in tests) brings it live.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Addr == "" {
		cfg.Addr = ":8700"
	}
	if cfg.MembershipAddr == "" {
		cfg.MembershipAddr = ":8701"
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	// The router's own registry: every routing and membership event is
	// counted there once. It is per router, not the Observer's, so routers
	// and workers sharing an Observer keep separate /stats.
	reg := obs.NewRegistry()
	rt := &Router{
		cfg:         cfg,
		client:      cfg.Client,
		hot:         newHotTracker(hotWindow, hotThreshold),
		start:       time.Now(),
		met:         newRouterCounters(reg),
		upstreamLat: reg.Histogram(hedgeMetric, "", hedgeHelp),
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt.mem = NewMembership(MembershipConfig{
		Timeout: cfg.Timeout,
		VNodes:  cfg.VNodes,
		Reg:     reg,
		Logf:    rt.logf,
	})

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/energy", rt.handleEnergy)
	rt.mux.HandleFunc("/v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("/v1/stream", rt.handleStreamCreate)
	rt.mux.HandleFunc("/v1/stream/", rt.handleStreamSticky)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	if cfg.Observe != nil {
		rt.mux.Handle("/metrics", obs.Handler(reg, cfg.Observe.Reg))
	}
	return rt
}

// Membership returns the router's registry (tests and the daemon use it
// for introspection).
func (rt *Router) Membership() *Membership { return rt.mem }

// Handler returns the router's HTTP handler without starting listeners.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start binds the HTTP and membership listeners and serves in background
// goroutines until Shutdown.
func (rt *Router) Start() error {
	memLn, err := net.Listen("tcp", rt.cfg.MembershipAddr)
	if err != nil {
		return fmt.Errorf("fabric: membership listen: %w", err)
	}
	rt.mem.Serve(memLn)

	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		rt.mem.Close()
		return fmt.Errorf("fabric: listen: %w", err)
	}
	rt.ln = ln
	rt.httpSrv = &http.Server{Handler: rt.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = rt.httpSrv.Serve(ln) }()
	rt.logf("fabric: router serving on %s (membership on %s, R=%d)", ln.Addr(), memLn.Addr(), rt.cfg.Replicas)
	return nil
}

// ServeMembership starts only the registration listener — tests drive the
// HTTP side through Handler().
func (rt *Router) ServeMembership(ln net.Listener) { rt.mem.Serve(ln) }

// Addr returns the bound HTTP address ("" before Start).
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// MembershipAddr returns the bound registration address ("" before
// Start/ServeMembership).
func (rt *Router) MembershipAddr() string { return rt.mem.Addr() }

// Shutdown stops the HTTP server and the membership registry.
func (rt *Router) Shutdown(ctx context.Context) error {
	if !rt.stopped.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if rt.httpSrv != nil {
		err = rt.httpSrv.Shutdown(ctx)
	}
	rt.mem.Close()
	return err
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf(format, args...)
	}
}

// writeRouterError mirrors the workers' error contract (serve.ErrorResponse
// tokens) so clients see one vocabulary whether a reject came from a
// worker's admission gate or from the router itself.
// The body is marshalled before the status goes out (an ErrorResponse of
// strings always encodes), so the status never goes out without it.
func writeRouterError(w http.ResponseWriter, status int, token, detail string) {
	body, _ := json.Marshal(serve.ErrorResponse{Error: token, Detail: detail})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// upstream is one client request as the router forwards it. probe, when
// set, is the hash-only form of body: send tries it first, and a worker
// that holds the molecule prepared never sees, decodes or hashes the atoms.
type upstream struct {
	path, contentType string
	probe, body       []byte
}

// writeReject answers a request refused at the wire boundary with the
// status and token a worker would give it.
func writeReject(w http.ResponseWriter, err error) {
	status, token := serve.RejectStatus(err)
	writeRouterError(w, status, token, err.Error())
}

// readRouted reads and decodes a molecule-bearing request with the workers'
// own decoder — one wire contract on both tiers — and resolves the molecule
// that keys it (picked by keyMol once req is decoded) to its content hash,
// checking and hashing the wire rows in place (serve's ResolveHash): the
// router never builds the molecule. On false the reject has been written.
func readRouted(w http.ResponseWriter, r *http.Request, req json.Unmarshaler, keyMol func() *serve.MoleculeJSON) (up upstream, hash [molecule.HashSize]byte, ok bool) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return up, hash, false
	}
	body, err := serve.ReadRequest(w, r, req)
	if err == nil {
		hash, err = keyMol().ResolveHash()
	}
	if err != nil {
		writeReject(w, err)
		return up, hash, false
	}
	return upstream{path: r.URL.Path, contentType: r.Header.Get("Content-Type"), body: body}, hash, true
}

func (rt *Router) handleEnergy(w http.ResponseWriter, r *http.Request) {
	var req serve.EnergyRequest
	up, hash, ok := readRouted(w, r, &req, func() *serve.MoleculeJSON { return &req.Molecule })
	if !ok {
		return
	}
	if len(req.Molecule.Atoms) > 0 {
		// Ask by content hash first: on a warm hit the ~200-byte probe is all
		// that crosses the hop. The digest is the one the worker's cache key
		// is made of, computed here from the atoms, not taken from the client.
		req.Molecule = serve.MoleculeJSON{Name: req.Molecule.Name, Hash: hex.EncodeToString(hash[:])}
		up.probe, _ = json.Marshal(req) // a struct of strings and numbers cannot fail
	}
	rt.forward(w, r, KeyHash(hash), up, true)
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	// Route by receptor when present: the receptor is the shared, heavy,
	// cache-resident side of a docking sweep (the paper's workload), so
	// all sweeps against one receptor land on the shard that has its
	// surface and octree prepared. Ligand-only sweeps route by ligand.
	up, hash, ok := readRouted(w, r, &req, func() *serve.MoleculeJSON {
		if req.Receptor != nil {
			return req.Receptor
		}
		return &req.Ligand
	})
	if !ok {
		return
	}
	rt.forward(w, r, KeyHash(hash), up, true)
}

// forward routes one idempotent request: plan the owner order, optionally
// hedge, fail over on transport errors, relay the first response.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key uint64, up upstream, hedgeable bool) {
	order := rt.plan(key)
	if len(order) == 0 {
		rt.met.noWorkers.Inc()
		writeRouterError(w, http.StatusServiceUnavailable, "no_workers", "no workers registered")
		return
	}
	if hedgeable && len(order) >= 2 && rt.cfg.HedgeDelay >= 0 {
		resp, worker, err := rt.hedged(r.Context(), order, up)
		if err != nil {
			rt.met.upstreamFailed.Inc()
			writeRouterError(w, http.StatusBadGateway, "upstream_failed", err.Error())
			return
		}
		rt.relay(w, resp, worker, nil)
		return
	}
	resp, worker, err := rt.tryEach(r.Context(), order, up)
	if err != nil {
		rt.met.upstreamFailed.Inc()
		writeRouterError(w, http.StatusBadGateway, "upstream_failed", err.Error())
		return
	}
	rt.relay(w, resp, worker, nil)
}

// send performs one upstream attempt against worker id: the hash-only probe
// when there is one, and the full body to the same worker only if it
// answers that it does not hold the hash (evicted, restarted, never seen) —
// a miss of the probe, not a failover. A non-nil error is a transport
// failure (dial, reset, torn body) — the worker is suspect and the caller
// should fail over; HTTP-level errors come back as responses.
func (rt *Router) send(ctx context.Context, id string, up upstream) (*http.Response, error) {
	info, ok := rt.mem.Member(id)
	if !ok {
		return nil, fmt.Errorf("worker %s no longer registered", id)
	}
	post := func(body []byte) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+info.Addr+up.path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if up.contentType != "" {
			req.Header.Set("Content-Type", up.contentType)
		}
		return rt.client.Do(req)
	}
	start := time.Now()
	first := up.body
	if up.probe != nil {
		first = up.probe
	}
	resp, err := post(first)
	if err == nil && up.probe != nil && unknownMolecule(resp) {
		rt.met.probeMisses.Inc()
		resp, err = post(up.body)
	}
	if err != nil {
		// A cancelled context is our own doing (client gone or hedge
		// loser cut short) — only organic transport errors make the
		// worker suspect.
		if ctx.Err() == nil {
			rt.mem.Suspect(id, err)
		}
		return nil, err
	}
	d := time.Since(start)
	rt.upstreamLat.Observe(d)
	info.lat.Observe(d)
	return resp, nil
}

// unknownMolecule reports whether resp is a worker's typed answer to a
// hash it does not hold, and consumes it if so; any other response is left
// whole for relay.
func unknownMolecule(resp *http.Response) bool {
	if resp.StatusCode != http.StatusNotFound {
		return false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e serve.ErrorResponse
	if err == nil && json.Unmarshal(b, &e) == nil && e.Error == serve.UnknownMolecule {
		return true
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return false
}

// retryableStatus reports admission rejects worth spilling to a replica:
// the worker is alive but full (429) or draining (503). Anything else —
// including eval_failed 500s, which are deterministic for the payload —
// is relayed as-is rather than retried.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// tryEach walks the owner order: transport errors and admission rejects
// move to the next owner; the first relayable response wins. The last
// response is relayed even if it is a reject, so a fully-loaded fleet
// still answers with the workers' own backpressure contract.
func (rt *Router) tryEach(ctx context.Context, order []string, up upstream) (*http.Response, string, error) {
	var lastErr error
	for i, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		if i > 0 {
			rt.met.retries.Inc()
		}
		resp, err := rt.send(ctx, id, up)
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) && i < len(order)-1 {
			resp.Body.Close()
			continue
		}
		return resp, id, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no owners reachable")
	}
	return nil, "", lastErr
}

// relay copies an upstream response to the client, stamping the serving
// shard, optionally transforming the body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, worker string, transform func([]byte) []byte) {
	defer resp.Body.Close()
	rt.met.forwarded.Inc()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, "upstream_failed", "torn upstream response")
		return
	}
	if transform != nil && resp.StatusCode < 300 {
		body = transform(body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(WorkerHeader, worker)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleStreamCreate routes a session create by molecule hash and rewrites
// the returned session ID into routed form ("worker~sid") so every later
// frame carries its shard. Creates are not hedged — a session is state,
// and hedging one would strand a twin on the loser shard.
func (rt *Router) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req serve.StreamCreateRequest
	up, hash, ok := readRouted(w, r, &req, func() *serve.MoleculeJSON { return &req.Molecule })
	if !ok {
		return
	}
	order := rt.plan(KeyHash(hash))
	if len(order) == 0 {
		rt.met.noWorkers.Inc()
		writeRouterError(w, http.StatusServiceUnavailable, "no_workers", "no workers registered")
		return
	}
	resp, worker, err := rt.tryEach(r.Context(), order, up)
	if err != nil {
		rt.met.upstreamFailed.Inc()
		writeRouterError(w, http.StatusBadGateway, "upstream_failed", err.Error())
		return
	}
	rt.relay(w, resp, worker, func(b []byte) []byte {
		return rewriteSessionID(b, func(sid string) string { return worker + sessionIDSep + sid })
	})
}

// handleStreamSticky forwards /v1/stream/{worker~sid}[/frame|/close] to
// the one shard holding the session's state. There is no failover here by
// design — incremental session state lives on exactly one worker — so a
// dead shard is a truly lost session: the existing 404 token contract.
func (rt *Router) handleStreamSticky(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	routedID, suffix, _ := strings.Cut(rest, "/")
	worker, sid, found := strings.Cut(routedID, sessionIDSep)
	if !found || worker == "" || sid == "" {
		// Names no shard, so none was lost: the 404 a worker gives an
		// unknown session, and no count.
		writeRouterError(w, http.StatusNotFound, "not_found", "unknown session "+routedID)
		return
	}
	info, ok := rt.mem.Member(worker)
	if !ok {
		rt.met.lostSessions.Inc()
		writeRouterError(w, http.StatusNotFound, "not_found", "session shard lost: "+routedID)
		return
	}
	body, err := serve.ReadBody(w, r)
	if err != nil {
		writeReject(w, err)
		return
	}
	path := "/v1/stream/" + sid
	if suffix != "" {
		path += "/" + suffix
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+info.Addr+path, bytes.NewReader(body))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		// The shard died under the session: suspect it (funnels ring
		// removal through membership) and report the loss with the same
		// token an eviction uses.
		rt.mem.Suspect(worker, err)
		rt.met.lostSessions.Inc()
		writeRouterError(w, http.StatusNotFound, "not_found", "session shard lost: "+routedID)
		return
	}
	d := time.Since(start)
	rt.upstreamLat.Observe(d)
	info.lat.Observe(d)
	rt.relay(w, resp, worker, func(b []byte) []byte {
		return rewriteSessionID(b, func(string) string { return routedID })
	})
}

// rewriteSessionID rewrites the "session_id" field of a JSON body through
// fn, leaving every other field's raw bytes untouched. Bodies without the
// field (or non-JSON bodies) pass through unchanged.
func rewriteSessionID(body []byte, fn func(string) string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	raw, ok := m["session_id"]
	if !ok {
		return body
	}
	var sid string
	if err := json.Unmarshal(raw, &sid); err != nil || sid == "" {
		return body
	}
	out, err := json.Marshal(fn(sid))
	if err != nil {
		return body
	}
	m["session_id"] = out
	b, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return b
}

// RouterStats is the router's GET /stats payload.
type RouterStats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Workers       []MemberInfo `json:"workers"`

	Ring struct {
		Members int `json:"members"`
		VNodes  int `json:"vnodes"`
	} `json:"ring"`

	Requests struct {
		Forwarded      int64 `json:"forwarded"`
		Retries        int64 `json:"retries"`
		ProbeMisses    int64 `json:"probe_misses"`
		Spills         int64 `json:"spills"`
		HotSpreads     int64 `json:"hot_spreads"`
		NoWorkers      int64 `json:"no_workers"`
		UpstreamFailed int64 `json:"upstream_failed"`
		LostSessions   int64 `json:"lost_sessions"`
	} `json:"requests"`

	Membership struct {
		Joins    int64 `json:"joins"`
		Goodbyes int64 `json:"goodbyes"`
		Failures int64 `json:"failures"`
		Rejects  int64 `json:"rejects"`
	} `json:"membership"`

	Hedge struct {
		Launched int64 `json:"launched"`
		Wins     int64 `json:"wins"`
		Deduped  int64 `json:"deduped"`
		Canceled int64 `json:"canceled"`
		// DelayMS is the delay a hedge launched now would wait — fixed or
		// p95-derived.
		DelayMS float64 `json:"delay_ms"`
	} `json:"hedge"`
}

// Stats returns a point-in-time stats snapshot.
func (rt *Router) Stats() RouterStats {
	var out RouterStats
	out.UptimeSeconds = time.Since(rt.start).Seconds()
	out.Workers = rt.mem.Snapshot()
	out.Ring.Members = rt.mem.Ring().Size()
	out.Ring.VNodes = rt.mem.Ring().vnodes
	out.Requests.Forwarded = rt.met.forwarded.Value()
	out.Requests.Retries = rt.met.retries.Value()
	out.Requests.ProbeMisses = rt.met.probeMisses.Value()
	out.Requests.Spills = rt.met.spills.Value()
	out.Requests.HotSpreads = rt.met.hotSpreads.Value()
	out.Requests.NoWorkers = rt.met.noWorkers.Value()
	out.Requests.UpstreamFailed = rt.met.upstreamFailed.Value()
	out.Requests.LostSessions = rt.met.lostSessions.Value()
	out.Membership.Joins, out.Membership.Goodbyes, out.Membership.Failures, out.Membership.Rejects = rt.mem.Counters()
	out.Hedge.Launched = rt.met.hedgesLaunched.Value()
	out.Hedge.Wins = rt.met.hedgeWins.Value()
	out.Hedge.Deduped = rt.met.hedgesDeduped.Value()
	out.Hedge.Canceled = rt.met.hedgesCanceled.Value()
	out.Hedge.DelayMS = float64(rt.hedgeDelay()) / 1e6
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.Stats())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.mem.Ring().Size() == 0 {
		writeRouterError(w, http.StatusServiceUnavailable, "no_workers", "no workers registered")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","workers":%d}`+"\n", rt.mem.Ring().Size())
}
