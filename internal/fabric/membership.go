package fabric

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/obs"
)

// DefaultMembershipTimeout is the default heartbeat timeout: a worker
// silent for this long is declared failed and unmapped from the ring.
// Workers heartbeat at a third of it (the cluster transport's cadence),
// so a live worker always lands at least two beats inside any window.
const DefaultMembershipTimeout = 2 * time.Second

// MembershipConfig configures the router-side registry.
type MembershipConfig struct {
	// Timeout is the heartbeat timeout (default DefaultMembershipTimeout).
	Timeout time.Duration
	// VNodes is the ring's virtual-node count per worker (default
	// DefaultVNodes).
	VNodes int
	// OnChange, when non-nil, runs after every ring membership change
	// (join, goodbye, failure) with the lock released.
	OnChange func()
	// Reg holds the membership's counters, its worker gauge and the
	// per-worker upstream latency histograms (the router passes its own
	// registry); nil keeps them in a private one.
	Reg *obs.Registry
	// Logf receives membership lifecycle logs; nil is silent.
	Logf func(format string, args ...any)
}

// member is one registered worker.
type member struct {
	id    string
	addr  string
	epoch uint64
	slot  int

	conn     net.Conn
	joined   time.Time
	lastSeen atomic.Int64   // unix nanos of the last frame from the worker
	lat      *obs.Histogram // upstream latency to this worker

	mu   sync.Mutex
	load LoadReport
}

func (m *member) setLoad(l LoadReport) {
	m.mu.Lock()
	m.load = l
	m.mu.Unlock()
}

func (m *member) getLoad() LoadReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load
}

// MemberInfo is a point-in-time view of one registered worker — the
// router's routing table entry and the /stats worker block.
type MemberInfo struct {
	ID    string     `json:"id"`
	Addr  string     `json:"addr"`
	Slot  int        `json:"slot"`
	Epoch uint64     `json:"epoch"`
	Alive bool       `json:"alive"`
	Load  LoadReport `json:"load"`
	// AgeSeconds is time since registration.
	AgeSeconds float64        `json:"age_seconds"`
	lat        *obs.Histogram // the router's upstream latency to this worker
}

// Membership is the router-side registry: it accepts worker
// registrations on a TCP listener, monitors their heartbeats, and keeps
// the consistent-hash ring in sync with the live set. It implements
// cluster.FailureDetector over registration slots, and failures surface
// internally as the cluster layer's typed ErrRankFailed — the same
// machinery the in-evaluation transports use.
type Membership struct {
	cfg  MembershipConfig
	ring *Ring

	mu      sync.Mutex
	members map[string]*member
	slots   []string // slot index → worker ID ("" when free)

	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup

	joins, goodbyes, failures, rejects *obs.Counter
}

// NewMembership builds a registry (and its ring) without binding
// anything; call Serve with a listener to start accepting workers.
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultMembershipTimeout
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	m := &Membership{
		cfg:      cfg,
		ring:     NewRing(cfg.VNodes),
		members:  make(map[string]*member),
		joins:    cfg.Reg.Counter("octgb_fabric_member_joins_total", "", "Worker registrations accepted, restarts included."),
		goodbyes: cfg.Reg.Counter("octgb_fabric_member_goodbyes_total", "", "Workers that left with a goodbye."),
		failures: cfg.Reg.Counter("octgb_fabric_member_failures_total", "", "Workers declared failed (heartbeat timeout or torn registration link)."),
		rejects:  cfg.Reg.Counter("octgb_fabric_member_rejects_total", "", "Registrations refused (malformed, invalid or duplicate)."),
	}
	cfg.Reg.GaugeFunc("octgb_fabric_workers", "", "Workers on the ring.", func() float64 { return float64(m.ring.Size()) })
	return m
}

// Ring returns the registry's ring (shared, live — lookups see
// membership changes immediately).
func (m *Membership) Ring() *Ring { return m.ring }

// Serve starts the accept loop on ln; it returns immediately. The
// listener is owned by the registry afterwards and closed by Close.
func (m *Membership) Serve(ln net.Listener) {
	m.ln = ln
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.serveConn(c)
			}()
		}
	}()
}

// Close stops the accept loop, drops every member and waits for the
// connection handlers to exit.
func (m *Membership) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.ln != nil {
		m.ln.Close()
	}
	m.mu.Lock()
	for _, mb := range m.members {
		mb.conn.Close()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Addr returns the membership listener address, or "" before Serve.
func (m *Membership) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// serveConn owns one worker's registration connection for its whole
// life: register → ack → heartbeats until goodbye, silence or error.
// Every exit path unregisters the member it registered (and only that
// one — a re-registration replaces the map entry, and the old handler's
// cleanup must not tear down the new epoch).
func (m *Membership) serveConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 1<<12)

	c.SetReadDeadline(time.Now().Add(m.cfg.Timeout))
	msg, err := DecodeMessage(br)
	if err != nil || msg.Type != MsgRegister {
		m.rejects.Inc()
		_ = writeMessage(c, &Message{Type: MsgAck, Detail: "expected Register"})
		return
	}
	mb, reject := m.register(msg, c)
	if reject != "" {
		m.rejects.Inc()
		m.logf("fabric: rejected registration of %q: %s", msg.WorkerID, reject)
		_ = writeMessage(c, &Message{Type: MsgAck, Detail: reject})
		return
	}
	if err := writeMessage(c, &Message{Type: MsgAck, OK: true}); err != nil {
		m.unregister(mb, fmt.Errorf("ack write: %w", err), false)
		return
	}
	m.logf("fabric: worker %s joined (addr=%s slot=%d epoch=%d)", mb.id, mb.addr, mb.slot, mb.epoch)

	for {
		c.SetReadDeadline(time.Now().Add(m.cfg.Timeout))
		msg, err := DecodeMessage(br)
		if err != nil {
			// Silence past the timeout or a torn connection: the typed
			// rank failure, attributed to the worker's slot like a rank
			// death inside an evaluation.
			m.unregister(mb, cluster.ErrRankFailed{Rank: mb.slot, Cause: err}, false)
			return
		}
		switch msg.Type {
		case MsgHeartbeat:
			mb.lastSeen.Store(time.Now().UnixNano())
			mb.setLoad(msg.Load)
		case MsgGoodbye:
			m.unregister(mb, nil, true)
			return
		default:
			m.unregister(mb, fmt.Errorf("unexpected message type %d", msg.Type), false)
			return
		}
	}
}

// register validates and installs a registration, returning the member
// or a rejection detail.
func (m *Membership) register(msg *Message, c net.Conn) (*member, string) {
	if !validWorkerID(msg.WorkerID) {
		return nil, "invalid worker id (want [A-Za-z0-9._-]{1,64})"
	}
	if msg.Addr == "" {
		return nil, "missing advertised address"
	}
	lat := m.cfg.Reg.Histogram(upstreamMetric, `worker="`+msg.WorkerID+`"`, upstreamHelp)
	m.mu.Lock()
	if old := m.members[msg.WorkerID]; old != nil {
		if msg.Epoch <= old.epoch {
			m.mu.Unlock()
			return nil, fmt.Sprintf("duplicate registration (epoch %d <= live epoch %d)", msg.Epoch, old.epoch)
		}
		// A restarted worker: replace in place. The old handler's read
		// fails once its conn closes, and its unregister no-ops because
		// the map no longer points at its member.
		old.conn.Close()
		mb := &member{id: msg.WorkerID, addr: msg.Addr, epoch: msg.Epoch, slot: old.slot, conn: c, joined: time.Now(), lat: lat}
		mb.lastSeen.Store(time.Now().UnixNano())
		mb.setLoad(msg.Load)
		m.members[msg.WorkerID] = mb
		m.mu.Unlock()
		m.joins.Inc()
		// Same ID, same ring position: no ring change, no OnChange.
		return mb, ""
	}
	slot := -1
	for i, id := range m.slots {
		if id == "" {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(m.slots)
		m.slots = append(m.slots, "")
	}
	m.slots[slot] = msg.WorkerID
	mb := &member{id: msg.WorkerID, addr: msg.Addr, epoch: msg.Epoch, slot: slot, conn: c, joined: time.Now(), lat: lat}
	mb.lastSeen.Store(time.Now().UnixNano())
	mb.setLoad(msg.Load)
	m.members[msg.WorkerID] = mb
	m.mu.Unlock()

	m.ring.Add(msg.WorkerID)
	m.joins.Inc()
	if m.cfg.OnChange != nil {
		m.cfg.OnChange()
	}
	return mb, ""
}

// unregister removes mb if it is still the live entry for its ID, and
// reassigns its ring range. cause nil + graceful marks a clean goodbye;
// a typed ErrRankFailed marks detection of a death.
func (m *Membership) unregister(mb *member, cause error, graceful bool) {
	m.mu.Lock()
	if m.members[mb.id] != mb {
		m.mu.Unlock()
		return // replaced by a newer epoch; nothing of ours is live
	}
	delete(m.members, mb.id)
	m.slots[mb.slot] = ""
	m.mu.Unlock()
	mb.conn.Close()

	m.ring.Remove(mb.id)
	if graceful {
		m.goodbyes.Inc()
		m.logf("fabric: worker %s left (goodbye); ring range reassigned", mb.id)
	} else {
		m.failures.Inc()
		m.logf("fabric: worker %s FAILED (%v); ring range reassigned to replicas", mb.id, cause)
	}
	if m.cfg.OnChange != nil {
		m.cfg.OnChange()
	}
}

// Suspect reports an out-of-band failure observation (a forward to the
// worker hit a transport error). The member's registration connection is
// closed, which funnels removal through the single serveConn cleanup
// path — the ring updates at most once however many requests notice the
// death concurrently.
func (m *Membership) Suspect(id string, cause error) {
	m.mu.Lock()
	mb := m.members[id]
	m.mu.Unlock()
	if mb == nil {
		return
	}
	m.logf("fabric: worker %s suspected (%v); closing registration link", id, cause)
	mb.conn.Close()
}

// Member returns the live entry for id.
func (m *Membership) Member(id string) (MemberInfo, bool) {
	m.mu.Lock()
	mb := m.members[id]
	m.mu.Unlock()
	if mb == nil {
		return MemberInfo{}, false
	}
	return m.info(mb), true
}

// Snapshot returns every live member, ordered by slot.
func (m *Membership) Snapshot() []MemberInfo {
	m.mu.Lock()
	out := make([]MemberInfo, 0, len(m.members))
	for _, id := range m.slots {
		if id == "" {
			continue
		}
		if mb := m.members[id]; mb != nil {
			out = append(out, m.info(mb))
		}
	}
	m.mu.Unlock()
	return out
}

func (m *Membership) info(mb *member) MemberInfo {
	return MemberInfo{
		ID:         mb.id,
		Addr:       mb.addr,
		Slot:       mb.slot,
		Epoch:      mb.epoch,
		Alive:      m.aliveAt(mb),
		Load:       mb.getLoad(),
		AgeSeconds: time.Since(mb.joined).Seconds(),
		lat:        mb.lat,
	}
}

// aliveAt applies the cluster layer's liveness rule: heard from within
// twice the timeout.
func (m *Membership) aliveAt(mb *member) bool {
	return time.Since(time.Unix(0, mb.lastSeen.Load())) < 2*m.cfg.Timeout
}

// AliveRanks implements cluster.FailureDetector over registration slots:
// slot i is alive while its worker is registered and heard from within
// twice the timeout. Freed slots report false until reused.
func (m *Membership) AliveRanks() []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := make([]bool, len(m.slots))
	for i, id := range m.slots {
		if id == "" {
			continue
		}
		if mb := m.members[id]; mb != nil {
			alive[i] = m.aliveAt(mb)
		}
	}
	return alive
}

// Counters returns the lifecycle tallies (joins, goodbyes, failures,
// rejected registrations).
func (m *Membership) Counters() (joins, goodbyes, failures, rejects int64) {
	return m.joins.Value(), m.goodbyes.Value(), m.failures.Value(), m.rejects.Value()
}

// statically assert the FailureDetector contract.
var _ cluster.FailureDetector = (*Membership)(nil)
