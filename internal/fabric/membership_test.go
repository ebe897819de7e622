package fabric

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"octgb/internal/cluster"
)

// newTestMembership binds a registry on a loopback listener with a short
// timeout so death detection fits in test time.
func newTestMembership(t *testing.T, cfg MembershipConfig) *Membership {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 300 * time.Millisecond
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = 16
	}
	m := NewMembership(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.Serve(ln)
	t.Cleanup(m.Close)
	return m
}

// startTestWorker registers a worker agent against the registry, on the
// registry's timeout.
func startTestWorker(t *testing.T, m *Membership, id string, epoch uint64, load func() LoadReport) *Worker {
	t.Helper()
	w, err := StartWorker(WorkerConfig{
		RouterAddr: m.Addr(),
		WorkerID:   id,
		Advertise:  "127.0.0.1:1", // unused by membership itself
		Epoch:      epoch,
		Timeout:    m.cfg.Timeout,
		Load:       load,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if !w.WaitRegistered(5 * time.Second) {
		t.Fatalf("worker %s never registered", id)
	}
	return w
}

func waitRingSize(t *testing.T, m *Membership, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Ring().Size() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ring size %d, want %d", m.Ring().Size(), want)
}

// TestMembershipJoinHeartbeatGoodbye: the full graceful lifecycle — join
// updates the ring, heartbeats carry load reports, goodbye unmaps without
// waiting out the timeout. The timeout is long enough that a loaded box
// cannot expire it, so the counters tell a goodbye from a timeout.
func TestMembershipJoinHeartbeatGoodbye(t *testing.T) {
	const timeout = 10 * time.Second
	m := newTestMembership(t, MembershipConfig{Timeout: timeout})
	load := LoadReport{Workers: 4, Inflight: 2, CacheEntries: 9}
	w := startTestWorker(t, m, "w0", 1, func() LoadReport { return load })
	startTestWorker(t, m, "w1", 1, nil)
	waitRingSize(t, m, 2)

	// Heartbeats deliver the load report.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := m.Member("w0")
		if ok && info.Load.CacheEntries == 9 {
			if !info.Alive {
				t.Fatal("heartbeating worker reported not alive")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load report never arrived: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}

	alive := m.AliveRanks()
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("AliveRanks = %v, want 2 alive", alive)
	}

	// Goodbye unmaps without waiting out the timeout. Had the worker only
	// gone silent at Close, the registry would wait a whole timeout past
	// its last heartbeat, at most a third of one old: removal within half
	// the timeout is a goodbye's.
	start := time.Now()
	w.Close()
	waitRingSize(t, m, 1)
	if d := time.Since(start); d > timeout/2 {
		t.Errorf("goodbye removal took %v; want under %v, half the timeout", d, timeout/2)
	}
	joins, goodbyes, failures, _ := m.Counters()
	if joins != 2 || goodbyes != 1 || failures != 0 {
		t.Fatalf("counters joins=%d goodbyes=%d failures=%d, want 2/1/0", joins, goodbyes, failures)
	}
}

// rawRegister speaks the wire protocol by hand so tests can die silently
// (no goodbye, no reconnect) — the failure path a crashed worker takes.
func rawRegister(t *testing.T, addr, id string, epoch uint64) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMessage(c, &Message{Type: MsgRegister, WorkerID: id, Addr: "127.0.0.1:1", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeMessage(bufio.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK {
		c.Close()
		t.Fatalf("registration rejected: %s", ack.Detail)
	}
	return c
}

// TestMembershipDeathDetection: a worker that goes silent (crash, not
// goodbye) is declared failed within the heartbeat timeout and its range
// reassigned; the failure is attributed like a cluster rank death.
func TestMembershipDeathDetection(t *testing.T) {
	var mu sync.Mutex
	var failure error
	m := newTestMembership(t, MembershipConfig{
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			for _, a := range args {
				if err, ok := a.(error); ok {
					failure = err
				}
			}
		},
	})
	startTestWorker(t, m, "w0", 1, nil)
	c := rawRegister(t, m.Addr(), "crashy", 1)
	defer c.Close()
	waitRingSize(t, m, 2)

	// Go silent: no heartbeats. Detection within ~timeout.
	start := time.Now()
	waitRingSize(t, m, 1)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("death detection took %v", d)
	}
	if got := m.Ring().Members(); len(got) != 1 || got[0] != "w0" {
		t.Fatalf("ring members after death: %v", got)
	}
	_, _, failures, _ := m.Counters()
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	// The attribution is the cluster layer's typed failure.
	mu.Lock()
	got := failure
	mu.Unlock()
	if got == nil {
		t.Fatal("no failure error surfaced to the log")
	}
	var rf cluster.ErrRankFailed
	if !errors.As(got, &rf) {
		t.Fatalf("failure %T (%v), want cluster.ErrRankFailed", got, got)
	}
}

// TestMembershipEpochReplacement: a restarted worker (same ID, newer
// epoch) replaces its old registration in place; a stale epoch is
// rejected.
func TestMembershipEpochReplacement(t *testing.T) {
	m := newTestMembership(t, MembershipConfig{})
	c1 := rawRegister(t, m.Addr(), "w0", 5)
	defer c1.Close()
	waitRingSize(t, m, 1)

	// Stale epoch: rejected.
	c2, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := writeMessage(c2, &Message{Type: MsgRegister, WorkerID: "w0", Addr: "127.0.0.1:1", Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeMessage(bufio.NewReader(c2))
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("stale epoch accepted")
	}

	// Newer epoch: replaces. Ring stays size 1 throughout (same ID, same
	// ranges — a restart does not shuffle keys).
	c3 := rawRegister(t, m.Addr(), "w0", 6)
	defer c3.Close()
	if m.Ring().Size() != 1 {
		t.Fatalf("ring size %d after replacement", m.Ring().Size())
	}
	info, ok := m.Member("w0")
	if !ok || info.Epoch != 6 {
		t.Fatalf("member after replacement: %+v ok=%v, want epoch 6", info, ok)
	}
	// The old handler's cleanup must not remove the new registration.
	time.Sleep(50 * time.Millisecond)
	if _, ok := m.Member("w0"); !ok {
		t.Fatal("old connection's cleanup tore down the new epoch")
	}
}

// TestWorkerReconnect: a worker whose registration link tears (router
// restart, network blip) re-registers with a bumped epoch.
func TestWorkerReconnect(t *testing.T) {
	m := newTestMembership(t, MembershipConfig{})
	startTestWorker(t, m, "w0", 1, nil)
	waitRingSize(t, m, 1)

	// Tear the link from the router side without removing state: Suspect
	// closes the conn, the worker must come back on its own.
	m.Suspect("w0", nil)
	waitRingSize(t, m, 0)
	waitRingSize(t, m, 1)
	info, _ := m.Member("w0")
	if info.Epoch <= 1 {
		t.Fatalf("reconnected epoch %d, want > 1", info.Epoch)
	}
}
