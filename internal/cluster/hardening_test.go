package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"octgb/internal/testutil"
)

// Tests for the failure-hardened transport: deadlines, heartbeats, typed
// rank failures, sticky failure, and a failed mesh build failing every
// rank.

// TestHeartbeatIntervalBelowTimeout is the property behind "slow is not
// dead": for any sane timeout the heartbeat period is strictly smaller, so
// a live peer always lands beats inside every read-deadline window.
func TestHeartbeatIntervalBelowTimeout(t *testing.T) {
	for _, d := range []time.Duration{
		time.Microsecond, time.Millisecond, 50 * time.Millisecond,
		time.Second, 30 * time.Second, 10 * time.Minute,
	} {
		iv := heartbeatInterval(d)
		if iv <= 0 || iv >= d {
			t.Errorf("heartbeatInterval(%v) = %v, want in (0, %v)", d, iv, d)
		}
	}
}

// TestReadFrameTimeoutReturnsErrRankFailed: a link whose peer sends
// nothing — no frames, no heartbeats — trips the read deadline and the
// error is the typed rank failure, attributed to the peer.
func TestReadFrameTimeoutReturnsErrRankFailed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := newRankConn(a)
	rc.peer = 3
	rc.timeout = 50 * time.Millisecond
	start := time.Now()
	_, _, _, err := rc.readFrame()
	var rf ErrRankFailed
	if !errors.As(err, &rf) {
		t.Fatalf("got %v, want ErrRankFailed", err)
	}
	if rf.Rank != 3 {
		t.Fatalf("blamed rank %d, want 3", rf.Rank)
	}
	if el := time.Since(start); el > 2*rc.timeout {
		t.Fatalf("timeout took %v, want ≈%v", el, rc.timeout)
	}
}

// startTCPGroupOpts is startTCPGroup with transport options and per-rank
// error reporting (fatal errors are not flattened, so tests can assert on
// individual ranks).
func startTCPGroupOpts(t *testing.T, size int, opts []TCPOption, fn func(c Comm) error) []error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startTCPGroupOn(t, ln, size, opts, fn)
}

// startTCPGroupOn is startTCPGroupOpts with the root listening on ln,
// which it closes. A rank whose constructor fails reports that error.
func startTCPGroupOn(t *testing.T, ln net.Listener, size int, opts []TCPOption, fn func(c Comm) error) []error {
	t.Helper()
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, size)
	comms := make([]Comm, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, size, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			errs[r] = fn(c)
		}(r)
	}
	if root, err := NewTCPRoot(ln, size, opts...); err != nil {
		errs[0] = err
	} else {
		comms[0] = root
		errs[0] = fn(root)
	}
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(io.Closer); ok && cl != nil {
			cl.Close()
		}
	}
	return errs
}

// TestMeshSlowWorkerIsNotFailed: a worker that computes for several
// multiples of the communication timeout before joining the collective
// must NOT be flagged — its heartbeat writers (period < timeout) keep its
// peers' read deadlines refreshed the whole time.
func TestMeshSlowWorkerIsNotFailed(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	timeout := 200 * time.Millisecond
	opts := []TCPOption{WithCommTimeout(timeout)}
	errs := startTCPGroupOpts(t, 3, opts, func(c Comm) error {
		if c.Rank() == 2 {
			time.Sleep(3 * timeout) // "slow compute", far past the deadline
		}
		buf := []float64{float64(c.Rank())}
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		if buf[0] != 3 {
			return fmt.Errorf("rank %d: sum %v", c.Rank(), buf[0])
		}
		return rendezvous(c)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed although every rank was alive: %v", r, err)
		}
	}
}

// TestMeshSilentWorkerFailsTyped: a worker that is transport-silent
// (no frames AND no heartbeats — a hung process or a network partition,
// simulated by a worker running without failure detection) is flagged as
// ErrRankFailed at the root within the timeout.
func TestMeshSilentWorkerFailsTyped(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	timeout := 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	silentDone := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer close(silentDone)
		// No WithCommTimeout: this worker sends no heartbeats — from the
		// root's perspective it is a partitioned peer.
		c, err := DialTCP(addr, 1, 2)
		if err != nil {
			return
		}
		<-release
		c.(io.Closer).Close()
	}()
	root, err := NewTCPRoot(ln, 2, WithCommTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{1}
	start := time.Now()
	err = root.AllreduceSum(buf)
	elapsed := time.Since(start)
	var rf ErrRankFailed
	if !errors.As(err, &rf) {
		t.Fatalf("got %v, want ErrRankFailed", err)
	}
	if rf.Rank != 1 {
		t.Fatalf("blamed rank %d, want 1", rf.Rank)
	}
	if elapsed > 2*timeout {
		t.Fatalf("detection took %v, budget 2×%v", elapsed, timeout)
	}
	if fd, ok := root.(FailureDetector); ok {
		alive := fd.AliveRanks()
		if !alive[0] {
			t.Error("root reported itself dead")
		}
	} else {
		t.Error("mesh root does not implement FailureDetector")
	}
	close(release)
	<-silentDone
	root.(io.Closer).Close()
}

// TestMeshFailureIsSticky: after the root fails a collective on one
// worker, a worker that took part waits for a reply that will not come,
// and its heartbeats keep the root's reads alive. The next collective
// must fail at once with the same ErrRankFailed instead of waiting on it.
// (At P = 3 the root's first collective waits on rank 1's folded
// contribution, then on rank 2; the second waits on rank 1 first.)
func TestMeshFailureIsSticky(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	timeout := 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	release := make(chan struct{})
	var wg sync.WaitGroup
	for r := 1; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var opts []TCPOption
			if r == 1 {
				opts = append(opts, WithCommTimeout(timeout))
			}
			c, err := DialTCP(addr, r, 3, opts...)
			if err != nil {
				return
			}
			if r == 1 { // takes part; rank 2 stays silent, heartbeats off
				c.AllreduceSum([]float64{1})
			}
			<-release
			c.(io.Closer).Close()
		}(r)
	}
	root, err := NewTCPRoot(ln, 3, WithCommTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		root.(io.Closer).Close()
		close(release)
		wg.Wait()
	}()
	var rf ErrRankFailed
	if err := root.AllreduceSum([]float64{1}); !errors.As(err, &rf) || rf.Rank != 2 {
		t.Fatalf("first collective: got %v, want ErrRankFailed naming rank 2", err)
	}
	done := make(chan error, 1)
	go func() { done <- root.AllreduceSum([]float64{1}) }()
	select {
	case err := <-done:
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Fatalf("second collective: got %v, want ErrRankFailed naming rank 2", err)
		}
	case <-time.After(3 * timeout):
		t.Fatal("second collective waits on a worker still inside the first")
	}
}

// TestMeshDialFaultFailsEveryRank: when a worker cannot build its pairwise
// links, every rank's constructor returns an error naming the link, within
// the mesh build timeout plus the dial-retry budget, and leaves no
// goroutine behind.
func TestMeshDialFaultFailsEveryRank(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootAddr := ln.Addr().String()
	// Refuse every worker-to-worker dial (at P = 3, rank 2 → rank 1).
	testDial = func(network, addr string) (net.Conn, error) {
		if addr != rootAddr {
			return nil, fmt.Errorf("refused mesh dial to %s", addr)
		}
		return net.Dial(network, addr)
	}
	defer func() { testDial = nil }()

	timeout := 300 * time.Millisecond
	var retries time.Duration
	for a := 1; a < dialAttempts; a++ {
		retries += (dialBackoffBase << (a - 1)) * 3 / 2
	}
	budget := meshBuildTimeout(timeout) + retries + time.Second
	g0 := runtime.NumGoroutine()
	start := time.Now()
	errs := startTCPGroupOn(t, ln, 3, []TCPOption{WithCommTimeout(timeout)}, func(c Comm) error {
		return fmt.Errorf("rank %d: built a group with a refused mesh link", c.Rank())
	})
	if el := time.Since(start); el > budget {
		t.Errorf("constructors returned after %v, budget %v", el, budget)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "mesh build failed") ||
			!strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "rank 2") {
			t.Errorf("rank %d: got %v, want a mesh build failure naming ranks 1 and 2", r, err)
		}
	}
	if n := testutil.WaitGoroutines(g0, time.Second); n > g0 {
		t.Errorf("goroutine leak: %d live, %d before", n, g0)
	}
}

// TestMeshAliveRanksTracksFailure: the mesh failure detector reports a
// closed peer as dead within ~2× the timeout, while live peers (kept warm
// by heartbeats alone — no collectives running) stay alive.
func TestMeshAliveRanksTracksFailure(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	timeout := 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	opts := []TCPOption{WithCommTimeout(timeout)}

	const p = 3
	comms := make([]Comm, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], _ = DialTCP(addr, r, p, opts...)
		}(r)
	}
	comms[0], err = NewTCPRoot(ln, p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for r := 1; r < p; r++ {
		if comms[r] == nil {
			t.Fatalf("rank %d failed to join", r)
		}
	}
	defer func() {
		for _, c := range comms {
			if cl, ok := c.(io.Closer); ok {
				cl.Close()
			}
		}
	}()

	fd, ok := comms[0].(FailureDetector)
	if !ok {
		t.Fatal("mesh comm does not implement FailureDetector")
	}
	time.Sleep(3 * timeout) // idle: only heartbeats keep links warm
	for r, alive := range fd.AliveRanks() {
		if !alive {
			t.Fatalf("rank %d reported dead while alive and idle", r)
		}
	}
	comms[2].(io.Closer).Close()
	deadline := time.Now().Add(10 * timeout)
	for {
		alive := fd.AliveRanks()
		if !alive[2] && alive[0] && alive[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 2 closed but liveness is %v", alive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
