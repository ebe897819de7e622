package cluster_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/surface"
	"octgb/internal/testutil"
)

// The fault matrix tests the cluster's failure contract at the bytes the
// TCP transport really sends. A seeded plan picks one link of a running
// group, one direction on it and a byte offset, and a faulty net.Conn
// stalls, duplicates, flips, truncates or black-holes the bytes there.
// Every cell must end in one of two ways: every rank returns the
// fault-free result bit for bit, or a rank returns ErrRankFailed naming a
// rank within the communication timeout (plus slack) of the fault firing.
// A wrong result, a hang, an untyped error or a leaked goroutine fails the
// cell. A stall shorter than the timeout must be ridden out: slow is not
// dead.

type faultKind int

const (
	stall     faultKind = iota // hold the bytes for faultTimeout/4
	duplicate                  // deliver one read or write twice
	flip                       // flip one bit
	truncate                   // drop the rest of one read or write
	blackhole                  // drop every byte from the offset on
)

var faultKinds = []faultKind{stall, duplicate, flip, truncate, blackhole}

func (k faultKind) String() string {
	return [...]string{"stall", "duplicate", "flip", "truncate", "blackhole"}[k]
}

const (
	// faultTimeout is the groups' communication timeout: heartbeats run at
	// a third of it, and a black-holed link is detected after it.
	faultTimeout = time.Second
	// detectSlack bounds how long after faultTimeout the first
	// ErrRankFailed may surface (a rank may be computing when a fault fires).
	detectSlack = time.Second
	// handshakeBytes is an offset past every handshake byte of a link
	// (hello, mesh port, address table, status and verdict at P ≤ 8), so
	// faults land on frames.
	handshakeBytes = 256
)

// fault is one planned injection: on the link rank dialer opened to rank
// peer, in the direction the dialer reads (read) or writes, at byte offset.
type fault struct {
	kind         faultKind
	dialer, peer int
	read         bool
	offset       int64
	bit          byte

	fired atomic.Int64 // unix nanos when the fault fired, 0 before
}

func (f *fault) String() string {
	dir := "→"
	if f.read {
		dir = "←"
	}
	return fmt.Sprintf("%s at byte %d of %d%s%d", f.kind, f.offset, f.dialer, dir, f.peer)
}

// linkStat is one dialed link's fault-free traffic, per direction.
type linkStat struct {
	dialer, peer int
	wrote, readN int64
}

// dialer is the transport's dial hook for one group: it wraps every dialed
// connection, identifies the link from the hello the transport writes
// first, and arms the planned fault on its link.
type dialer struct {
	rootAddr string
	plan     *fault // nil: count bytes only

	mu        sync.Mutex
	meshDials map[int]int // per dialing rank: mesh dials identified so far
	conns     []*faultyConn
}

func (d *dialer) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	fc := &faultyConn{Conn: c, d: d, toRoot: addr == d.rootAddr, dialer: -1}
	d.mu.Lock()
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

// identify names the link from the dialer's hello (magic, rank): a worker
// dials the root first, then mesh peers 1, 2, … in order.
func (d *dialer) identify(c *faultyConn, hello []byte) {
	d.mu.Lock()
	c.dialer = int(binary.LittleEndian.Uint32(hello[4:8]))
	if !c.toRoot {
		d.meshDials[c.dialer]++
		c.peer = d.meshDials[c.dialer]
	}
	d.mu.Unlock()
	if f := d.plan; f != nil && f.dialer == c.dialer && f.peer == c.peer {
		c.f = f
	}
}

func (d *dialer) stats() []linkStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []linkStat
	for _, c := range d.conns {
		if c.dialer >= 0 {
			out = append(out, linkStat{dialer: c.dialer, peer: c.peer, wrote: c.wrote.Load(), readN: c.readN.Load()})
		}
	}
	// Dial order races between ranks; the plan must not.
	sort.Slice(out, func(i, j int) bool {
		return out[i].dialer < out[j].dialer || out[i].dialer == out[j].dialer && out[i].peer < out[j].peer
	})
	return out
}

// faultyConn counts the bytes of one dialed link and applies its fault.
// Writes come from one goroutine at a time (the transport's write lock),
// reads from the link's single reader.
type faultyConn struct {
	net.Conn
	d            *dialer
	toRoot       bool
	dialer, peer int
	f            *fault // this link's fault, if any

	wrote, readN atomic.Int64 // raw bytes passed so far
	deadW, deadR bool         // a blackhole fired on writes / reads
	pending      []byte       // duplicated read bytes still to deliver
}

// hit reports whether the byte range [start, start+n) of the given
// direction holds the fault's offset, and if so where, marking it fired.
func (c *faultyConn) hit(read bool, start int64, n int) (at int, ok bool) {
	f := c.f
	if f == nil || f.read != read || f.offset < start || f.offset >= start+int64(n) {
		return 0, false
	}
	f.fired.CompareAndSwap(0, time.Now().UnixNano())
	return int(f.offset - start), true
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if c.dialer < 0 && len(b) >= 8 {
		c.d.identify(c, b)
	}
	start := c.wrote.Add(int64(len(b))) - int64(len(b))
	if c.deadW {
		return len(b), nil
	}
	at, ok := c.hit(false, start, len(b))
	if !ok {
		return c.Conn.Write(b)
	}
	switch c.f.kind {
	case stall:
		time.Sleep(faultTimeout / 4)
	case duplicate:
		if _, err := c.Conn.Write(b); err != nil {
			return 0, err
		}
	case flip:
		b = append([]byte(nil), b...)
		b[at] ^= 1 << c.f.bit
	case truncate:
		if _, err := c.Conn.Write(b[:at]); err != nil {
			return 0, err
		}
		return len(b), nil
	case blackhole:
		c.deadW = true
		if _, err := c.Conn.Write(b[:at]); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	if _, err := c.Conn.Write(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *faultyConn) Read(p []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	for {
		n, err := c.Conn.Read(p)
		start := c.readN.Add(int64(n)) - int64(n)
		if c.deadR {
			n = 0
		} else if at, ok := c.hit(true, start, n); ok {
			switch c.f.kind {
			case stall:
				time.Sleep(faultTimeout / 4)
			case duplicate:
				c.pending = append([]byte(nil), p[:n]...)
			case flip:
				p[at] ^= 1 << c.f.bit
			case truncate:
				n = at
			case blackhole:
				c.deadR = true
				n = at
			}
		}
		if n > 0 || err != nil {
			return n, err
		}
	}
}

// planFault picks, from the fault-free traffic of a group, a link and a
// direction that carried frames, and an offset inside them.
func planFault(rng *rand.Rand, kind faultKind, links []linkStat) *fault {
	type target struct {
		l    linkStat
		read bool
	}
	var cands []target
	for _, l := range links {
		if l.wrote > 2*handshakeBytes {
			cands = append(cands, target{l, false})
		}
		if l.readN > 2*handshakeBytes {
			cands = append(cands, target{l, true})
		}
	}
	t := cands[rng.Intn(len(cands))]
	n := t.l.wrote
	if t.read {
		n = t.l.readN
	}
	// Stay clear of the tail, which holds heartbeats whose count varies
	// from run to run: the offset is reached in every run.
	return &fault{
		kind: kind, dialer: t.l.dialer, peer: t.l.peer, read: t.read,
		offset: handshakeBytes + rng.Int63n(n*9/10-handshakeBytes),
		bit:    byte(rng.Intn(8)),
	}
}

// workload is what every rank of a cell runs; its result is compared bit
// for bit with the fault-free run.
type workload struct {
	name string
	run  func(c cluster.Comm) ([]float64, error)
}

var (
	problemOnce sync.Once
	problem     *engine.Problem
)

// engineWorkload is one OCT_MPI energy of a 300-atom molecule.
var engineWorkload = workload{"engine", func(c cluster.Comm) ([]float64, error) {
	problemOnce.Do(func() {
		problem = engine.NewProblem(molecule.GenerateProtein("faults", 300, 42), surface.Default())
	})
	rep, err := engine.RunRank(c, problem, engine.Options{Threads: 1})
	return []float64{rep.Energy}, err
}}

// collectiveWorkload moves 20 000 words through Allgatherv and
// AllreduceSum — more than two 8192-word chunks — so faults land inside
// multi-chunk streams.
var collectiveWorkload = workload{"collectives", func(c cluster.Comm) ([]float64, error) {
	const words = 20000
	p, rank := c.Size(), c.Rank()
	counts := make([]int, p)
	for r := range counts {
		counts[r] = words / p
	}
	counts[p-1] += words % p
	rng := rand.New(rand.NewSource(int64(rank + 1)))
	seg := make([]float64, counts[rank])
	for i := range seg {
		seg[i] = rng.NormFloat64()
	}
	out := make([]float64, words)
	if err := c.Allgatherv(seg, counts, out); err != nil {
		return nil, err
	}
	sum := make([]float64, words)
	for i := range sum {
		sum[i] = rng.NormFloat64()
	}
	if err := c.AllreduceSum(sum); err != nil {
		return nil, err
	}
	return append(out, sum...), nil
}}

// rankResult is one rank's outcome.
type rankResult struct {
	out []float64
	err error
	at  time.Time
}

// runGroup runs w on a loopback TCP group of p ranks whose
// dials go through a dialer armed with plan (nil: none), and returns every
// rank's outcome and the dialed links' traffic. Each rank closes its
// communicator when w returns, as a process would on exit.
func runGroup(t *testing.T, plan *fault, p int, w workload) ([]rankResult, []linkStat) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := &dialer{rootAddr: ln.Addr().String(), plan: plan, meshDials: map[int]int{}}
	defer cluster.SetTestDial(d.dial)()
	opts := []cluster.TCPOption{cluster.WithCommTimeout(faultTimeout)}
	res := make([]rankResult, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var c cluster.Comm
			var err error
			if r == 0 {
				c, err = cluster.NewTCPRoot(ln, p, opts...)
			} else {
				c, err = cluster.DialTCP(ln.Addr().String(), r, p, opts...)
			}
			if err != nil {
				res[r] = rankResult{err: fmt.Errorf("building rank %d: %w", r, err), at: time.Now()}
				return
			}
			out, err := w.run(c)
			res[r] = rankResult{out: out, err: err, at: time.Now()}
			c.(interface{ Close() error }).Close()
		}(r)
	}
	wg.Wait()
	return res, d.stats()
}

// baselines memoizes the fault-free outcome per (workload, P).
var baselines sync.Map

type baseline struct {
	out   []float64
	links []linkStat
}

func faultFree(t *testing.T, p int, w workload) baseline {
	t.Helper()
	key := fmt.Sprint(w.name, p)
	if b, ok := baselines.Load(key); ok {
		return b.(baseline)
	}
	res, links := runGroup(t, nil, p, w)
	for r, rr := range res {
		if rr.err != nil {
			t.Fatalf("fault-free run: rank %d: %v", r, rr.err)
		}
		if !sameBits(rr.out, res[0].out) {
			t.Fatalf("fault-free run: rank %d disagrees with rank 0", r)
		}
	}
	b := baseline{out: res[0].out, links: links}
	baselines.Store(key, b)
	return b
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runCell runs one cell of the matrix and checks the contract.
func runCell(t *testing.T, w workload, p int, kind faultKind, seed int64) {
	defer testutil.Watchdog(t, 60*time.Second)()
	base := faultFree(t, p, w)
	g0 := runtime.NumGoroutine()
	f := planFault(rand.New(rand.NewSource(seed<<8^int64(p)<<4^int64(kind))), kind, base.links)
	t.Logf("plan: %v", f)
	res, _ := runGroup(t, f, p, w)

	fired := f.fired.Load()
	if fired == 0 {
		t.Fatalf("%v never fired", f)
	}
	var first time.Time
	for r, rr := range res {
		if rr.err == nil {
			if !sameBits(rr.out, base.out) {
				t.Errorf("%v: rank %d returned a wrong result", f, r)
			}
			continue
		}
		var rf cluster.ErrRankFailed
		if !errors.As(rr.err, &rf) || rf.Rank < 0 || rf.Rank >= p {
			t.Errorf("%v: rank %d: want ErrRankFailed naming a rank, got %v", f, r, rr.err)
		}
		if first.IsZero() || rr.at.Before(first) {
			first = rr.at
		}
	}
	if first.IsZero() {
		t.Logf("%v: ridden out", f)
	} else {
		late := first.Sub(time.Unix(0, fired))
		t.Logf("%v: first ErrRankFailed %v after the fault", f, late.Round(time.Millisecond))
		if kind == stall {
			t.Errorf("%v: a stall of %v failed the run", f, faultTimeout/4)
		}
		if late > faultTimeout+detectSlack {
			t.Errorf("%v: first ErrRankFailed too late, budget %v", f, faultTimeout+detectSlack)
		}
	}
	if n := testutil.WaitGoroutines(g0, 2*faultTimeout); n > g0 {
		t.Errorf("%v: goroutine leak: %d live, %d before", f, n, g0)
	}
}

// TestFaultMatrix runs every fault class on the TCP mesh. Tier 1 runs
// P ∈ {2, 4} with seed 1; CHAOS_FULL=1 (`make chaos`) runs P ∈ {2, 4, 8}
// × seeds 1–8.
func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault matrix is not -short")
	}
	ps, seeds := []int{2, 4}, int64(1)
	if os.Getenv("CHAOS_FULL") != "" {
		ps, seeds = []int{2, 4, 8}, 8
	}
	for _, w := range []workload{engineWorkload, collectiveWorkload} {
		for _, p := range ps {
			if w.name == "collectives" && p != 4 && seeds == 1 {
				continue // tier 1: one collectives size
			}
			for _, kind := range faultKinds {
				for seed := int64(1); seed <= seeds; seed++ {
					name := fmt.Sprintf("%s/mesh/P=%d/%s/seed=%d", w.name, p, kind, seed)
					t.Run(name, func(t *testing.T) { runCell(t, w, p, kind, seed) })
				}
			}
		}
	}
}

// TestLocalRankErrorFailsPeers is the in-process half of the matrix (the
// in-process transport has no byte layer): a rank whose function returns
// an error, before the first collective or between two, must fail every
// peer with ErrRankFailed instead of leaving it blocked.
func TestLocalRankErrorFailsPeers(t *testing.T) {
	boom := errors.New("boom")
	for _, p := range []int{2, 3, 5} {
		for _, failing := range []int{0, p - 1} {
			for _, after := range []int{0, 1, 2} {
				errs := make([]error, p)
				done := make(chan error, 1)
				stop := testutil.Watchdog(t, 5*time.Second)
				go func() {
					done <- cluster.RunLocal(p, nil, func(c cluster.Comm) error {
						errs[c.Rank()] = func() error {
							for k := 0; k < 3; k++ {
								if c.Rank() == failing && k == after {
									return boom
								}
								if err := c.AllreduceSum([]float64{1}); err != nil {
									return err
								}
								counts := make([]int, p)
								for r := range counts {
									counts[r] = 1
								}
								if err := c.Allgatherv([]float64{1}, counts, make([]float64, p)); err != nil {
									return err
								}
							}
							return nil
						}()
						return errs[c.Rank()]
					})
				}()
				select {
				case err := <-done:
					stop()
					if !errors.Is(err, boom) {
						t.Errorf("P=%d rank %d fails after %d: RunLocal returned %v", p, failing, after, err)
					}
				case <-time.After(6 * time.Second):
					t.Fatalf("P=%d rank %d fails after %d: peers still blocked", p, failing, after)
				}
				for r, err := range errs {
					var rf cluster.ErrRankFailed
					if r != failing && (!errors.As(err, &rf) || !errors.Is(err, boom)) {
						t.Errorf("P=%d rank %d fails after %d: rank %d returned %v", p, failing, after, r, err)
					}
				}
			}
		}
	}
}
