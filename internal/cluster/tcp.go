package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/obs"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// The TCP transport runs each rank in its own OS process. Two wirings are
// available:
//
//   - Star (default): rank 0 is the root of a star; workers send their
//     collective contributions to the root, the root combines them and
//     sends the result back. O(P·m) at the root, but simple, correct, and
//     what a mesh that cannot be built degrades to.
//   - Mesh (WithMesh, both sides): during the handshake every worker
//     reports a private listen port, the root broadcasts the address
//     table, and the workers connect pairwise. Collectives then run the
//     topology-aware algorithms of collectives.go over the mesh (recursive
//     doubling / ring), point-to-point messaging (Messenger) becomes
//     available, the non-blocking collective genuinely overlaps, and the
//     root is no longer a bandwidth bottleneck.
//
// Failure hardening (see failure.go for the model): every frame carries a
// per-link frame number and a CRC32C over header and payload, payload sizes
// are bounded so arbitrary bytes cannot force huge allocations, dials retry with exponential backoff + jitter, and with
// WithCommTimeout every read carries a deadline backed by per-link
// heartbeats — a silent peer surfaces as ErrRankFailed while a merely-slow
// one stays alive. If any worker cannot complete its pairwise mesh links,
// the whole group degrades to the star topology through the root instead
// of aborting (the "verdict round" below).
const tcpMagic = 0x0C7B

// kind codes on the wire.
const (
	opAllreduceSum = iota + 1
	opAllgatherv
	opTagged    // mesh frame: aux carries the message tag
	opHeartbeat // liveness keep-alive; consumed inside readFrame, never delivered
)

// maxFrameWords bounds a frame's payload (16M float64 words = 128 MiB) so a
// corrupted or hostile length field produces an error instead of an
// arbitrarily large allocation. maxBlobLen bounds the handshake blobs.
const (
	maxFrameWords = 1 << 24
	maxBlobLen    = 1 << 20
	maxReadStep   = 1 << 20 // bytes of payload read per step
)

// crcTable is the Castagnoli polynomial (CRC32C, hardware-accelerated on
// amd64/arm64) used for every frame checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func kindOfOp(op byte) string {
	if op == opAllgatherv {
		return "allgatherv"
	}
	return "allreduce"
}

// tcpConfig collects the transport options.
type tcpConfig struct {
	mesh    bool
	timeout time.Duration
	logf    func(format string, args ...any)
	obs     *obs.Observer
}

func (c *tcpConfig) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// TCPOption configures NewTCPRoot / DialTCP. Every rank of a group must be
// created with the same options.
type TCPOption func(*tcpConfig)

// WithMesh enables the worker-to-worker connection mesh and routes
// collectives through the topology-aware algorithms. Must be passed on the
// root and on every worker. If any worker cannot complete its pairwise
// links the group falls back to the star topology (all ranks return star
// communicators and the downgrade is logged through WithLogger).
func WithMesh() TCPOption { return func(c *tcpConfig) { c.mesh = true } }

// WithCommTimeout enables failure detection: every frame read carries a
// deadline of d, every link runs a heartbeat writer at a third of d (so
// slow compute phases between collectives never trip the deadline), and a
// peer silent for longer than d surfaces as ErrRankFailed through every
// collective and receive. Zero (the default) disables deadlines and
// heartbeats entirely. Must be passed with the same d on every rank.
func WithCommTimeout(d time.Duration) TCPOption { return func(c *tcpConfig) { c.timeout = d } }

// WithLogger attaches a printf-style logger for transport events worth
// surfacing in deployments: mesh degradation, dial retries. nil (the
// default) keeps the transport silent.
func WithLogger(logf func(format string, args ...any)) TCPOption {
	return func(c *tcpConfig) { c.logf = logf }
}

// WithObserver attaches an observability sink to this rank's transport:
// completed collectives record {kind, rank} latency histograms and byte
// counters, heartbeat inter-arrival gaps record a per-peer histogram, and
// Topo→Star degradations count into octgb_cluster_degradations_total. Nil
// (the default) keeps the transport instrumentation-free.
func WithObserver(ob *obs.Observer) TCPOption {
	return func(c *tcpConfig) { c.obs = ob }
}

// dial retry policy: bounded exponential backoff with deterministic
// per-rank jitter, so a worker starting before its peers (or before the
// root) converges instead of failing on the first connection refused.
const (
	dialAttempts    = 4
	dialBackoffBase = 50 * time.Millisecond
)

// testDial, when non-nil, replaces net.Dial in dialRetry: the one test hook
// of the transport, through which tests refuse dials (the Topo→Star
// degradation path) or hand the transport a faulty connection.
var testDial func(network, addr string) (net.Conn, error)

// dialRetry dials addr with bounded exponential backoff + jitter. seed
// makes the jitter deterministic per (rank, peer) pair.
func dialRetry(addr string, seed int64) (net.Conn, error) {
	rng := rand.New(rand.NewSource(seed))
	dial := net.Dial
	if testDial != nil {
		dial = testDial
	}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			backoff := dialBackoffBase << (attempt - 1)
			time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff/2)+1)))
		}
		c, err := dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dial %s failed after %d attempts: %w", addr, dialAttempts, lastErr)
}

// meshBuildTimeout bounds the worker-to-worker accept phase of the mesh
// handshake, so a peer whose dialer died degrades to star instead of
// blocking in Accept forever.
func meshBuildTimeout(t time.Duration) time.Duration {
	if t <= 0 {
		return 10 * time.Second
	}
	bt := 4 * t
	if bt < time.Second {
		bt = time.Second
	}
	return bt
}

// NewTCPRoot accepts size−1 worker connections on ln and returns rank 0's
// communicator. It blocks until all workers have joined (and, with
// WithMesh, until the address table has been distributed and every worker
// has reported its mesh build status).
func NewTCPRoot(ln net.Listener, size int, opts ...TCPOption) (Comm, error) {
	var cfg tcpConfig
	for _, o := range opts {
		o(&cfg)
	}
	if size < 1 {
		return nil, fmt.Errorf("cluster: size %d < 1", size)
	}
	conns := make([]*rankConn, size)
	meshAddrs := make([]string, size)
	for joined := 1; joined < size; joined++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		rc := newRankConn(conn)
		var hello [8]byte
		if _, err := io.ReadFull(rc.r, hello[:]); err != nil {
			return nil, fmt.Errorf("cluster: reading hello: %w", err)
		}
		if binary.LittleEndian.Uint32(hello[:4]) != tcpMagic {
			return nil, fmt.Errorf("cluster: bad magic from worker")
		}
		rank := int(binary.LittleEndian.Uint32(hello[4:]))
		if rank <= 0 || rank >= size || conns[rank] != nil {
			return nil, fmt.Errorf("cluster: bad or duplicate worker rank %d", rank)
		}
		rc.peer = rank
		rc.timeout = cfg.timeout
		rc.obs = cfg.obs
		conns[rank] = rc
		if cfg.mesh {
			// Mesh handshake extension: the worker reports its private
			// listen port; combined with the address the connection came
			// from it yields the peer-dialable mesh address.
			var pb [4]byte
			if _, err := io.ReadFull(rc.r, pb[:]); err != nil {
				return nil, fmt.Errorf("cluster: reading mesh port of rank %d: %w", rank, err)
			}
			port := int(binary.LittleEndian.Uint32(pb[:]))
			host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
			if err != nil {
				return nil, fmt.Errorf("cluster: mesh address of rank %d: %w", rank, err)
			}
			meshAddrs[rank] = net.JoinHostPort(host, fmt.Sprint(port))
		}
	}
	if !cfg.mesh {
		root := &tcpRoot{size: size, conns: conns, obs: cfg.obs}
		root.startHeartbeats()
		return root, nil
	}
	// Broadcast the address table, then collect every worker's mesh build
	// status and broadcast the verdict: all-ok switches the star links into
	// tagged-frame mode (the root's links double as its pairwise mesh
	// links); any failure degrades the whole group to the star topology.
	table := strings.Join(meshAddrs[1:], "\n")
	for r := 1; r < size; r++ {
		if err := conns[r].writeBlob([]byte(table)); err != nil {
			return nil, fmt.Errorf("cluster: sending mesh table to rank %d: %w", r, err)
		}
	}
	meshOK := true
	for r := 1; r < size; r++ {
		status, err := conns[r].readBlob()
		if err != nil {
			return nil, fmt.Errorf("cluster: reading mesh status of rank %d: %w", r, err)
		}
		if len(status) != 1 || status[0] != 1 {
			meshOK = false
			cfg.log("cluster: rank %d reported mesh build failure", r)
		}
	}
	verdict := []byte{0}
	if meshOK {
		verdict[0] = 1
	}
	for r := 1; r < size; r++ {
		if err := conns[r].writeBlob(verdict); err != nil {
			return nil, fmt.Errorf("cluster: sending mesh verdict to rank %d: %w", r, err)
		}
	}
	if !meshOK {
		cfg.log("cluster: degrading collectives Topo→Star: routing through the root")
		recordDegradation(cfg.obs)
		root := &tcpRoot{size: size, conns: conns, obs: cfg.obs}
		root.startHeartbeats()
		return root, nil
	}
	return newMeshComm(0, size, conns, cfg), nil
}

// DialTCP connects worker `rank` (1 ≤ rank < size) to the root at addr.
// With WithMesh it also opens a listener, reports it to the root, and
// joins the worker-to-worker mesh before returning (or falls back to the
// star if the group's verdict is that the mesh could not be built).
func DialTCP(addr string, rank, size int, opts ...TCPOption) (Comm, error) {
	var cfg tcpConfig
	for _, o := range opts {
		o(&cfg)
	}
	if rank <= 0 || rank >= size {
		return nil, fmt.Errorf("cluster: worker rank %d out of range (1..%d)", rank, size-1)
	}
	var meshLn net.Listener
	if cfg.mesh {
		var err error
		meshLn, err = net.Listen("tcp", ":0")
		if err != nil {
			return nil, fmt.Errorf("cluster: mesh listen: %w", err)
		}
		defer meshLn.Close()
	}
	conn, err := dialRetry(addr, int64(rank))
	if err != nil {
		return nil, err
	}
	rc := newRankConn(conn)
	rc.peer = 0
	rc.timeout = cfg.timeout
	rc.obs = cfg.obs
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
	if _, err := rc.w.Write(hello[:]); err != nil {
		return nil, err
	}
	if cfg.mesh {
		var pb [4]byte
		binary.LittleEndian.PutUint32(pb[:], uint32(meshLn.Addr().(*net.TCPAddr).Port))
		if _, err := rc.w.Write(pb[:]); err != nil {
			return nil, err
		}
	}
	if err := rc.w.Flush(); err != nil {
		return nil, err
	}
	if !cfg.mesh {
		w := &tcpWorker{rank: rank, size: size, conn: rc, obs: cfg.obs}
		rc.startHeartbeat()
		return w, nil
	}

	// Receive the address table, then build the mesh: dial every
	// lower-ranked worker (their listeners predate the root handshake, so
	// they are accepting or their backlog queues us), accept every
	// higher-ranked one. Failures are collected rather than returned: the
	// status/verdict round with the root decides whether the group runs
	// the mesh or degrades to the star.
	blob, err := rc.readBlob()
	if err != nil {
		return nil, fmt.Errorf("cluster: reading mesh table: %w", err)
	}
	addrs := strings.Split(string(blob), "\n")
	if len(addrs) != size-1 {
		return nil, fmt.Errorf("cluster: mesh table has %d entries, want %d", len(addrs), size-1)
	}
	conns := make([]*rankConn, size)
	conns[0] = rc
	var meshErr error
	for peer := 1; peer < rank; peer++ {
		var pc net.Conn
		pc, meshErr = dialRetry(addrs[peer-1], int64(rank)<<16|int64(peer))
		if meshErr != nil {
			break
		}
		prc := newRankConn(pc)
		prc.peer = peer
		prc.timeout = cfg.timeout
		prc.obs = cfg.obs
		binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
		binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
		if _, err := prc.w.Write(hello[:]); err != nil {
			meshErr = err
			break
		}
		if err := prc.w.Flush(); err != nil {
			meshErr = err
			break
		}
		conns[peer] = prc
	}
	if meshErr == nil {
		deadline := time.Now().Add(meshBuildTimeout(cfg.timeout))
		if tl, ok := meshLn.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		for accepted := rank + 1; accepted < size; accepted++ {
			pc, err := meshLn.Accept()
			if err != nil {
				meshErr = fmt.Errorf("cluster: accepting mesh peer: %w", err)
				break
			}
			prc := newRankConn(pc)
			pc.SetReadDeadline(deadline)
			if _, err := io.ReadFull(prc.r, hello[:]); err != nil {
				meshErr = fmt.Errorf("cluster: reading mesh hello: %w", err)
				break
			}
			pc.SetReadDeadline(time.Time{})
			if binary.LittleEndian.Uint32(hello[:4]) != tcpMagic {
				meshErr = fmt.Errorf("cluster: bad mesh magic")
				break
			}
			peer := int(binary.LittleEndian.Uint32(hello[4:]))
			if peer <= rank || peer >= size || conns[peer] != nil {
				meshErr = fmt.Errorf("cluster: bad or duplicate mesh peer %d", peer)
				break
			}
			prc.peer = peer
			prc.timeout = cfg.timeout
			prc.obs = cfg.obs
			conns[peer] = prc
		}
	}
	status := []byte{1}
	if meshErr != nil {
		status[0] = 0
		cfg.log("cluster: rank %d: mesh build failed: %v", rank, meshErr)
	}
	if err := rc.writeBlob(status); err != nil {
		return nil, fmt.Errorf("cluster: sending mesh status: %w", err)
	}
	v, err := rc.readBlob()
	if err != nil {
		return nil, fmt.Errorf("cluster: reading mesh verdict: %w", err)
	}
	if len(v) == 1 && v[0] == 1 {
		return newMeshComm(rank, size, conns, cfg), nil
	}
	// Degrade: tear down the worker-to-worker links, keep the root link,
	// and run the star protocol through the root.
	for peer := 1; peer < size; peer++ {
		if conns[peer] != nil {
			conns[peer].close()
		}
	}
	cfg.log("cluster: rank %d: mesh unavailable, degrading collectives Topo→Star via root", rank)
	recordDegradation(cfg.obs)
	w := &tcpWorker{rank: rank, size: size, conn: rc, obs: cfg.obs}
	rc.startHeartbeat()
	return w, nil
}

// rankConn is one framed, buffered TCP link. Writers serialize on wmu and
// each frame — header and payload — is marshaled into a single scratch
// buffer and handed to the socket in ONE buffered write + flush (the
// original path issued one write per float64). Reads are the mirror image:
// the payload is pulled in one bulk read into a byte scratch and decoded
// into a pooled []float64. Exactly one goroutine reads from a rankConn at
// a time (the star collectives hold their communicator mutex; the mesh
// dedicates a reader goroutine per link).
//
// Every frame carries a frame number, counted per link by the writer under
// wmu and checked by the single reader, and a CRC32C over its header and
// payload. A checksum mismatch (bit rot, desynchronized stream), a
// frame-number gap (a duplicated or lost frame), an unknown op or an
// oversized length surfaces as ErrRankFailed{peer}, never as silent
// corruption. With a non-zero timeout, reads carry per-frame deadlines
// refreshed by the peer's heartbeat frames, and a tripped deadline surfaces
// as ErrRankFailed{peer} too.
type rankConn struct {
	c    net.Conn
	r    *bufio.Reader
	peer int // rank at the other end, for failure attribution (-1 unknown)
	obs  *obs.Observer

	timeout  time.Duration // 0 = no deadlines, no heartbeats
	lastSeen atomic.Int64  // unix nanos of the last frame received
	lastHB   int64         // unix nanos of the last heartbeat frame, single-reader
	hbStop   chan struct{}
	hbOnce   sync.Once

	wmu      sync.Mutex
	w        *bufio.Writer
	wseq     uint32 // number of the next frame written, guarded by wmu
	scratch  []byte // write marshaling buffer, guarded by wmu
	rseq     uint32 // number of the next frame expected, single-reader
	rscratch []byte // read decode buffer, single-reader
}

func newRankConn(c net.Conn) *rankConn {
	rc := &rankConn{c: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16), peer: -1}
	rc.lastSeen.Store(time.Now().UnixNano())
	return rc
}

// startHeartbeat launches the keep-alive writer (no-op without a timeout).
// A write that times out is backpressure — the peer's buffers are full but
// the socket is up — so the writer skips that beat; any other write error
// terminates it (the read side will attribute the dead link).
func (rc *rankConn) startHeartbeat() {
	if rc.timeout <= 0 || rc.hbStop != nil {
		return
	}
	rc.hbStop = make(chan struct{})
	go func(stop chan struct{}) {
		t := time.NewTicker(heartbeatInterval(rc.timeout))
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := rc.writeFrame(opHeartbeat, 0, nil); err != nil {
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						continue
					}
					return
				}
			}
		}
	}(rc.hbStop)
}

// close shuts the link down and stops its heartbeat writer.
func (rc *rankConn) close() error {
	if rc.hbStop != nil {
		rc.hbOnce.Do(func() { close(rc.hbStop) })
	}
	return rc.c.Close()
}

// alive reports whether the peer has been heard from within 2× the timeout
// (always true without a timeout). Liveness is as of the last read on this
// link: the mesh's dedicated readers keep it current; the star transports
// update it only while a collective is draining the link.
func (rc *rankConn) alive() bool {
	if rc.timeout <= 0 {
		return true
	}
	return time.Since(time.Unix(0, rc.lastSeen.Load())) < 2*rc.timeout
}

// frameHdrLen is op(1) + aux(4) + n(4) + frame number(4) + crc32c(4).
const frameHdrLen = 17

// frameCRC is the CRC32C of a frame: its first 13 header bytes, then the
// payload bytes.
func frameCRC(hdr, raw []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:13], crcTable), crcTable, raw)
}

// writeFrame frames: op byte, aux uint32, n uint32, frame number uint32,
// crc32c uint32, then n float64 payload words — marshaled and written as a
// single buffered write.
func (rc *rankConn) writeFrame(op byte, aux uint32, payload []float64) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	need := frameHdrLen + 8*len(payload)
	if cap(rc.scratch) < need {
		rc.scratch = make([]byte, need)
	}
	b := rc.scratch[:need]
	b[0] = op
	binary.LittleEndian.PutUint32(b[1:5], aux)
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[9:13], rc.wseq)
	rc.wseq++
	for i, v := range payload {
		binary.LittleEndian.PutUint64(b[frameHdrLen+8*i:], floatBits(v))
	}
	binary.LittleEndian.PutUint32(b[13:17], frameCRC(b, b[frameHdrLen:]))
	if rc.timeout > 0 {
		rc.c.SetWriteDeadline(time.Now().Add(rc.timeout))
	}
	if _, err := rc.w.Write(b); err != nil {
		return rc.failWrite(err)
	}
	if err := rc.w.Flush(); err != nil {
		return rc.failWrite(err)
	}
	return nil
}

// readFrame reads one frame, transparently consuming heartbeat frames (each
// received frame — heartbeats included — refreshes the read deadline, which
// is how a slow-but-alive peer stays undetected as failed); the payload
// arrives in a pooled buffer that the consumer releases with
// putBuf/ReleaseBuffer.
func (rc *rankConn) readFrame() (op byte, aux uint32, payload []float64, err error) {
	for {
		op, aux, payload, err = rc.readFrameOnce()
		if err != nil || op != opHeartbeat {
			return
		}
		putBuf(payload)
	}
}

func (rc *rankConn) readFrameOnce() (op byte, aux uint32, payload []float64, err error) {
	if rc.timeout > 0 {
		rc.c.SetReadDeadline(time.Now().Add(rc.timeout))
	}
	var hdr [frameHdrLen]byte
	if _, err = io.ReadFull(rc.r, hdr[:]); err != nil {
		return 0, 0, nil, rc.failRead(err)
	}
	op = hdr[0]
	aux = binary.LittleEndian.Uint32(hdr[1:5])
	n := int(binary.LittleEndian.Uint32(hdr[5:9]))
	seq := binary.LittleEndian.Uint32(hdr[9:13])
	switch {
	case seq != rc.rseq:
		return 0, 0, nil, rc.badFrame("frame number %d, want %d", seq, rc.rseq)
	case op < opAllreduceSum || op > opHeartbeat:
		return 0, 0, nil, rc.badFrame("unknown op %d", op)
	case n > maxFrameWords:
		return 0, 0, nil, rc.badFrame("payload %d words exceeds limit %d", n, maxFrameWords)
	}
	if rc.timeout > 0 {
		rc.c.SetReadDeadline(time.Now().Add(rc.timeout))
	}
	// The scratch grows by at most maxReadStep per read, so memory follows
	// the bytes that actually arrive, not a damaged length field.
	raw := rc.rscratch[:0]
	for need := 8 * n; len(raw) < need; {
		k := min(need-len(raw), maxReadStep)
		raw = slices.Grow(raw, k)[:len(raw)+k]
		if _, err = io.ReadFull(rc.r, raw[len(raw)-k:]); err != nil {
			return 0, 0, nil, rc.failRead(err)
		}
	}
	rc.rscratch = raw
	if got, want := frameCRC(hdr[:], raw), binary.LittleEndian.Uint32(hdr[13:17]); got != want {
		return 0, 0, nil, rc.badFrame("CRC32C mismatch (got %08x, want %08x)", got, want)
	}
	rc.rseq++
	now := time.Now().UnixNano()
	rc.lastSeen.Store(now)
	if op == opHeartbeat {
		// Heartbeat inter-arrival gap: the liveness health signal. lastHB
		// is single-reader state (exactly one goroutine reads a rankConn).
		if rc.lastHB != 0 {
			recordHeartbeatGap(rc.obs, rc.peer, time.Duration(now-rc.lastHB))
		}
		rc.lastHB = now
	}
	payload = getBuf(n)
	for i := range payload {
		payload[i] = floatFromBits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return op, aux, payload, nil
}

// badFrame reports a frame that failed to decode. The stream can no longer
// be trusted, so the link's peer is failed.
func (rc *rankConn) badFrame(format string, args ...any) error {
	return ErrRankFailed{Rank: rc.peer, Cause: fmt.Errorf("cluster: bad frame: "+format, args...)}
}

// failRead types read errors: a deadline expiry (peer silent past the
// timeout despite heartbeats) and hard link errors (EOF, connection
// reset — the peer's end is conclusively gone) both become the typed
// rank failure. Only our own side closing the socket stays untyped:
// that is shutdown, not a peer death.
func (rc *rankConn) failRead(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return err
	}
	return ErrRankFailed{Rank: rc.peer, Cause: err}
}

// failWrite types write errors: a broken pipe or reset means the peer is
// conclusively gone, but a write *timeout* stays untyped — a full TCP
// window is a slow reader, not a dead one — as does our own shutdown.
func (rc *rankConn) failWrite(err error) error {
	var ne net.Error
	if (errors.As(err, &ne) && ne.Timeout()) || errors.Is(err, net.ErrClosed) {
		return err
	}
	return ErrRankFailed{Rank: rc.peer, Cause: err}
}

// readMsg reads one star frame, which must carry wantOp: a different op
// means the peer's stream is out of step with ours, a failed link.
func (rc *rankConn) readMsg(wantOp byte) ([]float64, error) {
	op, _, payload, err := rc.readFrame()
	if err != nil {
		return nil, err
	}
	if op != wantOp {
		putBuf(payload)
		return nil, rc.badFrame("op %d, want %d", op, wantOp)
	}
	return payload, nil
}

// writeBlob / readBlob frame raw bytes (the mesh handshake: address table,
// status, verdict). Handshake traffic predates the heartbeat writers, so
// blobs carry no deadline management.
func (rc *rankConn) writeBlob(b []byte) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := rc.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := rc.w.Write(b); err != nil {
		return err
	}
	return rc.w.Flush()
}

func (rc *rankConn) readBlob() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rc.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxBlobLen {
		return nil, fmt.Errorf("cluster: blob length %d exceeds limit %d", n, maxBlobLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rc.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Star transport (default wiring and mesh fallback)
// ---------------------------------------------------------------------------

// tcpRoot is rank 0 of the star.
type tcpRoot struct {
	size  int
	conns []*rankConn // index by rank; [0] nil
	obs   *obs.Observer
	mu    sync.Mutex
	err   error // first link failure, guarded by mu
}

func (c *tcpRoot) Rank() int { return 0 }
func (c *tcpRoot) Size() int { return c.size }

func (c *tcpRoot) startHeartbeats() {
	for _, rc := range c.conns {
		if rc != nil {
			rc.startHeartbeat()
		}
	}
}

// Close tears down every worker link and stops the heartbeat writers.
func (c *tcpRoot) Close() error {
	var first error
	for _, rc := range c.conns {
		if rc != nil {
			if err := rc.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// AliveRanks implements FailureDetector (star liveness is as of the last
// collective that drained each link; see rankConn.alive).
func (c *tcpRoot) AliveRanks() []bool {
	alive := make([]bool, c.size)
	alive[0] = true
	for r := 1; r < c.size; r++ {
		alive[r] = c.conns[r] != nil && c.conns[r].alive()
	}
	return alive
}

// collect gathers every worker's payload for op, combines (with the root's
// own contribution) and sends the per-rank results back. combine receives
// payloads indexed by rank (root's own in slot 0) and returns the result
// for each rank (often the same slice for all). A link failure is sticky:
// the workers that did reach this collective wait for a reply that will
// not come, so every later collective fails at once instead of waiting on
// them (their heartbeats would keep the wait alive forever).
func (c *tcpRoot) collect(op byte, own []float64, combine func(bufs [][]float64) [][]float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	start := time.Now()
	bufs := make([][]float64, c.size)
	bufs[0] = own
	for r := 1; r < c.size; r++ {
		p, err := c.conns[r].readMsg(op)
		if err != nil {
			c.err = fmt.Errorf("cluster: root reading rank %d: %w", r, err)
			return nil, c.err
		}
		bufs[r] = p
	}
	results := combine(bufs)
	for r := 1; r < c.size; r++ {
		putBuf(bufs[r]) // worker contributions decoded into pooled buffers
		if err := c.conns[r].writeFrame(op, 0, results[r]); err != nil {
			c.err = fmt.Errorf("cluster: root replying to rank %d: %w", r, err)
			return nil, c.err
		}
	}
	recordCollective(c.obs, kindOfOp(op), 0, len(results[0]), start)
	return results[0], nil
}

func sameForAll(size int, res []float64) [][]float64 {
	out := make([][]float64, size)
	for i := range out {
		out[i] = res
	}
	return out
}

func (c *tcpRoot) AllreduceSum(buf []float64) error {
	res, err := c.collect(opAllreduceSum, buf, func(bufs [][]float64) [][]float64 {
		out := make([]float64, len(buf))
		for _, b := range bufs {
			for i, v := range b {
				out[i] += v
			}
		}
		return sameForAll(c.size, out)
	})
	if err != nil {
		return err
	}
	copy(buf, res)
	return nil
}

func (c *tcpRoot) Allgatherv(segment []float64, counts []int, out []float64) error {
	res, err := c.collect(opAllgatherv, segment, func(bufs [][]float64) [][]float64 {
		total := 0
		for _, n := range counts {
			total += n
		}
		cat := make([]float64, 0, total)
		for r := 0; r < c.size; r++ {
			cat = append(cat, bufs[r]...)
		}
		return sameForAll(c.size, cat)
	})
	if err != nil {
		return err
	}
	if len(res) != len(out) {
		return fmt.Errorf("cluster: Allgatherv length mismatch: %d vs %d", len(res), len(out))
	}
	copy(out, res)
	return nil
}

// IAllreduceSum completes synchronously (the star cannot overlap).
func (c *tcpRoot) IAllreduceSum(buf []float64) Request { return doneRequest(c.AllreduceSum(buf)) }

// tcpWorker is a rank ≥ 1 of the star.
type tcpWorker struct {
	rank, size int
	conn       *rankConn
	obs        *obs.Observer
	mu         sync.Mutex
	err        error // first link failure, sticky as on the root; guarded by mu
}

func (c *tcpWorker) Rank() int { return c.rank }
func (c *tcpWorker) Size() int { return c.size }

// Close tears down the root link and stops the heartbeat writer.
func (c *tcpWorker) Close() error { return c.conn.close() }

func (c *tcpWorker) roundTrip(op byte, payload []float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	start := time.Now()
	if c.err = c.conn.writeFrame(op, 0, payload); c.err != nil {
		return nil, c.err
	}
	res, err := c.conn.readMsg(op)
	if c.err = err; err == nil {
		recordCollective(c.obs, kindOfOp(op), c.rank, len(res), start)
	}
	return res, err
}

func (c *tcpWorker) AllreduceSum(buf []float64) error {
	res, err := c.roundTrip(opAllreduceSum, buf)
	if err != nil {
		return err
	}
	copy(buf, res)
	putBuf(res)
	return nil
}

func (c *tcpWorker) Allgatherv(segment []float64, counts []int, out []float64) error {
	res, err := c.roundTrip(opAllgatherv, segment)
	if err != nil {
		return err
	}
	if len(res) != len(out) {
		putBuf(res)
		return fmt.Errorf("cluster: Allgatherv length mismatch: %d vs %d", len(res), len(out))
	}
	copy(out, res)
	putBuf(res)
	return nil
}

// IAllreduceSum completes synchronously (the star cannot overlap).
func (c *tcpWorker) IAllreduceSum(buf []float64) Request { return doneRequest(c.AllreduceSum(buf)) }

// ---------------------------------------------------------------------------
// Mesh transport
// ---------------------------------------------------------------------------

// meshComm is one rank of the fully-connected transport: a pairwise link
// to every peer (the root's star connections double as its links), a
// dedicated reader goroutine per link demultiplexing tagged frames into
// per-peer mailboxes, and the topology-aware collectives on top. It
// implements Comm, Messenger and FailureDetector.
type meshComm struct {
	rank, size int
	links      []*rankConn // index by peer; [rank] nil
	boxes      []*tagBox   // per-peer incoming messages (incl. self)
	coll       coll
}

func newMeshComm(rank, size int, links []*rankConn, cfg tcpConfig) *meshComm {
	mc := &meshComm{rank: rank, size: size, links: links, boxes: make([]*tagBox, size)}
	for i := range mc.boxes {
		mc.boxes[i] = newTagBox()
	}
	mc.coll.pw = mc
	mc.coll.obs = cfg.obs
	for peer := range links {
		if links[peer] != nil {
			links[peer].startHeartbeat()
			go mc.readLoop(peer)
		}
	}
	return mc
}

// readLoop demultiplexes one link's frames into the peer's mailbox; on
// connection loss, peer silence past the timeout or a frame that fails to
// decode the mailbox is poisoned (with ErrRankFailed when attributable) so
// pending and future receives — and through them every in-flight
// collective — error out instead of hanging.
func (mc *meshComm) readLoop(peer int) {
	rc := mc.links[peer]
	for {
		op, tag, payload, err := rc.readFrame()
		if err == nil && op != opTagged {
			putBuf(payload)
			err = rc.badFrame("op %d on a mesh link", op)
		}
		if err != nil {
			var rf ErrRankFailed
			if !errors.As(err, &rf) {
				err = fmt.Errorf("cluster: mesh link to rank %d: %w", peer, err)
			}
			mc.boxes[peer].fail(err)
			return
		}
		mc.boxes[peer].put(int(tag), payload)
	}
}

func (mc *meshComm) Rank() int { return mc.rank }
func (mc *meshComm) Size() int { return mc.size }

// AliveRanks implements FailureDetector; the per-link reader goroutines
// keep liveness current even between collectives.
func (mc *meshComm) AliveRanks() []bool {
	alive := make([]bool, mc.size)
	for r := range alive {
		alive[r] = r == mc.rank || (mc.links[r] != nil && mc.links[r].alive())
	}
	return alive
}

func (mc *meshComm) sendTag(to, tag int, data []float64) error {
	if to == mc.rank {
		buf := getBuf(len(data))
		copy(buf, data)
		mc.boxes[mc.rank].put(tag, buf)
		return nil
	}
	return mc.links[to].writeFrame(opTagged, uint32(tag), data)
}

func (mc *meshComm) recvTag(from, tag int) ([]float64, error) {
	return mc.boxes[from].take(tag)
}

func (mc *meshComm) AllreduceSum(buf []float64) error { return mc.coll.AllreduceSum(buf) }
func (mc *meshComm) Allgatherv(segment []float64, counts []int, out []float64) error {
	return mc.coll.Allgatherv(segment, counts, out)
}

func (mc *meshComm) IAllreduceSum(buf []float64) Request { return mc.coll.IAllreduceSum(buf) }

func (mc *meshComm) Send(to int, data []float64) error {
	if to < 0 || to >= mc.size {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	return mc.sendTag(to, tagP2P, data)
}

func (mc *meshComm) Recv(from int) ([]float64, error) {
	if from < 0 || from >= mc.size {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	return mc.recvTag(from, tagP2P)
}

// Close tears the mesh down: heartbeat writers stop and all links are
// closed, which terminates the reader goroutines and poisons the mailboxes.
func (mc *meshComm) Close() error {
	var first error
	for _, rc := range mc.links {
		if rc != nil {
			if err := rc.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
