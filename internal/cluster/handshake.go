package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"time"
)

// dial retry policy: bounded exponential backoff with deterministic
// per-rank jitter, so a worker starting before its peers (or before the
// root) converges instead of failing on the first connection refused.
const (
	dialAttempts    = 4
	dialBackoffBase = 50 * time.Millisecond
)

// testDial, when non-nil, replaces net.Dial in dialRetry: the one test hook
// of the transport, through which tests refuse dials (a failed mesh build)
// or hand the transport a faulty connection.
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
// handshake, so a rank whose peer could not dial it fails the build
// instead of blocking in Accept forever.
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
// communicator. It blocks until every worker has joined, the address table
// has been distributed, and every worker has reported its pairwise links
// complete. If one has not, it returns an error naming that rank's missing
// link, and so does every worker's DialTCP.
func NewTCPRoot(ln net.Listener, size int, opts ...TCPOption) (comm Comm, err error) {
	var cfg tcpConfig
	for _, o := range opts {
		o(&cfg)
	}
	if size < 1 {
		return nil, fmt.Errorf("cluster: size %d < 1", size)
	}
	conns := make([]*rankConn, size)
	defer func() {
		if err != nil {
			closeLinks(conns)
		}
	}()
	meshAddrs := make([]string, size)
	for joined := 1; joined < size; joined++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		rc := cfg.newLink(conn)
		var hello [8]byte
		if _, err := io.ReadFull(rc.r, hello[:]); err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: reading hello: %w", err)
		}
		if binary.LittleEndian.Uint32(hello[:4]) != tcpMagic {
			conn.Close()
			return nil, fmt.Errorf("cluster: bad magic from worker")
		}
		rank := int(binary.LittleEndian.Uint32(hello[4:]))
		if rank <= 0 || rank >= size || conns[rank] != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: bad or duplicate worker rank %d", rank)
		}
		rc.peer = rank
		conns[rank] = rc
		// The worker reports its private listen port; combined with the
		// address the connection came from it yields the peer-dialable
		// mesh address.
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
	// Broadcast the address table, then collect every worker's mesh build
	// status and broadcast the verdict: an all-ok barrier. The first
	// failure reported becomes every rank's error.
	table := strings.Join(meshAddrs[1:], "\n")
	for r := 1; r < size; r++ {
		if err := conns[r].writeBlob([]byte(table)); err != nil {
			return nil, fmt.Errorf("cluster: sending mesh table to rank %d: %w", r, err)
		}
	}
	verdict := []byte{1}
	for r := 1; r < size; r++ {
		status, err := conns[r].readBlob()
		if err != nil {
			return nil, fmt.Errorf("cluster: reading mesh status of rank %d: %w", r, err)
		}
		if len(status) != 1 || status[0] != 1 {
			if verdict[0] == 1 {
				verdict = status
			}
			cfg.log("cluster: rank %d reported mesh build failure", r)
		}
	}
	for r := 1; r < size; r++ {
		if err := conns[r].writeBlob(verdict); err != nil {
			return nil, fmt.Errorf("cluster: sending mesh verdict to rank %d: %w", r, err)
		}
	}
	if err := verdictErr(verdict); err != nil {
		return nil, err
	}
	return newMeshComm(0, size, conns, cfg), nil
}

// A mesh build status or verdict is the byte 1 when every link is up, or
// the byte 0 followed by the failure naming the rank and its missing link.
func failedStatus(err error) []byte { return append([]byte{0}, err.Error()...) }

func verdictErr(v []byte) error {
	if len(v) == 1 && v[0] == 1 {
		return nil
	}
	if len(v) > 0 {
		v = v[1:]
	}
	return fmt.Errorf("cluster: mesh build failed: %s", v)
}

// newLink wraps conn as a link with the transport's timeout and observer;
// the caller sets its peer once known.
func (c *tcpConfig) newLink(conn net.Conn) *rankConn {
	rc := newRankConn(conn)
	rc.timeout, rc.obs = c.timeout, c.obs
	return rc
}

// closeLinks closes every link built so far and returns the first error.
func closeLinks(conns []*rankConn) error {
	var first error
	for _, rc := range conns {
		if rc != nil {
			if err := rc.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// DialTCP connects worker `rank` (1 ≤ rank < size) to the root at addr,
// reports a private listen port, and joins the worker-to-worker mesh
// before returning. If any worker cannot complete its pairwise links, it
// returns the error that rank reported, naming the missing link.
func DialTCP(addr string, rank, size int, opts ...TCPOption) (comm Comm, err error) {
	var cfg tcpConfig
	for _, o := range opts {
		o(&cfg)
	}
	if rank <= 0 || rank >= size {
		return nil, fmt.Errorf("cluster: worker rank %d out of range (1..%d)", rank, size-1)
	}
	meshLn, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("cluster: mesh listen: %w", err)
	}
	defer meshLn.Close()
	conn, err := dialRetry(addr, int64(rank))
	if err != nil {
		return nil, err
	}
	conns := make([]*rankConn, size)
	defer func() {
		if err != nil {
			closeLinks(conns)
		}
	}()
	rc := cfg.newLink(conn)
	rc.peer = 0
	conns[0] = rc
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
	if _, err := rc.w.Write(hello[:]); err != nil {
		return nil, err
	}
	var pb [4]byte
	binary.LittleEndian.PutUint32(pb[:], uint32(meshLn.Addr().(*net.TCPAddr).Port))
	if _, err := rc.w.Write(pb[:]); err != nil {
		return nil, err
	}
	if err := rc.w.Flush(); err != nil {
		return nil, err
	}

	// Receive the address table, then build the mesh: dial every
	// lower-ranked worker (their listeners predate the root handshake, so
	// they are accepting or their backlog queues us), accept every
	// higher-ranked one. A failure is reported in the status round rather
	// than returned at once, so the root can fail every rank with it.
	blob, err := rc.readBlob()
	if err != nil {
		return nil, fmt.Errorf("cluster: reading mesh table: %w", err)
	}
	addrs := strings.Split(string(blob), "\n")
	if len(addrs) != size-1 {
		return nil, fmt.Errorf("cluster: mesh table has %d entries, want %d", len(addrs), size-1)
	}
	status := []byte{1}
	if meshErr := buildMesh(meshLn, addrs, rank, conns, cfg); meshErr != nil {
		status = failedStatus(meshErr)
		cfg.log("cluster: %v", meshErr)
	}
	if err := rc.writeBlob(status); err != nil {
		return nil, fmt.Errorf("cluster: sending mesh status: %w", err)
	}
	v, err := rc.readBlob()
	if err != nil {
		return nil, fmt.Errorf("cluster: reading mesh verdict: %w", err)
	}
	if err := verdictErr(v); err != nil {
		return nil, err
	}
	return newMeshComm(rank, size, conns, cfg), nil
}

// buildMesh opens worker rank's links to the other workers into conns:
// it dials every lower rank and accepts every higher one within
// meshBuildTimeout. The error names the rank and its first missing link.
func buildMesh(meshLn net.Listener, addrs []string, rank int, conns []*rankConn, cfg tcpConfig) error {
	size := len(conns)
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
	for peer := 1; peer < rank; peer++ {
		pc, err := dialRetry(addrs[peer-1], int64(rank)<<16|int64(peer))
		if err != nil {
			return fmt.Errorf("rank %d cannot link to rank %d: %w", rank, peer, err)
		}
		prc := cfg.newLink(pc)
		prc.peer = peer
		conns[peer] = prc
		if _, err := prc.w.Write(hello[:]); err != nil {
			return fmt.Errorf("rank %d cannot link to rank %d: %w", rank, peer, err)
		}
		if err := prc.w.Flush(); err != nil {
			return fmt.Errorf("rank %d cannot link to rank %d: %w", rank, peer, err)
		}
	}
	deadline := time.Now().Add(meshBuildTimeout(cfg.timeout))
	if tl, ok := meshLn.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for accepted := rank + 1; accepted < size; accepted++ {
		pc, err := meshLn.Accept()
		if err != nil {
			return fmt.Errorf("rank %d has no link from rank %d: %w", rank, firstMissing(conns, rank), err)
		}
		prc := cfg.newLink(pc)
		pc.SetReadDeadline(deadline)
		if _, err := io.ReadFull(prc.r, hello[:]); err != nil {
			pc.Close()
			return fmt.Errorf("rank %d has no link from rank %d: reading mesh hello: %w", rank, firstMissing(conns, rank), err)
		}
		pc.SetReadDeadline(time.Time{})
		peer := int(binary.LittleEndian.Uint32(hello[4:]))
		if binary.LittleEndian.Uint32(hello[:4]) != tcpMagic || peer <= rank || peer >= size || conns[peer] != nil {
			pc.Close()
			return fmt.Errorf("rank %d: bad mesh hello (peer %d)", rank, peer)
		}
		prc.peer = peer
		conns[peer] = prc
	}
	return nil
}

// firstMissing is the lowest rank above rank with no link yet.
func firstMissing(conns []*rankConn, rank int) int {
	for peer := rank + 1; peer < len(conns); peer++ {
		if conns[peer] == nil {
			return peer
		}
	}
	return -1
}
