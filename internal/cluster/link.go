package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/obs"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Op codes on the wire. 1 and 2 are retired: a frame carrying one fails to
// decode as an unknown op.
const (
	opTagged    = 3 // aux carries the message tag
	opHeartbeat = 4 // liveness keep-alive; consumed inside readFrame, never delivered
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

// rankConn is one framed, buffered TCP link. Writers serialize on wmu and
// each frame — header and payload — is marshaled into a single scratch
// buffer and handed to the socket in ONE buffered write + flush (the
// original path issued one write per float64). Reads are the mirror image:
// the payload is pulled in one bulk read into a byte scratch and decoded
// into a pooled []float64. Exactly one goroutine reads from a rankConn at
// a time (the mesh dedicates a reader goroutine per link; the handshake
// reads before it starts them).
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
// (always true without a timeout). The mesh's dedicated readers keep it
// current even between collectives.
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
	case op != opTagged && op != opHeartbeat:
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
