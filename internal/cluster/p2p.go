package cluster

import (
	"fmt"
	"sync"
)

// Messenger is the optional point-to-point extension of Comm. The
// in-process transport implements it, and so does the TCP transport when
// the worker-to-worker mesh is enabled (WithMesh); it backs the
// distributed-data engine (the paper's §VI future work), whose ghost
// exchange is naturally pairwise rather than collective. Callers type-assert:
//
//	if msgr, ok := c.(cluster.Messenger); ok { ... }
type Messenger interface {
	// Send delivers a copy of data to rank `to`. Sends to the same
	// destination are received in order. Send never blocks (mailboxes are
	// unbounded), which keeps exchange protocols where every rank sends
	// everything before receiving anything deadlock-free.
	Send(to int, data []float64) error
	// Recv blocks until a message from rank `from` arrives. The returned
	// slice is owned by the caller; hand it back with ReleaseBuffer once
	// its contents have been consumed to recycle the allocation.
	Recv(from int) ([]float64, error)
}

// Message tags. User point-to-point traffic (Messenger) travels on tagP2P;
// every collective operation draws a fresh tag from its communicator's
// sequence counter (collectives.go), so collective rounds never mix with
// each other or with ghost-exchange traffic even when a non-blocking
// collective is still in flight.
const tagP2P = 0

// ---------------------------------------------------------------------------
// float64 message-buffer pool
// ---------------------------------------------------------------------------

// bufPool recycles []float64 message buffers. Send copies the caller's
// data into a pooled buffer, collective stages recycle their scratch, and
// the TCP readers decode frames into pooled buffers — so a large ghost
// exchange or a long collective sweep reaches a steady state with no
// allocation in the hot path instead of churning the GC.
var bufPool sync.Pool

// getBuf returns a length-n buffer, reusing pooled capacity when possible.
func getBuf(n int) []float64 {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]float64))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// putBuf recycles a buffer obtained from getBuf (or any slice whose owner
// is done with it).
func putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// ReleaseBuffer hands a slice returned by Messenger.Recv back to the
// transport's buffer pool. Optional — an unreleased buffer is simply
// garbage-collected — but releasing keeps large repeated exchanges (ghost
// payloads, collective sweeps) allocation-free. The caller must not touch
// the slice afterwards.
func ReleaseBuffer(b []float64) { putBuf(b) }

// ---------------------------------------------------------------------------
// Tag-matching mailbox
// ---------------------------------------------------------------------------

// taggedMsg is one in-flight payload on a (from, to) pair.
type taggedMsg struct {
	tag  int
	data []float64
}

// tagBox is an unbounded tag-matching FIFO for one directed (from, to)
// pair: put appends, take removes the FIRST message whose tag matches
// (messages with the same tag are therefore received in send order, while
// different tags — concurrent collectives, p2p traffic — pass each other
// freely, MPI-style). fail poisons the box: every current and future take
// that finds no matching queued message returns the error (used by the
// TCP readers on a failed link and by LocalGroup.Run on a failed rank, so
// a dead peer produces errors, not hangs).
type tagBox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []taggedMsg
	err   error
}

func newTagBox() *tagBox {
	b := &tagBox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *tagBox) put(tag int, data []float64) {
	b.mu.Lock()
	b.queue = append(b.queue, taggedMsg{tag: tag, data: data})
	// Broadcast, not Signal: waiters may be blocked on different tags.
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *tagBox) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *tagBox) take(tag int) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i := range b.queue {
			if b.queue[i].tag == tag {
				msg := b.queue[i].data
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return msg, nil
			}
		}
		if b.err != nil {
			return nil, b.err
		}
		b.cond.Wait()
	}
}

// ---------------------------------------------------------------------------
// In-process Messenger implementation
// ---------------------------------------------------------------------------

// box returns the (from, to) mailbox from the grid pre-built at
// NewLocalGroup time — plain indexing, no group-wide lock on the Send/Recv
// path (the old lazily-populated map took the group mutex on every call).
func (g *LocalGroup) box(from, to int) *tagBox {
	return g.grid[from*g.size+to]
}

func (c *localComm) sendTag(to, tag int, data []float64) error {
	buf := getBuf(len(data))
	copy(buf, data)
	c.g.box(c.rank, to).put(tag, buf)
	return nil
}

func (c *localComm) recvTag(from, tag int) ([]float64, error) {
	return c.g.box(from, c.rank).take(tag)
}

func (c *localComm) Send(to int, data []float64) error {
	if to < 0 || to >= c.g.size {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	return c.sendTag(to, tagP2P, data)
}

func (c *localComm) Recv(from int) ([]float64, error) {
	if from < 0 || from >= c.g.size {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	return c.recvTag(from, tagP2P)
}
