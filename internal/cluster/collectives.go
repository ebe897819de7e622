package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"octgb/internal/obs"
)

// This file implements the topology-aware collective algorithms on top of
// the tagged pairwise layer (pairwise below) — the library's answer to the
// O(P·m) root bottleneck of the star transports. The algorithms are the
// classical log-depth ones the paper's §IV-C cost model assumes
// (t_s·log P + t_w·m, Grama et al. Table 4.1, and the log-depth reductions
// behind the boundary-integral treecode scaling of Geng, arXiv:1301.5914):
//
//   - AllreduceSum: recursive doubling. Non-power-of-two rank counts use
//     the standard pre/post fold: the first 2r ranks (r = P − 2^⌊log₂P⌋)
//     pair up, odds fold into evens, the surviving 2^⌊log₂P⌋ ranks run the
//     power-of-two exchange, and the folded ranks receive the result back
//     at the end. Both peers of every exchange
//     combine with commutative element-wise addition (a+b ≡ b+a bitwise in
//     IEEE-754), so all ranks finish with bitwise-identical buffers.
//   - Allgatherv: ring. P−1 steps; step s forwards the block received at
//     step s−1, so each rank moves Σ counts − its own segment words in
//     total regardless of P — the bandwidth-optimal form.
//
// Large payloads are pipelined in collChunkWords-sized chunks: a stage's
// sends are split into bounded frames so a transport can stream a chunk
// while the peer is already combining the previous one, and no stage ever
// materializes an unbounded scratch buffer.
//
// Every collective operation draws a fresh tag from the communicator's
// sequence counter. Ranks execute collectives in the same program order
// (the usual SPMD contract), so operation k on every rank shares a tag and
// chunk streams can never mix across operations — which is what makes the
// non-blocking forms safe to overlap with each other and with p2p traffic.

// collChunkWords is the pipelining chunk: 8192 float64 words = 64 KiB per
// frame. Every payload is sent as max(1, ⌈n/collChunkWords⌉) frames; the
// guaranteed ≥1 frame keeps zero-length stages (empty Allgatherv blocks)
// as genuine rendezvous messages with no special cases.
const collChunkWords = 8192

// Request is an in-flight non-blocking collective. Wait blocks until the
// operation completes and returns its error; the buffers passed at
// initiation must not be read or written until Wait returns. Wait may be
// called once.
type Request interface {
	Wait() error
}

// request is the Request implementation shared by the async collectives.
type request struct {
	done chan struct{}
	err  error
}

func (r *request) Wait() error {
	<-r.done
	return r.err
}

// doneRequest wraps an already-completed operation.
func doneRequest(err error) Request {
	r := &request{done: make(chan struct{}), err: err}
	close(r.done)
	return r
}

// pairwise is the internal tagged point-to-point substrate the collective
// algorithms run on. Both transports implement it: the in-process group
// over its mailbox grid, the TCP mesh over its per-pair connections.
// sendTag must not block indefinitely on an unresponsive receiver
// (unbounded mailboxes / dedicated reader goroutines), so the "send
// everything, then receive" stage structure cannot deadlock.
type pairwise interface {
	Rank() int
	Size() int
	sendTag(to, tag int, data []float64) error
	recvTag(from, tag int) ([]float64, error)
}

// coll runs the collective algorithms over a pairwise transport. hook, if
// non-nil, observes completed collectives (set on rank 0 only, preserving
// the once-per-collective contract of CollectiveHook). obs, if non-nil,
// records per-kind per-rank latency histograms, byte counters and trace
// spans for every completed collective (set on every rank).
type coll struct {
	pw   pairwise
	hook CollectiveHook
	obs  *obs.Observer
	seq  atomic.Int64
}

// nextTag allocates the tag for one collective operation. Tag 0 is p2p;
// collective tags start at 1 and never repeat within a session.
func (c *coll) nextTag() int { return int(c.seq.Add(1)) }

func (c *coll) observe(kind string, words int) {
	if c.hook != nil {
		c.hook(kind, words)
	}
}

// sendChunked streams data to `to` as max(1, ⌈n/chunk⌉) frames.
func (c *coll) sendChunked(to, tag int, data []float64) error {
	for {
		n := len(data)
		if n > collChunkWords {
			n = collChunkWords
		}
		if err := c.pw.sendTag(to, tag, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		if len(data) == 0 {
			return nil
		}
	}
}

// recvChunks receives a sendChunked stream from `from`, applying consume
// to each chunk against the matching dst window. Chunks of one tag arrive
// in send order (FIFO per pair per tag), so offsets line up by construction.
func (c *coll) recvChunks(from, tag int, dst []float64, consume func(dst, src []float64)) error {
	at := 0
	for {
		msg, err := c.pw.recvTag(from, tag)
		if err != nil {
			return err
		}
		if at+len(msg) > len(dst) {
			putBuf(msg)
			return fmt.Errorf("cluster: rank %d: oversized chunk from %d (tag %d): %d+%d > %d",
				c.pw.Rank(), from, tag, at, len(msg), len(dst))
		}
		consume(dst[at:at+len(msg)], msg)
		at += len(msg)
		putBuf(msg)
		if at >= len(dst) {
			return nil
		}
	}
}

func copyInto(dst, src []float64) { copy(dst, src) }
func sumInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// ---------------------------------------------------------------------------
// Allreduce: recursive doubling with non-power-of-two pre/post fold
// ---------------------------------------------------------------------------

func (c *coll) allreduceTag(tag int, buf []float64) error {
	size, rank := c.pw.Size(), c.pw.Rank()
	if size == 1 {
		return nil
	}
	pof2 := 1
	for pof2*2 <= size {
		pof2 *= 2
	}
	rem := size - pof2

	// Pre-fold: the first 2·rem ranks pair up (2i, 2i+1); odds fold their
	// contribution into the even neighbor and sit out the exchange.
	newrank := rank - rem
	switch {
	case rank < 2*rem && rank%2 != 0:
		if err := c.sendChunked(rank-1, tag, buf); err != nil {
			return err
		}
		newrank = -1
	case rank < 2*rem:
		if err := c.recvChunks(rank+1, tag, buf, sumInto); err != nil {
			return err
		}
		newrank = rank / 2
	}

	// Power-of-two recursive doubling among the surviving ranks.
	if newrank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			np := newrank ^ mask
			peer := np + rem
			if np < rem {
				peer = 2 * np
			}
			if err := c.sendChunked(peer, tag, buf); err != nil {
				return err
			}
			if err := c.recvChunks(peer, tag, buf, sumInto); err != nil {
				return err
			}
		}
	}

	// Post-fold: evens hand the finished result back to their odd partner.
	switch {
	case rank < 2*rem && rank%2 != 0:
		return c.recvChunks(rank-1, tag, buf, copyInto)
	case rank < 2*rem:
		return c.sendChunked(rank+1, tag, buf)
	}
	return nil
}

func (c *coll) AllreduceSum(buf []float64) error {
	start := time.Now()
	if err := c.allreduceTag(c.nextTag(), buf); err != nil {
		return err
	}
	c.observe("allreduce", len(buf))
	recordCollective(c.obs, "allreduce", c.pw.Rank(), len(buf), start)
	return nil
}

func (c *coll) IAllreduceSum(buf []float64) Request {
	tag := c.nextTag()
	start := time.Now()
	r := &request{done: make(chan struct{})}
	go func() {
		r.err = c.allreduceTag(tag, buf)
		if r.err == nil {
			c.observe("allreduce", len(buf))
			recordCollective(c.obs, "allreduce", c.pw.Rank(), len(buf), start)
		}
		close(r.done)
	}()
	return r
}

// ---------------------------------------------------------------------------
// Allgatherv: ring
// ---------------------------------------------------------------------------

// checkGatherArgs validates the Allgatherv contract shared by every
// implementation and returns the per-rank output offsets.
func checkGatherArgs(rank int, segment []float64, counts []int, out []float64) ([]int, error) {
	offsets := make([]int, len(counts))
	total := 0
	for r, n := range counts {
		offsets[r] = total
		total += n
	}
	if total != len(out) {
		return nil, fmt.Errorf("cluster: Allgatherv out length %d != Σcounts %d", len(out), total)
	}
	if len(segment) != counts[rank] {
		return nil, fmt.Errorf("cluster: rank %d segment length %d != counts[rank] %d", rank, len(segment), counts[rank])
	}
	return offsets, nil
}

func (c *coll) allgathervTag(tag int, segment []float64, counts []int, out []float64) error {
	size, rank := c.pw.Size(), c.pw.Rank()
	offsets, err := checkGatherArgs(rank, segment, counts, out)
	if err != nil {
		return err
	}
	copy(out[offsets[rank]:offsets[rank]+counts[rank]], segment)
	if size == 1 {
		return nil
	}
	right, left := (rank+1)%size, (rank+size-1)%size
	for s := 0; s < size-1; s++ {
		sendBlk := ((rank-s)%size + size) % size
		recvBlk := ((rank-s-1)%size + size) % size
		if err := c.sendChunked(right, tag, out[offsets[sendBlk]:offsets[sendBlk]+counts[sendBlk]]); err != nil {
			return err
		}
		if err := c.recvChunks(left, tag, out[offsets[recvBlk]:offsets[recvBlk]+counts[recvBlk]], copyInto); err != nil {
			return err
		}
	}
	return nil
}

func (c *coll) Allgatherv(segment []float64, counts []int, out []float64) error {
	start := time.Now()
	if err := c.allgathervTag(c.nextTag(), segment, counts, out); err != nil {
		return err
	}
	c.observe("allgatherv", len(out))
	recordCollective(c.obs, "allgatherv", c.pw.Rank(), len(out), start)
	return nil
}
