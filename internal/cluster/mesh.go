package cluster

import (
	"errors"
	"fmt"
)

// ---------------------------------------------------------------------------
// Mesh transport
// ---------------------------------------------------------------------------

// meshComm is one rank of the fully-connected transport: a pairwise link
// to every peer (the root's handshake connections double as its links), a
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
		_, tag, payload, err := rc.readFrame()
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
func (mc *meshComm) Close() error { return closeLinks(mc.links) }
