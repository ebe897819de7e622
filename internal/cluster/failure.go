package cluster

import (
	"fmt"
	"time"
)

// This file defines the cluster layer's failure model:
//
//   - A silent peer is a FAILED peer. With WithCommTimeout every frame read
//     carries a deadline and every link runs a heartbeat writer at a third
//     of that timeout, so a merely-slow peer (long compute phase between
//     collectives) keeps its links warm while a dead one trips the deadline.
//   - A damaged link is a failed peer too. Every frame carries a per-link
//     frame number and a CRC32C over its header and payload; a mismatch, a
//     frame-number gap, an unknown op or an oversized length is reported
//     the same way as a dead peer — a wrong result is never delivered.
//   - Failures surface as the typed ErrRankFailed through every collective
//     and point-to-point receive (the mesh poisons the peer's mailbox, the
//     star transports return it from the blocked read, the in-process group
//     poisons the failed rank's mailboxes), so callers can tell "rank 3
//     died" from "my arguments were wrong".
//   - Dial-time failures are retried with bounded exponential backoff plus
//     deterministic jitter before they are reported.
//   - Mesh construction failures degrade instead of aborting: if any worker
//     cannot complete its pairwise links, the whole group falls back to the
//     star topology through the root (see tcp.go's verdict round).

// ErrRankFailed reports that a peer rank went silent past the configured
// communication timeout, its connection was lost, or its link delivered a
// frame that failed to decode. It is returned (possibly
// wrapped) by collectives and receives on every transport with failure
// detection enabled; unwrap with errors.As:
//
//	var rf cluster.ErrRankFailed
//	if errors.As(err, &rf) { log.Printf("rank %d failed", rf.Rank) }
type ErrRankFailed struct {
	// Rank is the rank believed to have failed.
	Rank int
	// Cause is the underlying error (deadline exceeded, connection reset,
	// frame decode failure, the failed rank's own error), if any.
	Cause error
}

func (e ErrRankFailed) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: rank %d failed: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("cluster: rank %d failed", e.Rank)
}

func (e ErrRankFailed) Unwrap() error { return e.Cause }

// FailureDetector is implemented by transports that track peer liveness
// (the TCP mesh and the star root when created with WithCommTimeout).
// AliveRanks reports, per rank, whether the peer has been heard from —
// any frame, heartbeats included — within twice the communication timeout.
// The local rank is always alive; without a timeout every rank is reported
// alive.
type FailureDetector interface {
	AliveRanks() []bool
}

// heartbeatInterval derives the heartbeat period from the communication
// timeout. It is strictly smaller than the timeout (one third), so a live
// peer always lands at least two heartbeats inside any read deadline window
// and slow compute never masquerades as rank failure.
func heartbeatInterval(timeout time.Duration) time.Duration {
	iv := timeout / 3
	if iv <= 0 {
		iv = time.Nanosecond
	}
	return iv
}
