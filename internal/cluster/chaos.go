package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the fault-injection half of the failure model (failure.go):
// a deterministic chaos wrapper that sits between a communicator and the
// collective algorithms and injects faults from an explicit schedule — the
// tool the clusterchaos harness uses to prove the engines either complete
// with bit-identical energies or fail cleanly with ErrRankFailed.
//
// The wrapper works at the tagged pairwise layer shared by the in-process
// group and the TCP mesh, so the same FaultPlan exercises both transports.
// Every message is framed with one extra header word carrying a per-link
// sequence number and a CRC32C of the payload:
//
//	header = float64frombits(uint64(seq)<<32 | uint64(crc32c(payload)))
//
// The receiver drops frames whose CRC does not match (corruption,
// truncation) and frames whose sequence number it has already accepted
// (duplicates). A sender that injects a corrupting fault always follows it
// with the clean frame — the deterministic stand-in for a NACK/retransmit
// round-trip — so delay, duplicate, corrupt and truncate faults are fully
// absorbed by the protocol and the computation's results are bit-identical
// to a fault-free run. Crash and drop faults are not absorbable: they
// surface as ErrRankFailed on the crashed rank's peers via the receive
// timeout, and on the faulty rank itself immediately.

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultDelay stalls the rank for Fault.Delay before the operation.
	// Absorbable: results must match the fault-free run exactly.
	FaultDelay FaultKind = iota
	// FaultDuplicate delivers the next outgoing frame twice. Absorbable
	// (the receiver deduplicates by sequence number).
	FaultDuplicate
	// FaultCorrupt flips payload bits in a copy of the next outgoing frame
	// and sends it ahead of the clean frame. Absorbable (CRC32C mismatch
	// drops the bad copy).
	FaultCorrupt
	// FaultTruncate sends a truncated copy of the next outgoing frame ahead
	// of the clean frame. Absorbable (CRC32C mismatch).
	FaultTruncate
	// FaultDrop severs the link to Fault.Peer: subsequent sends to it are
	// discarded, receives from it fail immediately. NOT absorbable: the
	// collective in flight (and typically the whole run) must surface
	// ErrRankFailed within the receive timeout.
	FaultDrop
	// FaultCrash kills the rank: every subsequent operation on it returns
	// ErrRankFailed{Rank: self}, and its silence surfaces on every peer as
	// ErrRankFailed{Rank: crashed} via the receive timeout. NOT absorbable.
	FaultCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultDrop:
		return "drop"
	case FaultCrash:
		return "crash"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Absorbable reports whether the protocol is required to hide this fault
// completely (bit-identical results) rather than fail cleanly.
func (k FaultKind) Absorbable() bool { return k != FaultDrop && k != FaultCrash }

// Fault is one scheduled injection. Frame counts the faulty rank's chaos
// operations (sends and receives, in program order), which makes a plan
// deterministic for a fixed computation: operation k of rank r is the same
// message in every run. Frame-targeted send faults (duplicate, corrupt,
// truncate) that land on a receive operation are held and applied to the
// rank's next send.
type Fault struct {
	Kind  FaultKind
	Rank  int           // rank that injects the fault
	Frame int           // operation index on that rank at which it fires
	Peer  int           // FaultDrop: link to sever (-1 = peer of the triggering op)
	Delay time.Duration // FaultDelay: stall duration
}

// FaultPlan is a deterministic fault schedule plus the failure-detection
// timeout under which it runs. The same plan drives every rank: each
// rank's wrapper applies only the faults addressed to it.
type FaultPlan struct {
	// Timeout bounds every receive; a peer silent past it is reported as
	// failed. Zero disables the bound (only safe for absorbable-only plans).
	Timeout time.Duration
	Faults  []Fault
}

// forRank extracts the faults addressed to rank r, ordered by frame index.
func (p *FaultPlan) forRank(r int) []Fault {
	var fs []Fault
	for _, f := range p.Faults {
		if f.Rank == r {
			fs = append(fs, f)
		}
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Frame < fs[j].Frame })
	return fs
}

// errInjectedCrash / errInjectedDrop mark faults the plan itself caused.
var (
	errInjectedCrash = errors.New("cluster: injected rank crash")
	errInjectedDrop  = errors.New("cluster: injected connection drop")
)

// timedPairwise is the substrate the chaos wrapper needs: the tagged
// pairwise layer plus a bounded receive. localComm and the TCP meshComm
// implement it; the star transports do not (they have no pairwise layer to
// wrap).
type timedPairwise interface {
	pairwise
	recvTagTimeout(from, tag int, d time.Duration) ([]float64, error)
}

// WrapChaos wraps a communicator with the fault-injection layer. The inner
// communicator must expose the tagged pairwise substrate (an in-process
// LocalGroup rank or a TCP mesh rank — not a star transport). Collectives
// on the returned Comm run the topology-aware algorithms of
// collectives.go over the chaos protocol; the wrapper also implements
// Messenger.
//
// A nil or empty plan yields a transparent wrapper that still speaks the
// seq+CRC framing — the fault-free baseline of a chaos experiment runs
// through the identical code path as the faulty runs.
func WrapChaos(inner Comm, plan *FaultPlan) (Comm, error) {
	tp, ok := inner.(timedPairwise)
	if !ok {
		return nil, fmt.Errorf("cluster: WrapChaos: %T does not expose the pairwise layer (star transports cannot be wrapped)", inner)
	}
	if plan == nil {
		plan = &FaultPlan{}
	}
	cc := &chaosComm{
		inner:   tp,
		timeout: plan.Timeout,
		faults:  plan.forRank(inner.Rank()),
		dead:    make(map[int]bool),
		sendSeq: make(map[uint64]uint32),
		recvSeq: make(map[uint64]uint32),
	}
	cc.coll.pw = cc
	return cc, nil
}

// chaosComm implements Comm and Messenger over the chaos
// protocol. All injection state is guarded by mu; the blocking part of a
// receive runs outside the lock.
type chaosComm struct {
	inner   timedPairwise
	timeout time.Duration
	coll    coll

	crashed atomic.Bool

	mu      sync.Mutex
	frame   int         // operations executed so far on this rank
	faults  []Fault     // pending, ordered by Frame
	pending []FaultKind // send faults held until the next send
	dead    map[int]bool
	sendSeq map[uint64]uint32
	recvSeq map[uint64]uint32
}

func seqKey(peer, tag int) uint64 { return uint64(uint32(peer))<<32 | uint64(uint32(tag)) }

// crcOfWords is the payload checksum of the chaos framing: CRC32C over the
// little-endian bytes of the words, matching what the wire transport would
// see.
func crcOfWords(words []float64) uint32 {
	var b [8]byte
	crc := uint32(0)
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		crc = crc32.Update(crc, crcTable, b[:])
	}
	return crc
}

func chaosHeader(seq uint32, crc uint32) float64 {
	return math.Float64frombits(uint64(seq)<<32 | uint64(crc))
}

func splitChaosHeader(h float64) (seq uint32, crc uint32) {
	bits := math.Float64bits(h)
	return uint32(bits >> 32), uint32(bits)
}

// step advances the operation counter and applies the faults that are due.
// It returns the actions the caller must take outside the lock: a delay to
// sleep, the send faults to apply to the current operation (empty unless
// sending), and whether the rank is now crashed or the current peer's link
// is dead.
func (cc *chaosComm) step(peer int, sending bool) (delay time.Duration, sendFaults []FaultKind) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	idx := cc.frame
	cc.frame++
	for len(cc.faults) > 0 && cc.faults[0].Frame <= idx {
		f := cc.faults[0]
		cc.faults = cc.faults[1:]
		switch f.Kind {
		case FaultDelay:
			delay += f.Delay
		case FaultCrash:
			cc.crashed.Store(true)
		case FaultDrop:
			p := f.Peer
			if p < 0 {
				p = peer
			}
			cc.dead[p] = true
		default: // duplicate, corrupt, truncate: next send
			cc.pending = append(cc.pending, f.Kind)
		}
	}
	if sending && len(cc.pending) > 0 {
		sendFaults = cc.pending
		cc.pending = nil
	}
	return delay, sendFaults
}

func (cc *chaosComm) linkDead(peer int) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead[peer]
}

func (cc *chaosComm) Rank() int { return cc.inner.Rank() }
func (cc *chaosComm) Size() int { return cc.inner.Size() }

// sendTag frames and sends one message, applying any due send faults. A
// faulty copy (corrupt, truncate) is always followed by the clean frame.
func (cc *chaosComm) sendTag(to, tag int, data []float64) error {
	if cc.crashed.Load() {
		return ErrRankFailed{Rank: cc.Rank(), Cause: errInjectedCrash}
	}
	delay, sendFaults := cc.step(to, true)
	if delay > 0 {
		time.Sleep(delay)
	}
	if cc.crashed.Load() {
		return ErrRankFailed{Rank: cc.Rank(), Cause: errInjectedCrash}
	}
	if cc.linkDead(to) {
		// Severed link: the send vanishes. The receiver discovers the
		// failure through its timeout; reporting success here mirrors a
		// kernel accepting bytes into a buffer nobody will ever read.
		return nil
	}

	cc.mu.Lock()
	key := seqKey(to, tag)
	seq := cc.sendSeq[key]
	cc.sendSeq[key] = seq + 1
	cc.mu.Unlock()

	frame := make([]float64, 1+len(data))
	frame[0] = chaosHeader(seq, crcOfWords(data))
	copy(frame[1:], data)

	for _, k := range sendFaults {
		switch k {
		case FaultDuplicate:
			if err := cc.inner.sendTag(to, tag, frame); err != nil {
				return err
			}
		case FaultCorrupt:
			bad := append([]float64(nil), frame...)
			if len(bad) > 1 {
				bad[len(bad)-1] = math.Float64frombits(math.Float64bits(bad[len(bad)-1]) ^ 1)
			} else {
				bad[0] = math.Float64frombits(math.Float64bits(bad[0]) ^ 1)
			}
			if err := cc.inner.sendTag(to, tag, bad); err != nil {
				return err
			}
		case FaultTruncate:
			if err := cc.inner.sendTag(to, tag, frame[:len(frame)-1]); err != nil {
				return err
			}
		}
	}
	return cc.inner.sendTag(to, tag, frame)
}

// recvTag receives the next in-sequence frame, discarding corrupt,
// truncated and duplicate deliveries, and converting peer silence past the
// timeout (or a severed link) into ErrRankFailed.
func (cc *chaosComm) recvTag(from, tag int) ([]float64, error) {
	if cc.crashed.Load() {
		return nil, ErrRankFailed{Rank: cc.Rank(), Cause: errInjectedCrash}
	}
	delay, _ := cc.step(from, false)
	if delay > 0 {
		time.Sleep(delay)
	}
	if cc.crashed.Load() {
		return nil, ErrRankFailed{Rank: cc.Rank(), Cause: errInjectedCrash}
	}
	for {
		if cc.linkDead(from) {
			return nil, ErrRankFailed{Rank: from, Cause: errInjectedDrop}
		}
		msg, err := cc.inner.recvTagTimeout(from, tag, cc.timeout)
		if err != nil {
			if errors.Is(err, errRecvTimeout) {
				return nil, ErrRankFailed{Rank: from, Cause: err}
			}
			return nil, err
		}
		if len(msg) < 1 {
			putBuf(msg) // headerless garbage (truncated empty frame)
			continue
		}
		seq, crc := splitChaosHeader(msg[0])
		payload := msg[1:]
		if crcOfWords(payload) != crc {
			putBuf(msg) // corrupt or truncated: wait for the clean copy
			continue
		}
		cc.mu.Lock()
		key := seqKey(from, tag)
		want := cc.recvSeq[key]
		if seq < want {
			cc.mu.Unlock()
			putBuf(msg) // duplicate of an already-accepted frame
			continue
		}
		if seq > want {
			cc.mu.Unlock()
			putBuf(msg)
			return nil, fmt.Errorf("cluster: chaos: lost frame from rank %d tag %d (got seq %d, want %d)", from, tag, seq, want)
		}
		cc.recvSeq[key] = want + 1
		cc.mu.Unlock()
		out := getBuf(len(payload))
		copy(out, payload)
		putBuf(msg)
		return out, nil
	}
}

func (cc *chaosComm) Barrier() error                   { return cc.coll.Barrier() }
func (cc *chaosComm) AllreduceSum(buf []float64) error { return cc.coll.AllreduceSum(buf) }
func (cc *chaosComm) AllreduceMax(buf []float64) error { return cc.coll.AllreduceMax(buf) }
func (cc *chaosComm) Allgatherv(segment []float64, counts []int, out []float64) error {
	return cc.coll.Allgatherv(segment, counts, out)
}
func (cc *chaosComm) Bcast(buf []float64, root int) error { return cc.coll.Bcast(buf, root) }

func (cc *chaosComm) IAllreduceSum(buf []float64) Request { return cc.coll.IAllreduceSum(buf) }

func (cc *chaosComm) Send(to int, data []float64) error {
	if to < 0 || to >= cc.Size() {
		return fmt.Errorf("cluster: send to invalid rank %d", to)
	}
	return cc.sendTag(to, tagP2P, data)
}

func (cc *chaosComm) Recv(from int) ([]float64, error) {
	if from < 0 || from >= cc.Size() {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d", from)
	}
	return cc.recvTag(from, tagP2P)
}
