package cluster

import (
	"time"

	"octgb/internal/obs"
)

// The TCP transport runs each rank in its own OS process, wired as a full
// mesh: during the handshake every worker reports a private listen port,
// the root broadcasts the address table, and the workers connect pairwise
// (the root's handshake links double as its own mesh links). Collectives
// run the topology-aware algorithms of collectives.go over the mesh
// (recursive doubling / ring) — the same ones the in-process transport
// runs and simtime.AlgoCollectiveCost prices — point-to-point messaging
// (Messenger) is available, and the non-blocking collective genuinely
// overlaps.
//
// Failure hardening (see failure.go for the model): every frame carries a
// per-link frame number and a CRC32C over header and payload, payload sizes
// are bounded so arbitrary bytes cannot force huge allocations, dials retry with exponential backoff + jitter, and with
// WithCommTimeout every read carries a deadline backed by per-link
// heartbeats — a silent peer surfaces as ErrRankFailed while a merely-slow
// one stays alive. If any worker cannot complete its pairwise links, every
// rank's constructor returns an error naming it (handshake.go's status round):
// like MPI, the group needs every rank to reach every other.
const tcpMagic = 0x0C7B

// tcpConfig collects the transport options.
type tcpConfig struct {
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

// WithCommTimeout enables failure detection: every frame read carries a
// deadline of d, every link runs a heartbeat writer at a third of d (so
// slow compute phases between collectives never trip the deadline), and a
// peer silent for longer than d surfaces as ErrRankFailed through every
// collective and receive. Zero (the default) disables deadlines and
// heartbeats entirely. Must be passed with the same d on every rank.
func WithCommTimeout(d time.Duration) TCPOption { return func(c *tcpConfig) { c.timeout = d } }

// WithLogger attaches a printf-style logger for transport events worth
// surfacing in deployments: mesh build failures. nil (the
// default) keeps the transport silent.
func WithLogger(logf func(format string, args ...any)) TCPOption {
	return func(c *tcpConfig) { c.logf = logf }
}

// WithObserver attaches an observability sink to this rank's transport:
// completed collectives record {kind, rank} latency histograms and byte
// counters, and heartbeat inter-arrival gaps record a per-peer histogram.
// Nil (the default) keeps the transport instrumentation-free.
func WithObserver(ob *obs.Observer) TCPOption {
	return func(c *tcpConfig) { c.obs = ob }
}
