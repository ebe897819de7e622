// Package cluster is the distributed-memory substrate of the library — the
// stand-in for MPI in the paper's algorithms. It defines the small
// communicator interface the engines need (the collectives of the paper's
// Fig. 4: Allreduce for partial integrals, Allgather for Born-radius
// segments, Allreduce for the final energy) and provides two transports:
//
//   - an in-process transport (goroutine per rank) used by tests, the
//     benchmark harness and the virtual-time simulator, and
//   - a TCP transport (stdlib net) for genuine multi-process runs via
//     cmd/epolnode.
//
// A CollectiveHook observes every completed collective with its payload
// size; the virtual-time machine model (internal/simtime) uses it to charge
// the t_s·log P + t_w·m communication costs of the paper's §IV-C analysis.
package cluster

// Comm is the per-rank communicator handle.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// AllreduceSum replaces buf on every rank with the element-wise sum
	// across ranks. All ranks must pass equal-length buffers.
	AllreduceSum(buf []float64) error
	// Allgatherv concatenates every rank's segment (whose lengths are
	// given by counts, indexed by rank) into out, which must have length
	// Σ counts. Every rank receives the full concatenation.
	Allgatherv(segment []float64, counts []int, out []float64) error
	// IAllreduceSum is the non-blocking form: initiation returns
	// immediately and the operation proceeds in the background, which lets
	// callers keep several reductions in flight (the engines start both
	// step-3 allreduces before waiting on either). All ranks must initiate
	// collectives — blocking or not — in the same order.
	IAllreduceSum(buf []float64) Request
}

// CollectiveHook observes completed collectives. kind is "allreduce" or
// "allgatherv"; words is the per-collective payload in float64 words.
// Called once per collective (not per rank), at the rendezvous point where
// all ranks are blocked — the natural place to synchronize virtual clocks.
type CollectiveHook func(kind string, words int)
