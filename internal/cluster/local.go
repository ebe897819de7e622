package cluster

import (
	"sync"

	"octgb/internal/obs"
)

// LocalGroup is an in-process communicator group: P ranks running as
// goroutines in one address space. Its collectives are the topology-aware
// algorithms of collectives.go, routed over the group's (from, to) mailbox
// grid exactly like the TCP mesh routes them over sockets — recursive
// doubling, ring, binomial tree, dissemination — including the
// non-blocking forms.
//
// The mailbox grid is fully pre-built at construction time, so the p2p
// Send/Recv path and the collective stages index it without taking any
// group-wide lock.
type LocalGroup struct {
	size int
	hook CollectiveHook
	obs  *obs.Observer

	grid []*tagBox // (from, to) mailboxes, row-major from*size+to
}

// NewLocalGroup creates a group of p ranks. hook may be nil.
func NewLocalGroup(p int, hook CollectiveHook) *LocalGroup {
	g := &LocalGroup{size: p, hook: hook}
	g.grid = make([]*tagBox, p*p)
	for i := range g.grid {
		g.grid[i] = newTagBox()
	}
	return g
}

// WithObserver attaches an observability sink: every rank's completed
// collectives are recorded as {kind, rank} latency histograms, byte
// counters and trace spans. Nil (the default) keeps the group
// instrumentation-free. Returns g for chaining; must be called before Comm.
func (g *LocalGroup) WithObserver(ob *obs.Observer) *LocalGroup {
	g.obs = ob
	return g
}

// Comm returns the communicator handle for one rank.
func (g *LocalGroup) Comm(rank int) Comm {
	c := &localComm{g: g, rank: rank}
	c.coll.pw = c
	c.coll.obs = g.obs
	if rank == 0 {
		// Hook on rank 0 only: once per collective, as documented.
		c.coll.hook = g.hook
	}
	return c
}

// Run executes fn on every rank of the group concurrently and returns the
// first error. It is the instance form of RunLocal, for callers that
// configure the group (WithObserver) before running.
func (g *LocalGroup) Run(fn func(c Comm) error) error {
	errs := make([]error, g.size)
	var wg sync.WaitGroup
	for r := 0; r < g.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(g.Comm(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunLocal runs fn on p in-process ranks and returns the first error.
func RunLocal(p int, hook CollectiveHook, fn func(c Comm) error) error {
	return NewLocalGroup(p, hook).Run(fn)
}

type localComm struct {
	g    *LocalGroup
	rank int
	coll coll
}

func (c *localComm) Rank() int { return c.rank }
func (c *localComm) Size() int { return c.g.size }

func (c *localComm) Barrier() error                   { return c.coll.Barrier() }
func (c *localComm) AllreduceSum(buf []float64) error { return c.coll.AllreduceSum(buf) }
func (c *localComm) AllreduceMax(buf []float64) error { return c.coll.AllreduceMax(buf) }
func (c *localComm) Allgatherv(segment []float64, counts []int, out []float64) error {
	return c.coll.Allgatherv(segment, counts, out)
}
func (c *localComm) Bcast(buf []float64, root int) error { return c.coll.Bcast(buf, root) }

func (c *localComm) IAllreduceSum(buf []float64) Request { return c.coll.IAllreduceSum(buf) }
