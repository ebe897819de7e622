package cluster

import (
	"fmt"
	"sync"
)

// Both transports satisfy Comm, non-blocking form included.
var (
	_ Comm = (*localComm)(nil)
	_ Comm = (*meshComm)(nil)
)

// starGroup is the reference the topology-aware collectives are tested
// against: every collective rendezvouses through a single
// generation-counted monitor — simple, and obviously correct for arbitrary
// collective sequences. It was LocalGroup's selectable Star algorithm
// until the selection was deleted; only tests use it now.
type starGroup struct {
	size int

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64
	arrived int
	kind    string
	bufs    []collArg
	result  []float64
}

type collArg struct {
	buf    []float64
	counts []int
	out    []float64
}

// runStarReference runs fn on p in-process ranks of the monitor reference.
func runStarReference(p int, fn func(c Comm) error) error {
	g := &starGroup{size: p, bufs: make([]collArg, p)}
	g.cond = sync.NewCond(&g.mu)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(&starComm{g: g, rank: r})
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

type starComm struct {
	g    *starGroup
	rank int
}

func (c *starComm) Rank() int { return c.rank }
func (c *starComm) Size() int { return c.g.size }

// rendezvous implements the generic "everyone deposits, last one computes,
// everyone copies out" monitor collective. complete runs exactly once
// (under the monitor) when the last rank arrives; copyOut runs per rank
// before it leaves. A rank cannot enter collective k+1 before every rank
// has left collective k, because arrival counting restarts only after the
// generation bump and copyOut happens under the same critical section.
func (c *starComm) rendezvous(kind string, arg collArg, complete func(bufs []collArg) []float64, copyOut func(result []float64, arg collArg)) error {
	g := c.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.arrived > 0 && g.kind != kind {
		return fmt.Errorf("cluster: rank %d entered %q while group is in %q", c.rank, kind, g.kind)
	}
	g.kind = kind
	myGen := g.gen
	g.bufs[c.rank] = arg
	g.arrived++
	if g.arrived == g.size {
		g.result = complete(g.bufs)
		g.arrived = 0
		g.gen++
		g.cond.Broadcast()
	} else {
		for g.gen == myGen {
			g.cond.Wait()
		}
	}
	copyOut(g.result, arg)
	return nil
}

func (c *starComm) AllreduceSum(buf []float64) error {
	return c.rendezvous("allreduce", collArg{buf: buf},
		func(bufs []collArg) []float64 {
			res := make([]float64, len(buf))
			for _, b := range bufs {
				for i, v := range b.buf {
					res[i] += v
				}
			}
			return res
		},
		func(result []float64, arg collArg) { copy(arg.buf, result) })
}

func (c *starComm) Allgatherv(segment []float64, counts []int, out []float64) error {
	if _, err := checkGatherArgs(c.rank, segment, counts, out); err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return c.rendezvous("allgatherv", collArg{buf: segment, counts: counts, out: out},
		func(bufs []collArg) []float64 {
			res := make([]float64, total)
			at := 0
			for r := 0; r < len(bufs); r++ {
				copy(res[at:], bufs[r].buf)
				at += counts[r]
			}
			return res
		},
		func(result []float64, arg collArg) { copy(arg.out, result) })
}

// Monitor collectives cannot overlap: the non-blocking form completes
// synchronously.
func (c *starComm) IAllreduceSum(buf []float64) Request {
	r := &request{done: make(chan struct{}), err: c.AllreduceSum(buf)}
	close(r.done)
	return r
}
