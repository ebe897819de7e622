package engine

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"octgb/internal/cluster"
	"octgb/internal/testutil"
)

// Acceptance tests for the engines over the TCP mesh: its ranks must
// reproduce the in-process run — the same step sequence with the
// collectives genuinely overlapped — to 1e-12 with identical Stats
// counters.

// overTCP runs fn on every rank of a loopback TCP group.
func overTCP(t *testing.T, size int, fn func(c cluster.Comm, rank int) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, size)
	comms := make([]cluster.Comm, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := cluster.DialTCP(addr, r, size)
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			errs[r] = fn(c, r)
		}(r)
	}
	root, err := cluster.NewTCPRoot(ln, size)
	if err != nil {
		t.Fatal(err)
	}
	comms[0] = root
	errs[0] = fn(root, 0)
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(io.Closer); ok {
			cl.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestRunRankOverTCPMatchesLocal(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(400, 93)
	for _, P := range []int{1, 3} {
		t.Run(fmt.Sprintf("P=%d", P), func(t *testing.T) {
			base, err := RunReal(pr, OctMPI, Options{Ranks: P})
			if err != nil {
				t.Fatal(err)
			}
			reps := make([]RealReport, P)
			overTCP(t, P, func(c cluster.Comm, rank int) error {
				rep, err := RunRank(c, pr, Options{})
				reps[rank] = rep
				return err
			})
			agg := reps[0]
			for _, r := range reps[1:] {
				if e := relErr(r.Energy, base.Energy); e > 1e-12 {
					t.Fatalf("rank energy %v vs baseline %v (rel %v)", r.Energy, base.Energy, e)
				}
				agg.BornStats.Add(r.BornStats)
				agg.EpolStats.Add(r.EpolStats)
			}
			if e := relErr(reps[0].Energy, base.Energy); e > 1e-12 {
				t.Fatalf("root energy %v vs baseline %v (rel %v)", reps[0].Energy, base.Energy, e)
			}
			if agg.BornStats != base.BornStats {
				t.Fatalf("BornStats: tcp %+v vs baseline %+v", agg.BornStats, base.BornStats)
			}
			if agg.EpolStats != base.EpolStats {
				t.Fatalf("EpolStats: tcp %+v vs baseline %+v", agg.EpolStats, base.EpolStats)
			}
		})
	}
}

func TestDistDataOverTCPMesh(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(400, 94)
	P := 3
	want, err := RunDistributedDataEnergy(pr, P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, P)
	overTCP(t, P, func(c cluster.Comm, rank int) error {
		e, err := RunDistributedDataEnergyRank(c, pr, Options{})
		got[rank] = e
		return err
	})
	for r, e := range got {
		if re := relErr(e, want); re > 1e-12 {
			t.Fatalf("rank %d: mesh energy %v vs local %v (rel %v)", r, e, want, re)
		}
	}
}
