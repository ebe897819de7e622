package cluster

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"octgb/internal/testutil"
)

// runMeshGroup runs fn on every rank of a TCP mesh group over loopback
// (root inline, workers as goroutines) and tears the mesh down afterwards.
func runMeshGroup(p int, fn func(c Comm) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, p)
	comms := make([]Comm, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, p, WithMesh())
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			errs[r] = fn(c)
		}(r)
	}
	root, err := NewTCPRoot(ln, p, WithMesh())
	if err != nil {
		return err
	}
	comms[0] = root
	errs[0] = fn(root)
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(io.Closer); ok {
			cl.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// collectiveWorkload exercises both collectives with deterministic
// pseudo-random inputs (seeded per (p, rank), so every transport/algorithm
// sees identical data) across a size sweep that covers empty payloads,
// sub-chunk payloads and multi-chunk pipelined payloads, and returns the
// concatenated per-rank outputs.
func collectiveWorkload(p int, run func(fn func(c Comm) error) error) ([][]float64, error) {
	results := make([][]float64, p)
	var mu sync.Mutex
	err := run(func(c Comm) error {
		rank := c.Rank()
		rng := rand.New(rand.NewSource(int64(1000*p + rank)))
		var got []float64
		sizes := []int{0, 1, 5, 1000, 2*collChunkWords + 77}
		for si, n := range sizes {
			sum := make([]float64, n)
			for i := range sum {
				sum[i] = rng.Float64()*2 - 1
			}
			if err := c.AllreduceSum(sum); err != nil {
				return err
			}
			got = append(got, sum...)

			counts := make([]int, p)
			total := 0
			for r := range counts {
				counts[r] = (r*13 + si*7 + 3) % 29
				total += counts[r]
			}
			seg := make([]float64, counts[rank])
			for i := range seg {
				seg[i] = rng.Float64()
			}
			out := make([]float64, total)
			if err := c.Allgatherv(seg, counts, out); err != nil {
				return err
			}
			got = append(got, out...)
		}
		mu.Lock()
		results[rank] = got
		mu.Unlock()
		return nil
	})
	return results, err
}

func compareToReference(t *testing.T, label string, ref, got [][]float64) {
	t.Helper()
	for r := range ref {
		if len(ref[r]) != len(got[r]) {
			t.Fatalf("%s: rank %d output length %d, reference %d", label, r, len(got[r]), len(ref[r]))
		}
		for i := range ref[r] {
			a, b := ref[r][i], got[r][i]
			if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				t.Fatalf("%s: rank %d word %d: got %v, reference %v", label, r, i, b, a)
			}
		}
	}
}

// TestTopoCollectivesMatchStarReference is the core property test: every
// collective on the in-process transport, topology-aware algorithms vs.
// the monitor-based star oracle (star_ref_test.go), across power-of-two and
// non-power-of-two rank counts.
func TestTopoCollectivesMatchStarReference(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		ref, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return runStarReference(p, fn)
		})
		if err != nil {
			t.Fatalf("p=%d star: %v", p, err)
		}
		topo, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return RunLocal(p, nil, fn)
		})
		if err != nil {
			t.Fatalf("p=%d topo: %v", p, err)
		}
		compareToReference(t, fmt.Sprintf("local topo p=%d", p), ref, topo)
	}
}

// TestMeshCollectivesMatchStarReference runs the same workload over the
// TCP worker-to-worker mesh and cross-checks against the in-process star
// oracle.
func TestMeshCollectivesMatchStarReference(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{1, 2, 3, 5, 8} {
		ref, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return runStarReference(p, fn)
		})
		if err != nil {
			t.Fatalf("p=%d star: %v", p, err)
		}
		mesh, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return runMeshGroup(p, fn)
		})
		if err != nil {
			t.Fatalf("p=%d mesh: %v", p, err)
		}
		compareToReference(t, fmt.Sprintf("tcp mesh p=%d", p), ref, mesh)
	}
}

// TestTCPStarCollectivesStillMatch keeps the coalesced-write star path
// honest against the in-process star oracle.
func TestTCPStarCollectivesStillMatch(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 5
	ref, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
		return runStarReference(p, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	star, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		addr := ln.Addr().String()
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 1; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := DialTCP(addr, r, p)
				if err != nil {
					errs[r] = err
					return
				}
				errs[r] = fn(c)
			}(r)
		}
		root, err := NewTCPRoot(ln, p)
		if err != nil {
			return err
		}
		errs[0] = fn(root)
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	compareToReference(t, "tcp star", ref, star)
}

// overlapStress interleaves non-blocking collectives with p2p ring traffic
// and blocking collectives while both requests are still in flight — the
// tag-matching layer under -race pressure.
func overlapStress(p, rounds, n int) func(c Comm) error {
	return func(c Comm) error {
		rank := c.Rank()
		msgr, ok := c.(Messenger)
		if !ok {
			return fmt.Errorf("rank %d: transport lacks Messenger", rank)
		}
		counts := make([]int, p)
		total := 0
		for r := range counts {
			counts[r] = n/2 + r
			total += counts[r]
		}
		for round := 0; round < rounds; round++ {
			sum := make([]float64, n)
			for i := range sum {
				sum[i] = float64(rank + i + round)
			}
			seg := make([]float64, counts[rank])
			for i := range seg {
				seg[i] = float64(100*rank + i)
			}
			out := make([]float64, total)
			sum2 := append([]float64(nil), sum...)
			r1 := c.IAllreduceSum(sum)
			r2 := c.IAllreduceSum(sum2)

			// p2p traffic racing the in-flight collectives.
			payload := []float64{float64(rank), float64(round)}
			if err := msgr.Send((rank+1)%p, payload); err != nil {
				return err
			}
			got, err := msgr.Recv((rank + p - 1) % p)
			if err != nil {
				return err
			}
			prev := (rank + p - 1) % p
			if len(got) != 2 || got[0] != float64(prev) || got[1] != float64(round) {
				return fmt.Errorf("rank %d round %d: p2p got %v", rank, round, got)
			}
			ReleaseBuffer(got)

			// Blocking collectives while both requests are in flight.
			if err := rendezvous(c); err != nil {
				return err
			}
			if err := c.Allgatherv(seg, counts, out); err != nil {
				return err
			}

			if err := r1.Wait(); err != nil {
				return err
			}
			if err := r2.Wait(); err != nil {
				return err
			}
			for i := range sum {
				want := float64(p*(i+round)) + float64(p*(p-1))/2
				if sum[i] != want || sum2[i] != want {
					return fmt.Errorf("rank %d round %d: sum[%d]=%v / %v want %v", rank, round, i, sum[i], sum2[i], want)
				}
			}
			at := 0
			for r := 0; r < p; r++ {
				for i := 0; i < counts[r]; i++ {
					if out[at] != float64(100*r+i) {
						return fmt.Errorf("rank %d round %d: gather[%d]=%v", rank, round, at, out[at])
					}
					at++
				}
			}
		}
		return nil
	}
}

func TestNonBlockingOverlapStressLocal(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{2, 5, 8} {
		if err := RunLocal(p, nil, overlapStress(p, 25, 64)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestNonBlockingOverlapStressMesh(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 4
	if err := runMeshGroup(p, overlapStress(p, 10, 64)); err != nil {
		t.Fatal(err)
	}
}

// TestMeshMessengerOrdering: multiple sends to the same destination are
// received in order over the mesh.
func TestMeshMessengerOrdering(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 3
	err := runMeshGroup(p, func(c Comm) error {
		msgr := c.(Messenger)
		rank := c.Rank()
		for k := 0; k < 20; k++ {
			if err := msgr.Send((rank+1)%p, []float64{float64(k), float64(rank)}); err != nil {
				return err
			}
		}
		prev := (rank + p - 1) % p
		for k := 0; k < 20; k++ {
			got, err := msgr.Recv(prev)
			if err != nil {
				return err
			}
			if got[0] != float64(k) || got[1] != float64(prev) {
				return fmt.Errorf("rank %d: msg %d got %v", rank, k, got)
			}
			ReleaseBuffer(got)
		}
		return rendezvous(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMeshCloseUnblocksPeers: tearing a rank down poisons its peers'
// mailboxes so in-flight collectives error out instead of hanging.
func TestMeshCloseUnblocksPeers(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, p, WithMesh())
			if err != nil {
				errs[r] = err
				return
			}
			if r == 2 {
				// Deserter: leaves without participating.
				errs[r] = c.(io.Closer).Close()
				return
			}
			errs[r] = rendezvous(c)
		}(r)
	}
	root, err := NewTCPRoot(ln, p, WithMesh())
	if err != nil {
		t.Fatal(err)
	}
	rootErr := rendezvous(root)
	// A rank that has seen a failure exits, closing its links: that is
	// what unblocks a peer whose only partner in the collective was it.
	root.(io.Closer).Close()
	wg.Wait()
	if errs[2] != nil {
		t.Fatalf("close failed: %v", errs[2])
	}
	if rootErr == nil && errs[1] == nil {
		t.Fatal("no rank observed the dead peer")
	}
}
