package cluster

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
)

func TestLocalAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 7, 16} {
		err := RunLocal(p, nil, func(c Comm) error {
			buf := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			if err := c.AllreduceSum(buf); err != nil {
				return err
			}
			wantSum := float64(p*(p-1)) / 2
			var wantSq float64
			for r := 0; r < p; r++ {
				wantSq += float64(r * r)
			}
			if buf[0] != wantSum || buf[1] != float64(p) || buf[2] != wantSq {
				return fmt.Errorf("p=%d rank=%d: got %v", p, c.Rank(), buf)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalAllgatherv(t *testing.T) {
	p := 4
	counts := []int{2, 0, 3, 1}
	total := 6
	err := RunLocal(p, nil, func(c Comm) error {
		seg := make([]float64, counts[c.Rank()])
		for i := range seg {
			seg[i] = float64(c.Rank()*10 + i)
		}
		out := make([]float64, total)
		if err := c.Allgatherv(seg, counts, out); err != nil {
			return err
		}
		want := []float64{0, 1, 20, 21, 22, 30}
		for i := range want {
			if out[i] != want[i] {
				return fmt.Errorf("rank %d: out=%v", c.Rank(), out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalSequenceOfCollectives(t *testing.T) {
	// Back-to-back collectives of different kinds and sizes must not
	// interfere — the generation logic under test.
	err := RunLocal(8, nil, func(c Comm) error {
		for round := 0; round < 20; round++ {
			buf := []float64{1}
			if err := c.AllreduceSum(buf); err != nil {
				return err
			}
			if buf[0] != 8 {
				return fmt.Errorf("round %d: %v", round, buf[0])
			}
			if err := rendezvous(c); err != nil {
				return err
			}
			big := make([]float64, 100+round)
			big[round] = float64(c.Rank())
			if err := c.AllreduceSum(big); err != nil {
				return err
			}
			if big[round] != 28 {
				return fmt.Errorf("round %d: sum %v", round, big[round])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalHookObservesCollectives(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	words := 0
	hook := func(kind string, w int) {
		mu.Lock()
		calls[kind]++
		words += w
		mu.Unlock()
	}
	err := RunLocal(3, hook, func(c Comm) error {
		buf := make([]float64, 10)
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		return c.Allgatherv([]float64{1}, []int{1, 1, 1}, make([]float64, 3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls["allreduce"] != 1 || calls["allgatherv"] != 1 {
		t.Errorf("hook calls: %v", calls)
	}
	if words != 13 {
		t.Errorf("hook words: %d", words)
	}
}

// rendezvous is a one-word AllreduceSum, the tests' stand-in for a barrier.
func rendezvous(c Comm) error {
	one := []float64{1}
	if err := c.AllreduceSum(one); err != nil {
		return err
	}
	if one[0] != float64(c.Size()) {
		return fmt.Errorf("rank %d: rendezvous sum %v, want %d", c.Rank(), one[0], c.Size())
	}
	return nil
}

func TestLocalAllgathervLengthMismatch(t *testing.T) {
	err := RunLocal(2, nil, func(c Comm) error {
		out := make([]float64, 5) // wrong: counts sum to 4
		return c.Allgatherv(make([]float64, 2), []int{2, 2}, out)
	})
	if err == nil {
		t.Error("length mismatch not detected")
	}
}

// startTCPGroup spins up a size-rank TCP group over loopback in one
// process (root inline, workers as goroutines) and runs fn on every rank.
func startTCPGroup(t *testing.T, size int, fn func(c Comm) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, size)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(c)
		}(r)
	}
	root, err := NewTCPRoot(ln, size)
	if err != nil {
		t.Fatal(err)
	}
	errs[0] = fn(root)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPAllreduceSum(t *testing.T) {
	startTCPGroup(t, 4, func(c Comm) error {
		buf := []float64{float64(c.Rank() + 1), -2}
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		if buf[0] != 10 || buf[1] != -8 {
			return fmt.Errorf("rank %d: %v", c.Rank(), buf)
		}
		return nil
	})
}

func TestTCPAllgatherv(t *testing.T) {
	counts := []int{1, 2, 1}
	startTCPGroup(t, 3, func(c Comm) error {
		seg := make([]float64, counts[c.Rank()])
		for i := range seg {
			seg[i] = float64(c.Rank()) + float64(i)/10
		}
		out := make([]float64, 4)
		if err := c.Allgatherv(seg, counts, out); err != nil {
			return err
		}
		want := []float64{0, 1, 1.1, 2}
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-12 {
				return fmt.Errorf("rank %d: out %v", c.Rank(), out)
			}
		}
		return rendezvous(c)
	})
}

func TestTCPLargePayload(t *testing.T) {
	n := 200000 // forces multiple socket buffer flushes
	startTCPGroup(t, 3, func(c Comm) error {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(c.Rank())
		}
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != 3 { // 0+1+2
				return fmt.Errorf("rank %d: buf[%d]=%v", c.Rank(), i, buf[i])
			}
		}
		return nil
	})
}

func TestDialTCPRejectsBadRank(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1", 0, 4); err == nil {
		t.Error("rank 0 dial accepted")
	}
	if _, err := DialTCP("127.0.0.1:1", 4, 4); err == nil {
		t.Error("rank out of range accepted")
	}
}
