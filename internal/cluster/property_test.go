package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: AllreduceSum over random rank contributions equals the serial
// sum on every rank, for arbitrary rank counts and vector lengths.
func TestPropertyAllreduceSum(t *testing.T) {
	f := func(p, n int, seed int64) bool {
		p = 1 + p%8
		if p < 1 {
			p = -p + 1
		}
		n = n % 200
		if n < 0 {
			n = -n
		}
		r := rand.New(rand.NewSource(seed))
		data := make([][]float64, p)
		want := make([]float64, n)
		for rk := range data {
			data[rk] = make([]float64, n)
			for i := range data[rk] {
				data[rk][i] = r.NormFloat64()
				want[i] += data[rk][i]
			}
		}
		ok := true
		err := RunLocal(p, nil, func(c Comm) error {
			buf := append([]float64(nil), data[c.Rank()]...)
			if err := c.AllreduceSum(buf); err != nil {
				return err
			}
			for i := range buf {
				if math.Abs(buf[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Property: Allgatherv reconstructs the concatenation for random segment
// length splits.
func TestPropertyAllgatherv(t *testing.T) {
	f := func(p int, seed int64) bool {
		p = 1 + abs(p)%6
		r := rand.New(rand.NewSource(seed))
		counts := make([]int, p)
		total := 0
		for i := range counts {
			counts[i] = r.Intn(30)
			total += counts[i]
		}
		want := make([]float64, total)
		for i := range want {
			want[i] = float64(i) * 1.5
		}
		offsets := make([]int, p)
		at := 0
		for i := range counts {
			offsets[i] = at
			at += counts[i]
		}
		ok := true
		err := RunLocal(p, nil, func(c Comm) error {
			seg := want[offsets[c.Rank()] : offsets[c.Rank()]+counts[c.Rank()]]
			out := make([]float64, total)
			if err := c.Allgatherv(append([]float64(nil), seg...), counts, out); err != nil {
				return err
			}
			for i := range out {
				if out[i] != want[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
