// Package octgb's root benchmark harness: one testing.B target per table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index), plus the ablation benches. Each benchmark regenerates its
// table/figure end to end at a reduced default scale so `go test -bench=.`
// completes in minutes; cmd/benchsuite exposes the full-scale knobs.
package octgb

import (
	"sync"
	"testing"

	"octgb/internal/bench"
)

// benchRunner is shared across benchmarks so the expensive suite
// preparation (molecule generation, surfaces, naive references) is paid
// once per `go test -bench` invocation.
var (
	benchOnce   sync.Once
	benchShared *bench.Runner
)

func runner() *bench.Runner {
	benchOnce.Do(func() {
		benchShared = bench.NewRunner(bench.Config{
			Scale:     0.01, // 60k-atom BTV stand-in, 5k-atom CMV stand-in
			SuiteSize: 8,
			Runs:      20,
		})
	})
	return benchShared
}

func BenchmarkTableEnv(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		if len(r.TableEnv().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTablePackages(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		if len(r.TablePackages().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5Scalability(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig5Scalability().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig6MinMax(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig6MinMax().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig7Engines(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig7Engines().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig8Baselines(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta, tb := r.Fig8Baselines()
		if len(ta.Rows) == 0 || len(tb.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig9Energy().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig10Epsilon(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig10Epsilon().Rows) != 9 {
			b.Fatal("figure 10 should have 9 ε rows")
		}
	}
}

func BenchmarkFig11CMV(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Fig11CMV().Rows) != 4 {
			b.Fatal("figure 11 should have 4 program rows")
		}
	}
}

func BenchmarkAblationWorkDivision(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationWorkDivision().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationOctreeVsNblist(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationOctreeVsNblist().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationEnergyBinning(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationEnergyBinning().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationStealing(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationStealing().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationStaticBalance(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationStaticBalance().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationDataDistribution(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationDataDistribution().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationCriterion(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.AblationCriterion().Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}
