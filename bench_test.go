// Benchmarks mirroring the paper's tables and figures, one bench group per
// artifact. Absolute numbers depend on the host; the shapes to check are:
//
//	Fig4d  — pricing cost grows near-linearly with |S|;
//	Fig4f  — history-aware pricing is not slower than oblivious pricing;
//	Fig5a/b — batching beats no-batching by 1–2 orders of magnitude and
//	          lands within a small factor of plain query execution;
//	Appendix A — instance reduction speeds up the naive path.
//
// Run with: go test -bench=. -benchmem
package qirana

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/maxent"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/workload"
)

// ---- lazily shared fixtures (built once per bench binary) ----

type fixture struct {
	db  *storage.Database
	set *support.Set
}

var (
	fixMu  sync.Mutex
	fixMap = map[string]*fixture{}
)

func fix(b *testing.B, name string, build func() *storage.Database, supportSize int) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	key := fmt.Sprintf("%s/%d", name, supportSize)
	if f, ok := fixMap[key]; ok {
		return f
	}
	db := build()
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(supportSize, 1))
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{db: db, set: set}
	fixMap[key] = f
	return f
}

func worldFix(b *testing.B, size int) *fixture {
	return fix(b, "world", func() *storage.Database { return datagen.World(1) }, size)
}

func ssbFix(b *testing.B, size int) *fixture {
	return fix(b, "ssb", func() *storage.Database { return datagen.SSB(1, 0.002) }, size)
}

func tpchFix(b *testing.B, size int) *fixture {
	return fix(b, "tpch", func() *storage.Database { return datagen.TPCH(1, 0.002) }, size)
}

func priceOnce(b *testing.B, e *pricing.Engine, fn pricing.Func, q *exec.Query) {
	b.Helper()
	if _, err := e.Price(fn, q); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig2PricingFunctions prices the Figure 2 benchmark queries
// under each pricing function (nbrs support).
func BenchmarkFig2PricingFunctions(b *testing.B) {
	f := worldFix(b, 200)
	for _, fn := range pricing.AllFuncs {
		q := exec.MustCompile(workload.SigmaU(64).SQL, f.db.Schema)
		b.Run(fn.String(), func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, fn, q)
			}
		})
	}
}

// BenchmarkFig4dSupportSize measures coverage pricing cost against |S|
// for the four §2.4 queries (Figure 4d's axes).
func BenchmarkFig4dSupportSize(b *testing.B) {
	for _, size := range []int{10, 200, 1000} {
		for _, wq := range []workload.Query{workload.SigmaU(80), workload.PiU(4), workload.JoinU(80), workload.GammaU(20)} {
			b.Run(fmt.Sprintf("%s/S=%d", wq.Name, size), func(b *testing.B) {
				f := worldFix(b, size)
				q := exec.MustCompile(wq.SQL, f.db.Schema)
				e := pricing.NewEngine(f.db, f.set, 100)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					priceOnce(b, e, pricing.WeightedCoverage, q)
				}
			})
		}
	}
}

// BenchmarkFig4eHistorySSB compares history-oblivious and history-aware
// pricing of an SSB flight (Figures 4e/4f).
func BenchmarkFig4eHistorySSB(b *testing.B) {
	f := ssbFix(b, 500)
	q := exec.MustCompile(workload.SSB()[0].SQL, f.db.Schema)
	warm := exec.MustCompile(workload.SSB()[3].SQL, f.db.Schema)
	b.Run("oblivious", func(b *testing.B) {
		e := pricing.NewEngine(f.db, f.set, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			priceOnce(b, e, pricing.WeightedCoverage, q)
		}
	})
	b.Run("history-aware-warm", func(b *testing.B) {
		e := pricing.NewEngine(f.db, f.set, 100)
		h := pricing.NewHistory(f.set.Size())
		// A prior purchase charges off part of the support set.
		if _, err := e.PriceHistoryAware(h, warm); err != nil {
			b.Fatal(err)
		}
		charged := append([]bool{}, h.Charged...)
		paid := h.Paid
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(h.Charged, charged)
			h.Paid = paid
			if _, err := e.PriceHistoryAware(h, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchScalability is the Figure 5 harness: per query, no-batching vs
// batching vs bare execution, plus the batched fast path at NumCPU
// workers (clamps to GOMAXPROCS — identical to /batching on one core).
func benchScalability(b *testing.B, f *fixture, wqs []workload.Query) {
	for _, wq := range wqs {
		q := exec.MustCompile(wq.SQL, f.db.Schema)
		b.Run(wq.Name+"/exec", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(f.db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wq.Name+"/no-batching", func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			e.Opts.Batching = false
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, pricing.WeightedCoverage, q)
			}
		})
		b.Run(wq.Name+"/batching", func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, pricing.WeightedCoverage, q)
			}
		})
		b.Run(wq.Name+"/batching-parallel", func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			e.Opts.Workers = runtime.NumCPU()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, pricing.WeightedCoverage, q)
			}
		})
	}
}

// BenchmarkFig5aSSB reproduces Figure 5a on representative SSB flights.
func BenchmarkFig5aSSB(b *testing.B) {
	f := ssbFix(b, 500)
	all := workload.SSB()
	benchScalability(b, f, []workload.Query{all[0], all[3], all[6], all[10]})
}

// BenchmarkFig5bTPCH reproduces Figure 5b on the fast-path TPC-H queries
// plus one naive-path query (Q17) for contrast.
func BenchmarkFig5bTPCH(b *testing.B) {
	f := tpchFix(b, 500)
	byName := map[string]workload.Query{}
	for _, wq := range workload.TPCH() {
		byName[wq.Name] = wq
	}
	benchScalability(b, f, []workload.Query{byName["Q1"], byName["Q6"], byName["Q12"], byName["Q17"]})
}

// BenchmarkTable3Workloads prices the Table 3 workloads.
func BenchmarkTable3Workloads(b *testing.B) {
	dblp := fix(b, "dblp", func() *storage.Database { return datagen.DBLP(1, 0.002) }, 300)
	crash := fix(b, "crash", func() *storage.Database { return datagen.CarCrash(1, 4000) }, 300)
	b.Run("dblp/Qd7", func(b *testing.B) {
		q := exec.MustCompile(workload.DBLP(dblp.db)[6].SQL, dblp.db.Schema)
		e := pricing.NewEngine(dblp.db, dblp.set, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			priceOnce(b, e, pricing.WeightedCoverage, q)
		}
	})
	b.Run("crash/Qc1", func(b *testing.B) {
		q := exec.MustCompile(workload.CarCrash()[0].SQL, crash.db.Schema)
		e := pricing.NewEngine(crash.db, crash.set, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			priceOnce(b, e, pricing.WeightedCoverage, q)
		}
	})
}

// BenchmarkAblationNaivePaths isolates the Appendix A instance-reduction
// optimization on the naive path (fast path disabled).
func BenchmarkAblationNaivePaths(b *testing.B) {
	f := worldFix(b, 300)
	q := exec.MustCompile("SELECT Name, Population FROM Country WHERE Continent = 'Asia'", f.db.Schema)
	for _, mode := range []struct {
		name string
		opts pricing.Options
	}{
		{"plain-naive", pricing.Options{}},
		{"instance-reduction", pricing.Options{InstanceReduction: true}},
		{"fast-path", pricing.DefaultOptions()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			e.Opts = mode.opts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, pricing.WeightedCoverage, q)
			}
		})
	}
}

// BenchmarkParallelNaive measures the parallel-workers extension on the
// naive path (with the fast path off, entropy pricing runs the query on
// every element). The worker count clamps to GOMAXPROCS, so single-core
// hosts show no gain.
func BenchmarkParallelNaive(b *testing.B) {
	f := worldFix(b, 400)
	q := exec.MustCompile("SELECT Continent, count(*) FROM Country GROUP BY Continent", f.db.Schema)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := pricing.NewEngine(f.db, f.set, 100)
			e.Opts = pricing.Options{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				priceOnce(b, e, pricing.ShannonEntropy, q)
			}
		})
	}
}

// BenchmarkMaxentFit measures the §3.3 weight-fitting step.
func BenchmarkMaxentFit(b *testing.B) {
	n := 5000
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	half := all[:n/2]
	quarter := all[n/4 : n/2]
	cons := []maxent.Constraint{
		{Members: all, Target: 100},
		{Members: half, Target: 70},
		{Members: quarter, Target: 30},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxent.Solve(n, cons, maxent.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupportSetGeneration measures the preprocessing module.
func BenchmarkSupportSetGeneration(b *testing.B) {
	db := datagen.World(1)
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("S=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := support.GenerateNeighborhood(db, support.DefaultConfig(size, int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryExecution measures the SQL substrate on its own.
func BenchmarkQueryExecution(b *testing.B) {
	f := ssbFix(b, 10)
	for _, wq := range []workload.Query{workload.SSB()[0], workload.SSB()[6]} {
		q := exec.MustCompile(wq.SQL, f.db.Schema)
		b.Run(wq.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(f.db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
