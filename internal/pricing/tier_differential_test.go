package pricing

import (
	"context"
	"testing"
	"testing/quick"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
)

// TestTieredPricingDifferential is the tier machinery's correctness
// contract: for every generator schema, pricing with the tiered checkers
// (incremental views, higher-order deltas) is bit-identical to the naive
// per-element re-execution of §3 (FastPath off), the ground truth. testing/quick
// drives a randomized ± update stream: each probe permanently applies a
// support update (moving table version stamps so every cached index and
// materialized view must invalidate), reprices, compares, and undoes. The
// parallel tiered engine must additionally match serially, price AND Stats.
// Run with -race to double as the shared-view correctness test.
func TestTieredPricingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential over all generator schemas")
	}
	forceParallel(t)
	cases := []struct {
		name    string
		db      *storage.Database
		size    int
		probes  int
		queries []string
	}{
		{"world", datagen.World(1), 200, 4, []string{
			"SELECT Continent, max(Population) FROM Country GROUP BY Continent",
			"SELECT min(Percentage), max(Percentage) FROM CountryLanguage",
			"SELECT DISTINCT Continent FROM Country",
			"SELECT a.Name FROM Country a, Country b WHERE a.Continent = b.Continent AND b.Population > 100000000",
			"SELECT DISTINCT C.Continent FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage > 90",
		}},
		{"carcrash", datagen.CarCrash(2, 300), 150, 6, []string{
			"SELECT State, min(Age) FROM crash GROUP BY State",
			"SELECT DISTINCT State FROM crash WHERE Age > 60",
		}},
		{"ssb", datagen.SSB(3, 0.001), 120, 5, []string{
			"SELECT DISTINCT c_nation FROM customer",
			"SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey GROUP BY c_city",
		}},
		{"tpch", datagen.TPCH(4, 0.002), 120, 5, []string{
			"SELECT n_name, max(s_acctbal) FROM nation, supplier WHERE n_nationkey = s_nationkey GROUP BY n_name",
			"SELECT a.s_name FROM supplier a, supplier b WHERE a.s_nationkey = b.s_nationkey AND b.s_acctbal > 5000",
		}},
		{"dblp", datagen.DBLP(5, 0.02), 120, 5, []string{
			"SELECT DISTINCT FromNodeId FROM dblp WHERE ToNodeId < 500",
			"SELECT min(ToNodeId), max(ToNodeId) FROM dblp",
		}},
	}
	var tieredPartial int
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			set, err := support.GenerateNeighborhood(tc.db, support.DefaultConfig(tc.size, 7))
			if err != nil {
				t.Fatal(err)
			}
			tiered := NewEngine(tc.db, set, 100)
			naive := NewEngine(tc.db, set, 100)
			naive.Opts.FastPath = false
			par := NewEngine(tc.db, set, 100)
			par.Opts.Workers = 4
			qs := make([]*exec.Query, len(tc.queries))
			for i, sql := range tc.queries {
				qs[i] = exec.MustCompile(sql, tc.db.Schema)
			}
			ctx := context.Background()
			compare := func() bool {
				ok := true
				for i, q := range qs {
					want, err := naive.PriceCtx(ctx, WeightedCoverage, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tiered.PriceCtx(ctx, WeightedCoverage, q)
					if err != nil {
						t.Fatal(err)
					}
					tieredPartial += tiered.LastStats.DeltaPartial
					if got != want {
						t.Errorf("%q: tiered price %v != naive %v", tc.queries[i], got, want)
						ok = false
					}
					pgot, err := par.PriceCtx(ctx, WeightedCoverage, q)
					if err != nil {
						t.Fatal(err)
					}
					if pgot != got || par.LastStats != tiered.LastStats {
						t.Errorf("%q: parallel tiered (%v, %+v) != serial (%v, %+v)",
							tc.queries[i], pgot, par.LastStats, got, tiered.LastStats)
						ok = false
					}
				}
				return ok
			}
			if !compare() {
				t.Fatal("static database differential failed")
			}
			// Randomized ± update stream: permanently mutate, invalidate,
			// reprice, compare, restore. Version stamps move twice per probe,
			// so every cached index and materialized view rebuilds.
			prop := func(pick uint16) bool {
				u := set.Updates[int(pick)%len(set.Updates)]
				u.Apply(tc.db)
				tiered.InvalidateCache()
				naive.InvalidateCache()
				par.InvalidateCache()
				ok := compare()
				u.Undo(tc.db)
				tiered.InvalidateCache()
				naive.InvalidateCache()
				par.InvalidateCache()
				return ok && compare()
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: tc.probes}); err != nil {
				t.Error(err)
			}
		})
	}
	if tieredPartial == 0 {
		t.Error("tiered engines never used the partial delta tier")
	}
}
