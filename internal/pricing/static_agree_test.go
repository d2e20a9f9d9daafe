package pricing

import (
	"context"
	"fmt"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/disagree"
	"qirana/internal/storage"
	"qirana/internal/support"
)

// staticAgreeCases spans the generator schemas with three fast-path
// queries each: selections, joins, DISTINCT, a self-join and integer and
// float aggregates (float SUM/AVG are where a re-summation in a new row
// order would show).
var staticAgreeCases = []struct {
	name    string
	db      func() *storage.Database
	size    int
	queries []string
}{
	{"world-int", func() *storage.Database { return datagen.World(1) }, 200, []string{
		"SELECT Name, Population FROM Country WHERE Population > 38740542",
		"SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > 38740542 GROUP BY Continent",
		"SELECT CountryCode, sum(Population) FROM City WHERE Population > 1000000 GROUP BY CountryCode",
	}},
	{"world-str", func() *storage.Database { return datagen.World(1) }, 200, []string{
		"SELECT count(*) FROM Country WHERE Continent = 'Asia'",
		"SELECT Name FROM Country WHERE Continent = 'Europe'",
		"SELECT Region, sum(GNP) FROM Country WHERE Continent = 'Africa' GROUP BY Region",
	}},
	{"carcrash", func() *storage.Database { return datagen.CarCrash(2, 300) }, 150, []string{
		"SELECT State, min(Age) FROM crash WHERE Age > 60 GROUP BY State",
		"SELECT count(*) FROM crash WHERE Age > 40",
		"SELECT State, avg(Alcohol_Results) FROM crash WHERE Age < 30 GROUP BY State",
	}},
	{"ssb", func() *storage.Database { return datagen.SSB(3, 0.001) }, 120, []string{
		"SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey AND lo_revenue > 4000000 GROUP BY c_city",
		"SELECT count(*) FROM lineorder WHERE lo_revenue > 4000000",
		"SELECT DISTINCT c_nation FROM customer WHERE c_region = 'ASIA'",
	}},
	{"tpch", func() *storage.Database { return datagen.TPCH(4, 0.002) }, 120, []string{
		"SELECT s_name FROM supplier WHERE s_acctbal > 5000",
		"SELECT n_name, sum(s_acctbal) FROM nation, supplier WHERE n_nationkey = s_nationkey GROUP BY n_name",
		"SELECT a.s_name FROM supplier a, supplier b WHERE a.s_nationkey = b.s_nationkey AND b.s_acctbal > 5000",
	}},
	{"dblp", func() *storage.Database { return datagen.DBLP(5, 0.005) }, 120, []string{
		"SELECT count(*) FROM dblp WHERE ToNodeId < 800",
		"SELECT DISTINCT FromNodeId FROM dblp WHERE ToNodeId < 200",
		"SELECT min(ToNodeId), max(ToNodeId) FROM dblp WHERE FromNodeId < 100",
	}},
}

// TestEntropyStaticAgreeMatchesFullSweep pins the entropy sweep's skip
// rule against the full re-execution sweep (FastPath off) on every
// generator schema. First the premise: on every element all checkers
// classify as a static Agree — and, per query, on every element its own
// checker does — overlay re-execution reproduces the base hash exactly.
// Then the sweep: the bundle form and the k = 3 form return the full
// sweep's hashes bit for bit, and the same Shannon/QEntropy prices, exact
// and sampled — unmasked, under support.SampleMask, and under two
// disjoint covering shard-style slices whose hashes stitch and whose
// Stats add to the unmasked sweep's — serially and with Workers = 4. Every
// live (element, query) pair counts once, as Static or Naive.
func TestEntropyStaticAgreeMatchesFullSweep(t *testing.T) {
	forceParallel(t)
	ctx := context.Background()
	for _, tc := range staticAgreeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db()
			set, err := support.GenerateNeighborhood(db, support.DefaultConfig(tc.size, 7))
			if err != nil {
				t.Fatal(err)
			}
			n, k := set.Size(), len(tc.queries)
			full := NewEngine(db, set, 100)
			full.Opts.FastPath = false
			qs := compileAll(t, full, tc.queries)
			fullElems, fullBases, fullStats, err := full.OutputHashesMultiLiveCtx(ctx, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			fullBundle, fullBundleBase, _, err := full.OutputHashesLiveCtx(ctx, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range qs {
				if fullStats[j] != (Stats{Naive: n}) {
					t.Fatalf("query %d: full sweep stats %+v, want %d naive", j, fullStats[j], n)
				}
			}

			// The premise, per query and for all k.
			cs := make([]*disagree.Checker, k)
			for j, q := range qs {
				if cs[j], err = disagree.New(q, db); err != nil {
					t.Fatalf("%q has no checker: %v", tc.queries[j], err)
				}
			}
			allStatic := 0
			for i, u := range set.Updates {
				for j := range qs {
					if disagree.StaticAgree(cs[j:j+1], u) && fullElems[j][i] != fullBases[j] {
						t.Fatalf("%q element %d: static Agree but re-execution changed the hash", tc.queries[j], i)
					}
				}
				if disagree.StaticAgree(cs, u) {
					allStatic++
					if fullBundle[i] != fullBundleBase {
						t.Fatalf("element %d: static Agree for all queries but the bundle hash changed", i)
					}
				}
			}
			if allStatic == 0 {
				t.Fatal("no element is a static Agree for all queries: the skip is never exercised")
			}

			half := make([]bool, n)
			for i := 0; i < n/2; i++ {
				half[i] = true
			}
			masks := []struct {
				name string
				live []bool
			}{
				{"all", nil},
				{"sample", support.SampleMask(n, 0.25, 3, 0)},
				{"lo", half},
				{"hi", invert(half)},
			}
			for _, workers := range []int{1, 4} {
				fast := NewEngine(db, set, 100)
				fast.Opts.Workers = workers
				sliceStats, allStats := make([]Stats, k), []Stats(nil)
				var sliceBundle, allBundle Stats
				stitched := make([]uint64, n)
				for _, m := range masks {
					label := fmt.Sprintf("workers=%d mask=%s", workers, m.name)
					elems, bases, stats, err := fast.OutputHashesMultiLiveCtx(ctx, qs, m.live)
					if err != nil {
						t.Fatal(err)
					}
					bundle, bundleBase, bstats, err := fast.OutputHashesLiveCtx(ctx, qs, m.live)
					if err != nil {
						t.Fatal(err)
					}
					nLive := 0
					for i := 0; i < n; i++ {
						live := m.live == nil || m.live[i]
						if live {
							nLive++
						}
						for j := range qs {
							if want := maskedHash(fullElems[j][i], live); elems[j][i] != want {
								t.Fatalf("%s %q element %d: hash %x, full sweep %x", label, tc.queries[j], i, elems[j][i], want)
							}
						}
						if want := maskedHash(fullBundle[i], live); bundle[i] != want {
							t.Fatalf("%s bundle element %d: hash %x, full sweep %x", label, i, bundle[i], want)
						}
						if live && (m.name == "lo" || m.name == "hi") {
							stitched[i] = bundle[i]
						}
					}
					if bundleBase != fullBundleBase {
						t.Fatalf("%s: bundle base hash differs from the full sweep's", label)
					}
					for j := range qs {
						if bases[j] != fullBases[j] {
							t.Fatalf("%s %q: base hash differs from the full sweep's", label, tc.queries[j])
						}
						if s := stats[j]; s.Static+s.Naive != nLive || s != (Stats{Static: s.Static, Naive: s.Naive}) {
							t.Fatalf("%s %q: stats %+v do not count the %d live elements once", label, tc.queries[j], s, nLive)
						}
					}
					if bstats.Static+bstats.Naive != nLive*k || bstats.Static != stats[0].Static*k {
						t.Fatalf("%s: bundle stats %+v, want %d live pairs", label, bstats, nLive*k)
					}
					switch m.name {
					case "all":
						allStats, allBundle = stats, bstats
						if bstats.Static != allStatic*k {
							t.Fatalf("%s: %d static pairs, want %d", label, bstats.Static, allStatic*k)
						}
						for _, fn := range []Func{ShannonEntropy, QEntropy} {
							want, err := full.EntropyPriceFromHashes(fn, fullBundle)
							if err != nil {
								t.Fatal(err)
							}
							got, err := fast.PriceCtx(ctx, fn, qs...)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Errorf("%s %v: bundle price %v, full sweep %v", label, fn, got, want)
							}
							for j := range qs {
								got, _ := fast.EntropyPriceFromHashes(fn, elems[j])
								want, _ := full.EntropyPriceFromHashes(fn, fullElems[j])
								if got != want {
									t.Errorf("%s %v %q: price %v, full sweep %v", label, fn, tc.queries[j], got, want)
								}
							}
						}
					case "sample":
						for _, fn := range []Func{ShannonEntropy, QEntropy} {
							masked := make([]uint64, n)
							for i, ok := range m.live {
								masked[i] = maskedHash(fullBundle[i], ok)
							}
							want, err := full.EstimateFromSampledHashes(fn, masked, m.live)
							if err != nil {
								t.Fatal(err)
							}
							got, err := fast.ApproxPriceCtx(ctx, fn, m.live, qs...)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Errorf("%s %v: sampled estimate %+v, full sweep %+v", label, fn, got, want)
							}
						}
					default:
						for j := range qs {
							sliceStats[j].Add(stats[j])
						}
						sliceBundle.Add(bstats)
					}
				}
				for j := range qs {
					if sliceStats[j] != allStats[j] {
						t.Errorf("workers=%d %q: slice stats sum to %+v, unmasked %+v", workers, tc.queries[j], sliceStats[j], allStats[j])
					}
				}
				if sliceBundle != allBundle {
					t.Errorf("workers=%d: bundle slice stats sum to %+v, unmasked %+v", workers, sliceBundle, allBundle)
				}
				for _, fn := range []Func{ShannonEntropy, QEntropy} {
					got, _ := fast.EntropyPriceFromHashes(fn, stitched)
					want, _ := full.EntropyPriceFromHashes(fn, fullBundle)
					if got != want {
						t.Errorf("workers=%d %v: stitched slice price %v, full sweep %v", workers, fn, got, want)
					}
				}
			}
		})
	}
}

// maskedHash is the hash a masked sweep reports for an element: its own
// when live, zero when skipped.
func maskedHash(h uint64, live bool) uint64 {
	if live {
		return h
	}
	return 0
}

func invert(m []bool) []bool {
	out := make([]bool, len(m))
	for i, b := range m {
		out[i] = !b
	}
	return out
}

// TestFloatAggregateReorderPricesLikeReexecution is the regression for
// float SUM/AVG contributions that move but net to zero: on world seed 1,
// element 60 swaps two contributing rows across Asia and Europe, so each
// continent keeps its multiset of LifeExpectancy values, but exec sums
// them in a new row order and Europe's average moves in its last bit. The
// fast path must see the disagreement re-execution sees (it once priced
// 26 against 26.25).
func TestFloatAggregateReorderPricesLikeReexecution(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast := NewEngine(db, set, 100)
	slow := NewEngine(db, set, 100)
	slow.Opts.FastPath = false
	for _, c := range []int64{0, 38740542, 200000000} {
		sql := fmt.Sprintf("SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > %d GROUP BY Continent", c)
		want := price(t, slow, WeightedCoverage, sql)
		if got := price(t, fast, WeightedCoverage, sql); got != want {
			t.Errorf("%s: fast path %v, re-execution %v", sql, got, want)
		}
	}
	sql := "SELECT Continent, sum(LifeExpectancy) FROM Country GROUP BY Continent"
	if got, want := price(t, fast, WeightedCoverage, sql), price(t, slow, WeightedCoverage, sql); got != want {
		t.Errorf("%s: fast path %v, re-execution %v", sql, got, want)
	}
}
