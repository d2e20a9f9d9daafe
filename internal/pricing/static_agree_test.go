package pricing

import (
	"context"
	"fmt"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/disagree"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// staticAgreeCases spans the generator schemas with three fast-path
// queries each: selections, joins, DISTINCT, a self-join and integer and
// float aggregates (float SUM/AVG are where a re-summation in a new row
// order would show), plus world's DISTINCT, global MIN/MAX and
// multi-source group-by shapes, which hash through the tagged jobs and
// residual runs rather than a delta or a refold.
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
	{"world-rerun", func() *storage.Database { return datagen.World(1) }, 300, []string{
		"SELECT DISTINCT Language FROM CountryLanguage WHERE Percentage > 20.500",
		"SELECT max(Population), min(Population) FROM City WHERE ID > 1000 AND Population < 5000000",
		"SELECT C.Continent, count(*), max(T.Population) FROM Country C, City T WHERE C.Code = T.CountryCode AND T.Population > 100000 GROUP BY C.Continent",
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

// TestEntropyStaticAgreeMatchesFullSweep pins the entropy sweep's
// shortcuts — the static skip, the delta hashes and the residual runs —
// against the full re-execution sweep (FastPath off) on every generator
// schema; see checkEntropySweep. Across the schemas every form must be
// exercised: the single-occurrence SPJ delta, the self-join delta, the
// batched partial tier (DISTINCT flips, the group refold) and the
// residual runs of aggregates whose output moves.
func TestEntropyStaticAgreeMatchesFullSweep(t *testing.T) {
	forceParallel(t)
	var sum Stats
	for _, tc := range staticAgreeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db()
			set, err := support.GenerateNeighborhood(db, support.DefaultConfig(tc.size, 7))
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(checkEntropySweep(t, db, set, tc.queries, true))
			// Alone, so no query that needs re-execution shares its
			// elements: the self-join delta serves them.
			if tc.name == "tpch" {
				sum.Add(checkEntropySweep(t, db, set, tc.queries[2:], true))
			}
		})
	}
	// A self-join delta counts as DeltaPartial alone, so it is the share of
	// the residual pairs that Batched does not cover.
	selfJoin := sum.DeltaFull + sum.DeltaPartial + sum.FullRuns - sum.Batched
	if sum.DeltaFull == 0 || sum.FullRuns == 0 || selfJoin <= 0 || sum.DeltaPartial <= selfJoin {
		t.Errorf("delta hashing not exercised in every form: %+v", sum)
	}
}

// groupRefoldQueries are single-source group-bys of the refold's domain
// (an expression over aggregates, float AVG and SUM, MIN/MAX over strings
// and floats in one-row Name groups) and three shapes plan.Extract
// rejects, so they keep the overlay pass: HAVING, a MySQL-permissive
// non-grouped column and COUNT(DISTINCT).
var groupRefoldQueries = []string{
	"SELECT Continent, sum(Population) / count(*), avg(LifeExpectancy) FROM Country WHERE Population > 1000000 GROUP BY Continent",
	"SELECT Region, sum(GNP), avg(LifeExpectancy) FROM Country GROUP BY Region",
	"SELECT Name, min(Region), max(LifeExpectancy), min(GNP) FROM Country WHERE Population > 1000000 GROUP BY Name",
	"SELECT Continent, count(*), avg(LifeExpectancy) FROM Country GROUP BY Continent HAVING count(*) > 30",
	"SELECT Continent, Name, max(Population) FROM Country GROUP BY Continent",
	"SELECT Continent, count(DISTINCT Region), count(*) FROM Country GROUP BY Continent",
}

// groupRefolds is the number of groupRefoldQueries with a checker.
const groupRefolds = 3

// TestEntropyGroupRefoldMatchesFullSweep checks the group refold on world
// group-bys over a generated support set extended by hand-made updates:
// LifeExpectancy swaps inside one continent and across two, a Continent
// swap that moves two rows between groups, a row update into a group D
// does not have, WHERE-failing rows made to pass into an existing group,
// into their own group (which has no output row over D) and into a new
// group, and a passing row made to fail, which empties its Name group.
// Each query is checked alone (the refold shapes must hash every element
// they are not static on by refold, counted as Batched + DeltaPartial,
// and the no-checker shapes re-execute every element), and all of them
// together, where each keeps the Stats it has alone.
func TestEntropyGroupRefoldMatchesFullSweep(t *testing.T) {
	forceParallel(t)
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(150, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range groupUpdates(t, db) {
		set.Elements = append(set.Elements, u)
		set.Updates = append(set.Updates, u)
	}
	for j, sql := range groupRefoldQueries {
		t.Run(fmt.Sprintf("q%d", j), func(t *testing.T) {
			s := checkEntropySweep(t, db, set, []string{sql}, j < groupRefolds)
			if j < groupRefolds && (s.DeltaPartial == 0 || s.Batched != s.DeltaPartial || s.Naive != 0) {
				t.Errorf("%q: stats %+v, want every non-static element refolded", sql, s)
			}
			if j >= groupRefolds && s.Naive != set.Size() {
				t.Errorf("%q: stats %+v, want every element re-executed", sql, s)
			}
		})
	}
	t.Run("bundle", func(t *testing.T) { checkEntropySweep(t, db, set, groupRefoldQueries, false) })
}

// groupUpdates builds the hand-made Country updates of
// TestEntropyGroupRefoldMatchesFullSweep.
func groupUpdates(t *testing.T, db *storage.Database) []*support.Update {
	t.Helper()
	rel := db.Schema.Relation("Country")
	cont, life, pop := rel.AttrIndex("Continent"), rel.AttrIndex("LifeExpectancy"), rel.AttrIndex("Population")
	tbl := db.Table("Country")
	// A row failing Population > 1000000 and one passing it.
	fail, pass := -1, -1
	for i := range tbl.Rows {
		if p := tbl.Get(i, pop); p.IsNull() || p.I <= 1000000 {
			if fail < 0 {
				fail = i
			}
		} else if pass < 0 {
			pass = i
		}
	}
	if fail < 0 || pass < 0 {
		t.Fatal("world has no rows on both sides of Population > 1000000")
	}
	// Two rows of one continent and one row of another, all with distinct
	// non-NULL LifeExpectancy.
	a, b, c := -1, -1, -1
	for i := range tbl.Rows {
		if tbl.Get(i, life).IsNull() {
			continue
		}
		switch {
		case a < 0:
			a = i
		case b < 0 && value.Equal(tbl.Get(i, cont), tbl.Get(a, cont)) && !value.Equal(tbl.Get(i, life), tbl.Get(a, life)):
			b = i
		case c < 0 && !value.Equal(tbl.Get(i, cont), tbl.Get(a, cont)) && !value.Equal(tbl.Get(i, life), tbl.Get(a, life)):
			c = i
		}
	}
	if b < 0 || c < 0 {
		t.Fatal("world has no rows for the hand-made swaps")
	}
	swap := func(r1, r2, attr int) *support.Update {
		v1, v2 := tbl.Get(r1, attr), tbl.Get(r2, attr)
		return &support.Update{Rel: "Country", Swap: true, Row1: r1, Row2: r2, Attrs: []int{attr},
			Old1: []value.Value{v1}, New1: []value.Value{v2}, Old2: []value.Value{v2}, New2: []value.Value{v1}}
	}
	rewrite := func(r int, attrs []int, vals ...value.Value) *support.Update {
		u := &support.Update{Rel: "Country", Row1: r, Attrs: attrs, New1: vals}
		for _, at := range attrs {
			u.Old1 = append(u.Old1, tbl.Get(r, at))
		}
		return u
	}
	return []*support.Update{
		swap(a, b, life), // inside one group
		swap(a, c, life), // across two groups
		swap(a, c, cont), // rows change groups
		{Rel: "Country", Row1: b, Attrs: []int{cont},
			Old1: []value.Value{tbl.Get(b, cont)}, New1: []value.Value{value.NewString("Atlantis")}},
		rewrite(fail, []int{pop, cont}, value.NewInt(2000000), tbl.Get(pass, cont)),        // fails -> passes, existing group
		rewrite(fail, []int{pop}, value.NewInt(2000000)),                                   // fails -> passes, its own group
		rewrite(fail, []int{pop, cont}, value.NewInt(2000000), value.NewString("Lemuria")), // fails -> passes, new group
		rewrite(pass, []int{pop}, value.NewInt(0)),                                         // passes -> fails, its Name group empties
	}
}

// checkEntropySweep pins the entropy sweep of queries against the full
// re-execution sweep (FastPath off) over set, and returns the unmasked
// bundle Stats. First the premise, which needs a checker for every query
// (a query without one fails the test when wantChecker is set): on every
// element all checkers classify as a static Agree — and there must be one
// such element — and, per query, on every element its own checker does,
// overlay re-execution reproduces the base hash exactly. Then the
// sweep: the bundle form and the k-query form return the full sweep's
// hashes bit for bit, which checks every delta-hashed pair against overlay
// re-execution, and the same Shannon/QEntropy prices, exact and sampled —
// unmasked, under support.SampleMask, and under two disjoint covering
// shard-style slices whose hashes stitch and whose Stats add to the
// unmasked sweep's — serially and with Workers = 4. Every live (element,
// query) pair counts exactly once in the partition Static, DeltaFull,
// DeltaPartial, FullRuns, Naive; each query's Stats are the same alone
// as in the k-query sweep, and the bundle's Stats are their sum.
func checkEntropySweep(t *testing.T, db *storage.Database, set *support.Set, queries []string, wantChecker bool) Stats {
	t.Helper()
	ctx := context.Background()
	n, k := set.Size(), len(queries)
	full := NewEngine(db, set, 100)
	full.Opts.FastPath = false
	qs := compileAll(t, full, queries)
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

	// The premise, per query and for all k, when every query has a checker.
	cs := make([]*disagree.Checker, k)
	for j, q := range qs {
		if cs[j], err = disagree.New(q, db); err != nil {
			if wantChecker {
				t.Fatalf("%q has no checker: %v", queries[j], err)
			}
			cs = nil
			break
		}
	}
	allStatic := 0
	if cs != nil {
		for i, u := range set.Updates {
			all := true
			for j, c := range cs {
				agree := c.Classify(u) == disagree.Agree
				if agree && fullElems[j][i] != fullBases[j] {
					t.Fatalf("%q element %d: static Agree but re-execution changed the hash", queries[j], i)
				}
				all = all && agree
			}
			if all {
				allStatic++
				if fullBundle[i] != fullBundleBase {
					t.Fatalf("element %d: static Agree for all queries but the bundle hash changed", i)
				}
			}
		}
		if allStatic == 0 {
			t.Fatal("no element is a static Agree for all queries: the skip is never exercised")
		}
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
	var unmasked Stats
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
						t.Fatalf("%s %q element %d: hash %x, full sweep %x", label, queries[j], i, elems[j][i], want)
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
			var sum Stats
			for j := range qs {
				if bases[j] != fullBases[j] {
					t.Fatalf("%s %q: base hash differs from the full sweep's", label, queries[j])
				}
				if s := stats[j]; decided(s) != nLive || s.Batched > s.DeltaFull+s.DeltaPartial+s.FullRuns {
					t.Fatalf("%s %q: stats %+v do not count the %d live elements once", label, queries[j], s, nLive)
				}
				sum.Add(stats[j])
			}
			if bstats != sum {
				t.Fatalf("%s: bundle stats %+v, per-query stats sum to %+v", label, bstats, sum)
			}
			switch m.name {
			case "all":
				allStats, allBundle, unmasked = stats, bstats, bstats
				for j := range qs {
					_, _, solo, err := fast.OutputHashesMultiLiveCtx(ctx, qs[j:j+1], nil)
					if err != nil {
						t.Fatal(err)
					}
					if solo[0] != stats[j] {
						t.Fatalf("%s %q: stats %+v alone, %+v in the %d-query sweep", label, queries[j], solo[0], stats[j], k)
					}
				}
				if bstats.Static < allStatic*k {
					t.Fatalf("%s: %d static pairs, want at least %d", label, bstats.Static, allStatic*k)
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
							t.Errorf("%s %v %q: price %v, full sweep %v", label, fn, queries[j], got, want)
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
				t.Errorf("workers=%d %q: slice stats sum to %+v, unmasked %+v", workers, queries[j], sliceStats[j], allStats[j])
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
	return unmasked
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
