package disagree

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qirana/internal/result"
	"qirana/internal/schema"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// testDB builds a small random two-relation database (orders referencing
// customers) for differential testing.
func testDB(seed int64, nCust, nOrd int) *storage.Database {
	return custOrdDB(seed, nCust, nOrd, nil)
}

// custOrdDB is testDB, optionally with a trailing float column Cust.bal
// whose values are drawn from bals by a second generator, so the other
// columns are the same with or without it.
func custOrdDB(seed int64, nCust, nOrd int, bals []float64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	balRng := rand.New(rand.NewSource(seed + 1))
	custAttrs := []schema.Attribute{
		{Name: "cid", Type: value.KindInt},
		{Name: "city", Type: value.KindString},
		{Name: "tier", Type: value.KindInt},
		{Name: "score", Type: value.KindInt},
	}
	if bals != nil {
		custAttrs = append(custAttrs, schema.Attribute{Name: "bal", Type: value.KindFloat})
	}
	cust := schema.MustRelation("Cust", custAttrs, []int{0})
	ord := schema.MustRelation("Ord", []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "cid", Type: value.KindInt},
		{Name: "amount", Type: value.KindInt},
		{Name: "status", Type: value.KindString},
	}, []int{0})
	db := storage.NewDatabase(schema.MustSchema(cust, ord))
	cities := []string{"ny", "sf", "la", "chi"}
	statuses := []string{"open", "shipped", "lost"}
	for i := 0; i < nCust; i++ {
		row := []value.Value{
			value.NewInt(int64(i)),
			value.NewString(cities[rng.Intn(len(cities))]),
			value.NewInt(int64(rng.Intn(3))),
			value.NewInt(int64(rng.Intn(50))),
		}
		if bals != nil {
			row = append(row, value.NewFloat(bals[balRng.Intn(len(bals))]))
		}
		db.Table("Cust").MustAppend(row)
	}
	for i := 0; i < nOrd; i++ {
		db.Table("Ord").MustAppend([]value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(rng.Intn(nCust))),
			value.NewInt(int64(rng.Intn(100))),
			value.NewString(statuses[rng.Intn(len(statuses))]),
		})
	}
	return db
}

// fastPathQueries is a catalog spanning the checker's cases: plain SPJ,
// joins, selective filters, projections, every aggregate kind with and
// without grouping, DISTINCT, and self-joins (the latter two route through
// the partial delta tier).
var fastPathQueries = []string{
	"SELECT * FROM Cust",
	"SELECT city FROM Cust",
	"SELECT city, tier FROM Cust WHERE score > 25",
	"SELECT * FROM Cust WHERE city = 'ny' AND tier = 1",
	"SELECT score FROM Cust WHERE tier = 2",
	"SELECT C.city, O.amount FROM Cust C, Ord O WHERE C.cid = O.cid",
	"SELECT O.status FROM Cust C, Ord O WHERE C.cid = O.cid AND C.city = 'sf'",
	"SELECT C.cid FROM Cust C, Ord O WHERE C.cid = O.cid AND O.amount > 80",
	"SELECT count(*) FROM Cust",
	"SELECT count(*) FROM Cust WHERE city = 'la'",
	"SELECT sum(score) FROM Cust",
	"SELECT avg(score) FROM Cust WHERE tier = 0",
	"SELECT min(score), max(score) FROM Cust",
	"SELECT city, count(*) FROM Cust GROUP BY city",
	"SELECT city, sum(score) FROM Cust GROUP BY city",
	"SELECT city, avg(score) FROM Cust GROUP BY city",
	"SELECT city, min(score) FROM Cust GROUP BY city",
	"SELECT city, max(score), count(*) FROM Cust GROUP BY city",
	"SELECT tier, count(*) FROM Cust WHERE score > 10 GROUP BY tier",
	"SELECT C.city, sum(O.amount) FROM Cust C, Ord O WHERE C.cid = O.cid GROUP BY C.city",
	"SELECT C.city, count(*) FROM Cust C, Ord O WHERE C.cid = O.cid AND O.status = 'open' GROUP BY C.city",
	"SELECT status, avg(amount), min(amount) FROM Ord GROUP BY status",
	"SELECT sum(amount + tier) FROM Cust C, Ord O WHERE C.cid = O.cid",
	"SELECT DISTINCT city FROM Cust",
	"SELECT DISTINCT city, tier FROM Cust WHERE score > 20",
	"SELECT DISTINCT O.status FROM Cust C, Ord O WHERE C.cid = O.cid",
	"SELECT a.cid FROM Cust a, Cust b WHERE a.score = b.score",
	"SELECT DISTINCT a.city FROM Cust a, Cust b WHERE a.tier = b.tier AND b.score > 40",
	"SELECT a.city, count(*) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
	"SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
	"SELECT min(a.score) FROM Cust a, Cust b WHERE a.city = b.city AND b.tier = 1",
}

// naiveDisagree is the ground truth: apply the update, re-run, compare.
func naiveDisagree(t *testing.T, q *exec.Query, db *storage.Database, u *support.Update) bool {
	t.Helper()
	base, after := rerun(t, q, db, u)
	return !base.Equal(after)
}

// rerun returns q's output on db and on db with u applied in place.
func rerun(t *testing.T, q *exec.Query, db *storage.Database, u *support.Update) (base, after *result.Result) {
	t.Helper()
	base, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	u.Apply(db)
	after, err = q.Run(db)
	u.Undo(db)
	if err != nil {
		t.Fatal(err)
	}
	return base, after
}

func TestDifferentialFastPath(t *testing.T) {
	db := testDB(7, 40, 120)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(400, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range fastPathQueries {
		sql := sql
		t.Run(sql, func(t *testing.T) {
			q := exec.MustCompile(sql, db.Schema)
			c, err := New(q, db)
			if err != nil {
				t.Fatalf("checker ineligible: %v", err)
			}
			got, _, err := each(c, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range set.Updates {
				if want := naiveDisagree(t, q, db, u); got[i] != want {
					t.Fatalf("update %d (%+v): fast path says %v, naive says %v", u.ID, u, got[i], want)
				}
			}
		})
	}
}

// batch1 runs the shared sweep for a single checker (k = 1).
func batch1(c *Checker, us []*support.Update, live []bool) ([]bool, CheckStats, error) {
	return sweep1(c, us, live, MaxJobElems)
}

// each is batch1 at a job cap of 1, Figure 5's "no batching" mode: every
// residual check runs as its own one-update tagged job, so it is the
// per-element reference the batched sweep is held to.
func each(c *Checker, us []*support.Update, live []bool) ([]bool, CheckStats, error) {
	return sweep1(c, us, live, 1)
}

// check1 decides one update on its own.
func check1(c *Checker, u *support.Update) (bool, CheckStats, error) {
	res, s, err := each(c, []*support.Update{u}, nil)
	if err != nil {
		return false, s, err
	}
	return res[0], s, nil
}

func sweep1(c *Checker, us []*support.Update, live []bool, jobCap int) ([]bool, CheckStats, error) {
	res, _, stats, err := CheckBatch(context.Background(), []*Checker{c}, us, live, 1, jobCap, nil)
	if err != nil {
		return nil, CheckStats{}, err
	}
	return res[0], stats[0], nil
}

// residual sums the three tiers that partition the database checks.
func residual(s CheckStats) int { return s.DeltaFullRuns + s.DeltaPartialRuns + s.FullRuns }

// TestDifferentialBatch anchors the sweep on the two per-element ground
// truths: brute-force re-execution of the updated instance, and a fresh
// checker's sweep at a job cap of 1 — whose static and per-tier decision
// counts the batch must reproduce, with nothing counted as Batched.
func TestDifferentialBatch(t *testing.T) {
	db := testDB(23, 35, 100)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(300, 29))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range fastPathQueries {
		sql := sql
		t.Run(sql, func(t *testing.T) {
			q := exec.MustCompile(sql, db.Schema)
			c, err := New(q, db)
			if err != nil {
				t.Fatalf("checker ineligible: %v", err)
			}
			got, stats, err := batch1(c, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(q, db)
			if err != nil {
				t.Fatal(err)
			}
			one, refStats, err := each(ref, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range set.Updates {
				want := naiveDisagree(t, q, db, u)
				if got[i] != want {
					t.Fatalf("update %d (%+v): batch says %v, naive says %v", u.ID, u, got[i], want)
				}
				if one[i] != want {
					t.Fatalf("update %d (%+v): cap-1 sweep says %v, naive says %v", u.ID, u, one[i], want)
				}
			}
			if refStats.Batched != 0 {
				t.Fatalf("cap-1 sweep counted shared jobs: %+v", refStats)
			}
			refStats.Batched = stats.Batched
			if stats != refStats {
				t.Fatalf("batch stats %+v do not partition like the cap-1 sweep's %+v", stats, refStats)
			}
		})
	}
}

func TestBatchRespectsLiveMask(t *testing.T) {
	db := testDB(5, 20, 50)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := exec.MustCompile("SELECT city, count(*) FROM Cust GROUP BY city", db.Schema)
	c, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]bool, len(set.Updates))
	nLive := 0
	for i := range live {
		if live[i] = i%2 == 0; live[i] {
			nLive++
		}
	}
	got, stats, err := batch1(c, set.Updates, live)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := each(ref, set.Updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range set.Updates {
		if !live[i] {
			if got[i] {
				t.Fatalf("dead element %d was checked", i)
			}
			continue
		}
		if want := one[i]; got[i] != want || want != naiveDisagree(t, q, db, u) {
			t.Fatalf("live element %d: batch %v, cap-1 sweep %v", i, got[i], want)
		}
	}
	if n := stats.Static + residual(stats); n != nLive {
		t.Fatalf("stats account for %d decisions, want the %d live elements: %+v", n, nLive, stats)
	}
}

// TestBatchSharedSweepMasks runs k = 4 checkers (plain SPJ, join
// aggregate, DISTINCT, self-join) through one shared sweep, unmasked and
// under two disjoint covering masks, serial and with Workers = 4: every
// checker's bitmap must equal its own cap-1 sweep, and the masked
// bitmaps and Stats must OR / add exactly to the unmasked sweep's.
func TestBatchSharedSweepMasks(t *testing.T) {
	db := testDB(77, 30, 90)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(260, 13))
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		"SELECT city, tier FROM Cust WHERE score > 25",
		"SELECT C.city, sum(O.amount) FROM Cust C, Ord O WHERE C.cid = O.cid GROUP BY C.city",
		"SELECT DISTINCT O.status FROM Cust C, Ord O WHERE C.cid = O.cid",
		"SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
	}
	lo, hi := make([]bool, len(set.Updates)), make([]bool, len(set.Updates))
	for i := range lo {
		lo[i] = i%3 == 0
		hi[i] = !lo[i]
	}
	for _, workers := range []int{1, 4} {
		sweep := func(live []bool) ([][]bool, []CheckStats) {
			cs := make([]*Checker, len(sqls))
			for k, sql := range sqls {
				c, err := New(exec.MustCompile(sql, db.Schema), db)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				cs[k] = c
			}
			res, _, stats, err := CheckBatch(context.Background(), cs, set.Updates, live, workers, MaxJobElems, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res, stats
		}
		full, fullStats := sweep(nil)
		resLo, statsLo := sweep(lo)
		resHi, statsHi := sweep(hi)
		for k, sql := range sqls {
			ref, err := New(exec.MustCompile(sql, db.Schema), db)
			if err != nil {
				t.Fatal(err)
			}
			one, _, err := each(ref, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range one {
				if full[k][i] != want {
					t.Fatalf("workers=%d %q update %d: sweep %v, cap-1 sweep %v", workers, sql, i, full[k][i], want)
				}
				if (resLo[k][i] || resHi[k][i]) != want || (resLo[k][i] && !lo[i]) || (resHi[k][i] && !hi[i]) {
					t.Fatalf("workers=%d %q update %d: masked bits %v|%v do not OR to %v", workers, sql, i, resLo[k][i], resHi[k][i], want)
				}
			}
			sum := statsLo[k]
			sum.Add(statsHi[k])
			if sum != fullStats[k] {
				t.Fatalf("workers=%d %q: masked stats %+v + %+v != unmasked %+v", workers, sql, statsLo[k], statsHi[k], fullStats[k])
			}
		}
	}
}

func TestIneligibleQueries(t *testing.T) {
	db := testDB(1, 10, 20)
	for _, sql := range []string{
		"SELECT city FROM Cust ORDER BY city",
		"SELECT city FROM Cust LIMIT 3",
		"SELECT city, count(*) FROM Cust GROUP BY city HAVING count(*) > 2",
		"SELECT count(DISTINCT city) FROM Cust",
		"SELECT cid FROM Cust WHERE score > (SELECT avg(score) FROM Cust)",
		"SELECT avg(x) FROM (SELECT score AS x FROM Cust) AS t",
	} {
		q := exec.MustCompile(sql, db.Schema)
		if _, err := New(q, db); err == nil {
			t.Errorf("query %q should be outside the fast path", sql)
		}
	}
}

// TestDifferentialUntiered covers the catalog subset that needs no
// DISTINCT or self-join machinery — the queries the former untiered
// checker accepted — on its own database and neighborhood, against naive
// re-execution. It pins that such queries consult the partial tier only
// to resolve MIN/MAX removals against candidate multisets.
func TestDifferentialUntiered(t *testing.T) {
	db := testDB(61, 30, 90)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(250, 43))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range fastPathQueries {
		sql := sql
		q := exec.MustCompile(sql, db.Schema)
		c, err := New(q, db)
		if err != nil {
			t.Fatalf("%q: checker ineligible: %v", sql, err)
		}
		if c.SPJ.Distinct || len(c.multi) > 0 {
			continue // DISTINCT / self-join: covered by TestDifferentialBatch
		}
		extremum := false
		for _, ag := range c.SPJ.Aggs {
			extremum = extremum || ag.Fn.Name == "MIN" || ag.Fn.Name == "MAX"
		}
		t.Run(sql, func(t *testing.T) {
			got, stats, err := batch1(c, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range set.Updates {
				want := naiveDisagree(t, q, db, u)
				if got[i] != want {
					t.Fatalf("update %d (%+v): checker says %v, naive says %v", u.ID, u, got[i], want)
				}
			}
			if !extremum && stats.DeltaPartialRuns != 0 {
				t.Fatalf("query without DISTINCT, self-join or MIN/MAX used the partial tier: %+v", stats)
			}
		})
	}
}

func TestCheckerStats(t *testing.T) {
	db := testDB(9, 30, 90)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(200, 17))
	if err != nil {
		t.Fatal(err)
	}
	q := exec.MustCompile("SELECT * FROM Cust WHERE city = 'ny'", db.Schema)
	c, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := batch1(c, set.Updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A selective single-table query should resolve many updates statically
	// (Ord updates are irrelevant; non-contributing unsatisfiable ones too).
	if stats.Static == 0 {
		t.Error("expected some statically decided updates")
	}
	total := stats.Static + stats.Batched + stats.FullRuns
	if total < len(set.Updates)/2 {
		t.Errorf("stats account for %d of %d updates", total, len(set.Updates))
	}
}

func ExampleChecker() {
	db := testDB(2, 10, 20)
	q := exec.MustCompile("SELECT city, count(*) FROM Cust GROUP BY city", db.Schema)
	c, _ := New(q, db)
	set, _ := support.GenerateNeighborhood(db, support.DefaultConfig(4, 1))
	res, _, _ := batch1(c, set.Updates, nil)
	fmt.Println(len(res) == 4)
	// Output: true
}
