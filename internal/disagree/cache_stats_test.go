package disagree

import (
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// TestCacheAndDeltaStats pins the integration contract of the execution
// index cache and the delta path: checking a support set one update at a
// time (a job cap of 1) must answer its residual database checks through
// one-update tagged runs, build the cached sources once, and serve every
// later check from the cache. The
// cache counters are read from the checker's compiled queries around each
// region (nothing else runs on them here, so the deltas are exact).
func TestCacheAndDeltaStats(t *testing.T) {
	db := testDB(13, 40, 120)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	q := exec.MustCompile(
		"SELECT c.city, o.amount FROM Cust c, Ord o WHERE c.cid = o.cid AND o.status = 'open'",
		db.Schema)
	c, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	checks := len(set.Updates)
	before := c.cacheSnapshot()
	_, s, err := each(c, set.Updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := delta(before, c.cacheSnapshot())
	if checks == 0 {
		t.Fatal("empty support set")
	}
	if s.DeltaFullRuns == 0 {
		t.Fatalf("no checks went through the delta path: %+v", s)
	}
	if cache.Hits == 0 {
		t.Fatalf("no index-cache hits across %d checks: %+v", checks, cache)
	}
	if cache.Misses == 0 {
		t.Fatalf("cache reported hits without ever building: %+v", cache)
	}
	// The cache is keyed per (source, version) plus a handful of join
	// indexes and partitions; over a static database the build count must
	// stay tiny compared to the check count, or the cache isn't caching.
	if cache.Misses > 16 {
		t.Fatalf("cache thrashing: %d misses for %d checks", cache.Misses, checks)
	}

	// The batched mode over a fresh checker serves its checks from the
	// cache the same way.
	cb, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	before = cb.cacheSnapshot()
	if _, _, err := batch1(cb, set.Updates, nil); err != nil {
		t.Fatal(err)
	}
	if cache := delta(before, cb.cacheSnapshot()); cache.Hits == 0 {
		t.Fatalf("batched checking reported no cache hits: %+v", cache)
	}

	// Aggregates route their compare checks through the unrolled query's
	// delta path.
	qa := exec.MustCompile("SELECT city, sum(amount) FROM Cust c, Ord o WHERE c.cid = o.cid GROUP BY city", db.Schema)
	ca, err := New(qa, db)
	if err != nil {
		t.Fatal(err)
	}
	before = ca.cacheSnapshot()
	_, sa, err := each(ca, set.Updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.DeltaFullRuns == 0 {
		t.Fatalf("aggregate checks never used the delta path: %+v", sa)
	}
	if cache := delta(before, ca.cacheSnapshot()); cache.Hits == 0 {
		t.Fatalf("aggregate checks never hit the cache: %+v", cache)
	}
}

// delta is the cache-counter movement between two snapshots.
func delta(before, after exec.CacheStats) exec.CacheStats {
	return exec.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		SourceBuilds: after.SourceBuilds - before.SourceBuilds}
}

// cacheSnapshot sums the execution-cache counters of every compiled query
// the checker runs (the priced query and, for aggregates, its unrolled
// form; the contribution sets come from the construction join of one of
// them, so no other query holds a cache). The counters are shared by
// every call on those queries, so a before/after delta is exact only
// around a region no other call overlaps.
func (c *Checker) cacheSnapshot() exec.CacheStats {
	s := c.Q.CacheStats()
	if c.unrolledQ != nil {
		u := c.unrolledQ.CacheStats()
		s.Hits += u.Hits
		s.Misses += u.Misses
		s.SourceBuilds += u.SourceBuilds
	}
	return s
}
