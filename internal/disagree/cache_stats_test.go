package disagree

import (
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// TestCacheAndDeltaStats pins the integration contract of the execution
// index cache and the delta path: checking a support set one update at a
// time must answer its residual database checks through RunDelta, build the
// cached sources once, and serve every later check from the cache.
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
	checks := 0
	for _, u := range set.Updates {
		if _, err := c.Check(u); err != nil {
			t.Fatal(err)
		}
		checks++
	}
	if checks == 0 {
		t.Fatal("empty support set")
	}
	if c.Stats.DeltaFullRuns == 0 {
		t.Fatalf("no checks went through the delta path: %+v", c.Stats)
	}
	if c.Stats.IndexCacheHits == 0 {
		t.Fatalf("no index-cache hits across %d checks: %+v", checks, c.Stats)
	}
	if c.Stats.IndexCacheMisses == 0 {
		t.Fatalf("cache reported hits without ever building: %+v", c.Stats)
	}
	// The cache is keyed per (source, version) plus a handful of join
	// indexes and partitions; over a static database the build count must
	// stay tiny compared to the check count, or the cache isn't caching.
	if c.Stats.IndexCacheMisses > 16 {
		t.Fatalf("cache thrashing: %d misses for %d checks (%+v)", c.Stats.IndexCacheMisses, checks, c.Stats)
	}

	// The batched mode over a fresh checker must account cache movement the
	// same way (counters quiesced at CheckBatch boundaries).
	cb, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch1(cb, set.Updates, nil); err != nil {
		t.Fatal(err)
	}
	if cb.Stats.IndexCacheHits == 0 {
		t.Fatalf("batched checking reported no cache hits: %+v", cb.Stats)
	}

	// Aggregates route their compare checks through the unrolled query's
	// delta path.
	qa := exec.MustCompile("SELECT city, sum(amount) FROM Cust c, Ord o WHERE c.cid = o.cid GROUP BY city", db.Schema)
	ca, err := New(qa, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range set.Updates {
		if _, err := ca.Check(u); err != nil {
			t.Fatal(err)
		}
	}
	if ca.Stats.DeltaFullRuns == 0 {
		t.Fatalf("aggregate checks never used the delta path: %+v", ca.Stats)
	}
	if ca.Stats.IndexCacheHits == 0 {
		t.Fatalf("aggregate checks never hit the cache: %+v", ca.Stats)
	}
}
