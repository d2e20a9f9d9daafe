package exec

import (
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/value"
)

// TestCacheHitMissInvalidate pins the cache lifecycle: the first run builds
// (misses), repeated runs serve from the cache (hits), a table mutation
// moves the version and forces a rebuild, and results are identical
// throughout.
func TestCacheHitMissInvalidate(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT name FROM User u, Tweet t WHERE u.uid = t.uid AND t.location = 'CA'", db.Schema)

	first, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	s1 := q.CacheStats()
	if s1.Misses == 0 {
		t.Fatalf("first run built nothing: %+v", s1)
	}

	second, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	s2 := q.CacheStats()
	if s2.Hits <= s1.Hits {
		t.Fatalf("second run did not hit the cache: %+v -> %+v", s1, s2)
	}
	if s2.Misses != s1.Misses {
		t.Fatalf("second run rebuilt entries: %+v -> %+v", s1, s2)
	}
	if !first.Equal(second) {
		t.Fatalf("cached run differs: %v vs %v", first.Rows, second.Rows)
	}

	// Mutate Tweet: its version moves, so its entries rebuild and the new
	// result reflects the change.
	tw := db.Table("Tweet")
	tw.Set(2, 3, value.NewString("CA")) // tweet 3 (uid 1, John) moves OR -> CA
	third, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	s3 := q.CacheStats()
	if s3.Misses <= s2.Misses {
		t.Fatalf("mutation did not invalidate: %+v -> %+v", s2, s3)
	}
	if len(third.Rows) != len(first.Rows)+1 {
		t.Fatalf("stale result after mutation: %v", third.Rows)
	}
}

// TestCacheOverrideBypass checks that a run overriding one relation still
// serves the untouched relation from the cache and never pollutes the cache
// with override data.
func TestCacheOverrideBypass(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT name FROM User u, Tweet t WHERE u.uid = t.uid AND t.location = 'CA'", db.Schema)
	if _, err := q.Run(db); err != nil {
		t.Fatal(err)
	}
	warm := q.CacheStats()

	// Override Tweet with a single row referencing Alice (uid 2).
	ov := Overrides{"tweet": [][]value.Value{
		{value.NewInt(99), value.NewInt(2), value.NewString("01:00"), value.NewString("CA")},
	}}
	res, err := q.RunOverride(db, ov)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Alice" {
		t.Fatalf("override run wrong: %v", res.Rows)
	}
	s := q.CacheStats()
	if s.Hits <= warm.Hits {
		t.Fatalf("override run did not reuse the User cache: %+v -> %+v", warm, s)
	}

	// The base result must be unaffected by the preceding override run.
	base, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 2 {
		t.Fatalf("cache polluted by override: %v", base.Rows)
	}
}

// TestCacheDatabaseSwitch runs one query against two databases; the cache
// must re-target without serving rows from the previous database.
func TestCacheDatabaseSwitch(t *testing.T) {
	db1 := twitterDB(t)
	db2 := twitterDB(t)
	db2.Table("Tweet").Set(0, 3, value.NewString("NV")) // tweet 1 leaves CA
	q := MustCompile("SELECT count(*) FROM Tweet WHERE location = 'CA'", db1.Schema)

	r1, err := q.Run(db1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Run(db2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].AsInt() != 2 || r2.Rows[0][0].AsInt() != 1 {
		t.Fatalf("cross-database pollution: %v vs %v", r1.Rows, r2.Rows)
	}
}

// TestDeltaTier pins the tier matrix of the delta path.
func TestDeltaTier(t *testing.T) {
	db := twitterDB(t)
	cases := []struct {
		sql  string
		rel  string
		want analyze.DeltaTier
	}{
		{"SELECT name FROM User u, Tweet t WHERE u.uid = t.uid", "Tweet", analyze.DeltaFull},
		{"SELECT name FROM User u, Tweet t WHERE u.uid = t.uid", "User", analyze.DeltaFull},
		{"SELECT count(*) FROM Tweet", "Tweet", analyze.DeltaNone},                                                       // aggregate
		{"SELECT DISTINCT location FROM Tweet", "Tweet", analyze.DeltaPartial},                                           // DISTINCT
		{"SELECT name FROM User ORDER BY name", "User", analyze.DeltaNone},                                               // ORDER BY
		{"SELECT name FROM User LIMIT 2", "User", analyze.DeltaNone},                                                     // LIMIT
		{"SELECT a.name FROM User a, User b WHERE a.uid = b.uid", "User", analyze.DeltaPartial},                          // self-join
		{"SELECT a.name FROM User a, User b, Tweet t WHERE a.uid = b.uid AND a.uid = t.uid", "Tweet", analyze.DeltaFull}, // other rel of a self-join query
		{"SELECT name FROM User u, Tweet t WHERE u.uid = t.uid", "Nope", analyze.DeltaNone},                              // absent
		{"SELECT name FROM User WHERE uid IN (SELECT uid FROM Tweet)", "User", analyze.DeltaNone},                        // subquery
		{"SELECT name FROM User WHERE uid IN (SELECT uid FROM Tweet)", "Tweet", analyze.DeltaNone},                       // rel inside subquery
	}
	for _, c := range cases {
		q := MustCompile(c.sql, db.Schema)
		if got := q.DeltaTier(c.rel); got != c.want {
			t.Errorf("DeltaTier(%q, %s) = %v, want %v", c.sql, c.rel, got, c.want)
		}
	}
}

// TestRunDeltaBasic checks the delta identity on the running example.
func TestRunDeltaBasic(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT name, location FROM User u, Tweet t WHERE u.uid = t.uid AND t.location = 'CA'", db.Schema)

	// Replace tweet 4 (Alice, CA) by a WA tweet: output loses Alice.
	minus := [][]value.Value{{value.NewInt(4), value.NewInt(2), value.NewString("23:31"), value.NewString("CA")}}
	plus := [][]value.Value{{value.NewInt(4), value.NewInt(2), value.NewString("23:31"), value.NewString("WA")}}
	outMinus, outPlus, err := q.RunDelta(db, "Tweet", minus, plus)
	if err != nil {
		t.Fatal(err)
	}
	if len(outMinus) != 1 || outMinus[0][0].S != "Alice" {
		t.Fatalf("outMinus = %v", outMinus)
	}
	if len(outPlus) != 0 {
		t.Fatalf("outPlus = %v", outPlus)
	}

	// Nil sides short-circuit.
	om, op, err := q.RunDelta(db, "Tweet", nil, nil)
	if err != nil || om != nil || op != nil {
		t.Fatalf("nil delta: %v %v %v", om, op, err)
	}

	// Incapable queries refuse.
	agg := MustCompile("SELECT count(*) FROM Tweet", db.Schema)
	if _, _, err := agg.RunDelta(db, "Tweet", minus, plus); err == nil {
		t.Fatal("aggregate RunDelta should fail")
	}
}

// TestCachedSourceExactLength pins that a filtered source is cached at
// exact length: the entry lives as long as its query, so the spare
// capacity filterSource's appends leave would stay allocated with it.
func TestCachedSourceExactLength(t *testing.T) {
	db := datagen.World(1)
	q := MustCompile("SELECT C.Name, T.Name FROM Country C, City T WHERE C.Code = T.CountryCode AND T.Population > 200000", db.Schema)
	if _, err := q.Run(db); err != nil {
		t.Fatal(err)
	}
	filtered := 0
	for si, cs := range q.cache.sources {
		if len(cs.rows) == db.Table(q.A.Sources[si].Rel.Name).Len() {
			continue // unfiltered: the table's own rows
		}
		filtered++
		if cap(cs.rows) != len(cs.rows) {
			t.Errorf("source %d cached with cap %d for %d rows", si, cap(cs.rows), len(cs.rows))
		}
	}
	if filtered == 0 {
		t.Fatal("no filtered source was cached")
	}
}
