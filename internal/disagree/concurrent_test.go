package disagree

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// TestSharedCheckerConcurrentBatches pins the "read-only after New"
// contract: one set of checkers is shared by four concurrent CheckBatch
// calls under four different masks, each fanning out over two workers,
// and every call's bitmaps and returned CheckStats must equal those of a
// serial call on freshly built checkers. The untiered MIN checker sends
// extremum removals to the residual stage, so the concurrent calls also
// race to fill the shared base hash. Run under -race.
func TestSharedCheckerConcurrentBatches(t *testing.T) {
	db := testDB(31, 30, 90)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(240, 7))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		sql      string
		untiered bool
	}
	specs := []spec{
		{sql: "SELECT city, tier FROM Cust WHERE score > 25"},
		{sql: "SELECT C.city, sum(O.amount) FROM Cust C, Ord O WHERE C.cid = O.cid GROUP BY C.city"},
		{sql: "SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city"},
		{sql: "SELECT city, min(score) FROM Cust GROUP BY city", untiered: true},
	}
	build := func() []*Checker {
		cs := make([]*Checker, len(specs))
		for k, s := range specs {
			q := exec.MustCompile(s.sql, db.Schema)
			newC := New
			if s.untiered {
				newC = NewUntiered
			}
			c, err := newC(q, db)
			if err != nil {
				t.Fatalf("%q: %v", s.sql, err)
			}
			cs[k] = c
		}
		return cs
	}
	n := len(set.Updates)
	masks := make([][]bool, 4) // masks[0] = nil: every element live
	for m := 1; m < len(masks); m++ {
		masks[m] = make([]bool, n)
		for i := range masks[m] {
			masks[m][i] = i%(m+1) == 0
		}
	}

	type result struct {
		bits  [][]bool
		stats []CheckStats
	}
	want := make([]result, len(masks))
	fullRuns := 0
	for m, live := range masks {
		bits, stats, err := CheckBatch(context.Background(), build(), set.Updates, live, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = result{bits, stats}
		fullRuns += stats[len(specs)-1].FullRuns
	}
	if fullRuns == 0 {
		t.Fatal("the untiered MIN checker never reached the residual stage; the shared base hash is not exercised")
	}

	shared := build()
	got := make([]result, len(masks))
	errs := make([]error, len(masks))
	var wg sync.WaitGroup
	for m, live := range masks {
		wg.Add(1)
		go func(m int, live []bool) {
			defer wg.Done()
			bits, stats, err := CheckBatch(context.Background(), shared, set.Updates, live, 2)
			got[m], errs[m] = result{bits, stats}, err
		}(m, live)
	}
	wg.Wait()
	for m := range masks {
		if errs[m] != nil {
			t.Fatalf("mask %d: %v", m, errs[m])
		}
		if !reflect.DeepEqual(got[m].stats, want[m].stats) {
			t.Fatalf("mask %d: concurrent stats %+v, serial %+v", m, got[m].stats, want[m].stats)
		}
		for k := range specs {
			if !reflect.DeepEqual(got[m].bits[k], want[m].bits[k]) {
				t.Fatalf("mask %d %q: concurrent bitmap differs from the serial call's", m, specs[k].sql)
			}
		}
	}
}
