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
// serial call on freshly built checkers. The float SUM over Cust.bal
// leaves rounding-borderline group deltas to the residual stage, so the
// concurrent calls also race to fill the shared base hash. The bag and
// DISTINCT self-joins run their tagged jobs as higher-order terms joined
// on the upid. Run under -race.
func TestSharedCheckerConcurrentBatches(t *testing.T) {
	db := custOrdDB(31, 30, 90, fuzzBals)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(240, 7))
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"SELECT city, tier FROM Cust WHERE score > 25",
		"SELECT C.city, sum(O.amount) FROM Cust C, Ord O WHERE C.cid = O.cid GROUP BY C.city",
		"SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
		"SELECT a.city, b.city FROM Cust a, Cust b WHERE a.tier = b.tier AND a.score > 30",
		"SELECT DISTINCT a.city FROM Cust a, Cust b WHERE a.score = b.score",
		"SELECT city, sum(bal) FROM Cust GROUP BY city",
	}
	build := func() []*Checker {
		cs := make([]*Checker, len(specs))
		for k, sql := range specs {
			c, err := New(exec.MustCompile(sql, db.Schema), db)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
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
		bits, _, stats, err := CheckBatch(context.Background(), build(), set.Updates, live, 1, MaxJobElems, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = result{bits, stats}
		fullRuns += stats[len(specs)-1].FullRuns
	}
	if fullRuns == 0 {
		t.Fatal("the float SUM checker never reached the residual stage; the shared base hash is not exercised")
	}
	for k := 2; k <= 4; k++ {
		if want[0].stats[k].DeltaPartialRuns == 0 {
			t.Fatalf("%q: %+v, no self-join check reached the tagged terms", specs[k], want[0].stats[k])
		}
	}

	shared := build()
	got := make([]result, len(masks))
	errs := make([]error, len(masks))
	var wg sync.WaitGroup
	for m, live := range masks {
		wg.Add(1)
		go func(m int, live []bool) {
			defer wg.Done()
			bits, _, stats, err := CheckBatch(context.Background(), shared, set.Updates, live, 2, MaxJobElems, nil)
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
				t.Fatalf("mask %d %q: concurrent bitmap differs from the serial call's", m, specs[k])
			}
		}
	}
}
