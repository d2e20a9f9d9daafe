package pricing

import (
	"context"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// coldSweepAllocBudget bounds the heap allocations of one cold coverage
// sweep over the twelve coldAdhocShapes at |S| = 400, Workers = 1: 7.5 %
// above the 31 133 measured once each checker was built from one join
// (contribution sets and its view from the same tuples). Before that
// the sweep made 44 775 (a separate contribution query per checker);
// before self-join checks ran as tagged expansion terms and updates of
// columns the query never reads agreed statically, 64 533; and allocating
// per tuple (before keys went into reused buffers and joined tuples,
// projected rows and tagged relations were carved from per-run slabs)
// 251 414.
const coldSweepAllocBudget = 33470

// TestColdSweepAllocs pins the cold sweep's allocation count. Each run
// compiles the shapes afresh, so every query meets empty execution caches
// and builds its checker, as a never-seen quote does.
func TestColdSweepAllocs(t *testing.T) {
	ctx := context.Background()
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	e.Opts.Workers = 1
	allocs := testing.AllocsPerRun(3, func() {
		for _, sql := range coldAdhocShapes {
			q := exec.MustCompile(sql, db.Schema)
			if _, _, err := e.DisagreementsLiveCtx(ctx, []*exec.Query{q}, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("cold sweep of %d shapes: %.0f allocations", len(coldAdhocShapes), allocs)
	if allocs > coldSweepAllocBudget {
		t.Errorf("cold sweep of %d shapes made %.0f allocations, budget %d", len(coldAdhocShapes), allocs, coldSweepAllocBudget)
	}
}
