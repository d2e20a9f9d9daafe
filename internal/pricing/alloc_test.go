package pricing

import (
	"context"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// coldSweepAllocBudget bounds the heap allocations of one cold coverage
// sweep over the twelve coldAdhocShapes at |S| = 400, Workers = 1: 8 %
// above the 64 533 measured once the sweep's hot loops stopped allocating
// per tuple (keys in reused buffers; joined tuples, projected rows and
// tagged relations carved from per-run slabs). Allocating per tuple, the
// same sweep made 251 414.
const coldSweepAllocBudget = 69500

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
