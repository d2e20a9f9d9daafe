package pricing

import (
	"context"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/workload"
)

// TestPriceEveryWorkloadQuery pushes every query of every evaluation
// workload through the complete pricing stack (fast path where eligible,
// naive otherwise) and asserts the universal invariants: prices are
// finite, non-negative and never exceed the dataset price, and repeated
// pricing is deterministic.
func TestPriceEveryWorkloadQuery(t *testing.T) {
	type ds struct {
		name string
		db   *storage.Database
		qs   []workload.Query
	}
	world := datagen.World(1)
	dblp := datagen.DBLP(1, 0.002)
	datasets := []ds{
		{"world", world, workload.World()},
		{"carcrash", datagen.CarCrash(1, 2000), workload.CarCrash()},
		{"dblp", dblp, workload.DBLP(dblp)},
		{"ssb", datagen.SSB(1, 0.001), workload.SSB()},
		{"tpch", datagen.TPCH(1, 0.001), workload.TPCH()},
	}
	for _, d := range datasets {
		d := d
		t.Run(d.name, func(t *testing.T) {
			set, err := support.GenerateNeighborhood(d.db, support.DefaultConfig(150, 5))
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(d.db, set, 100)
			for _, wq := range d.qs {
				q, err := exec.Compile(wq.SQL, d.db.Schema)
				if err != nil {
					t.Fatalf("%s: compile: %v", wq.Name, err)
				}
				p, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
				if err != nil {
					t.Fatalf("%s: price: %v", wq.Name, err)
				}
				if p < 0 || p > 100+1e-9 || p != p {
					t.Fatalf("%s: price %g out of bounds", wq.Name, p)
				}
				p2, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
				if err != nil {
					t.Fatal(err)
				}
				if p2 != p {
					t.Fatalf("%s: non-deterministic price %g vs %g", wq.Name, p, p2)
				}
			}
		})
	}
}

// TestEntropyBoundsOnWorkload spot-checks the entropy functions' bounds on
// a subset (they always take the naive path, so the full sweep would be
// slow).
func TestEntropyBoundsOnWorkload(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(120, 9))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	for _, wq := range workload.World()[:12] {
		q := exec.MustCompile(wq.SQL, db.Schema)
		for _, fn := range []Func{ShannonEntropy, QEntropy, UniformEntropyGain} {
			p, err := e.PriceCtx(context.Background(), fn, q)
			if err != nil {
				t.Fatalf("%s/%v: %v", wq.Name, fn, err)
			}
			if p < 0 || p > 100+1e-9 {
				t.Fatalf("%s/%v: price %g out of bounds", wq.Name, fn, p)
			}
		}
	}
}
