package pricing

import (
	"context"
	"math"
	"runtime"
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// forceParallel raises GOMAXPROCS so the worker pool actually fans out
// even on single-core CI hosts (GOMAXPROCS may exceed the physical count;
// goroutines then interleave, which is what the race detector needs).
func forceParallel(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestParallelMatchesSerial: the parallel naive path produces identical
// prices to the serial one, for both the disagreement-based and the
// partition-entropy pricing functions.
func TestParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	db := benchDB(33, 150)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(300, 8))
	if err != nil {
		t.Fatal(err)
	}
	serial := NewEngine(db, set, 100)
	serial.Opts = Options{} // pure naive
	par := NewEngine(db, set, 100)
	par.Opts = Options{Workers: 4}

	queries := []string{
		"SELECT a, b FROM R WHERE id < 80",
		"SELECT c, count(*) FROM R GROUP BY c",
		"SELECT avg(b) FROM R WHERE a > 5",
	}
	for _, sql := range queries {
		q := exec.MustCompile(sql, db.Schema)
		for _, fn := range AllFuncs {
			want, err := serial.PriceCtx(context.Background(), fn, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.PriceCtx(context.Background(), fn, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%v %q: parallel %g, serial %g", fn, sql, got, want)
			}
		}
	}
}

// TestParallelLeavesDatabaseIntact: worker overlays must never leak into the
// primary instance.
func TestParallelLeavesDatabaseIntact(t *testing.T) {
	forceParallel(t)
	db := benchDB(7, 80)
	before := make([]string, 0, 80)
	for _, r := range db.Table("R").Rows {
		before = append(before, r[1].String()+r[2].String()+r[3].String())
	}
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	e.Opts = Options{Workers: 8}
	if _, err := e.PriceCtx(context.Background(), ShannonEntropy, exec.MustCompile("SELECT a FROM R", db.Schema)); err != nil {
		t.Fatal(err)
	}
	for i, r := range db.Table("R").Rows {
		if got := r[1].String() + r[2].String() + r[3].String(); got != before[i] {
			t.Fatalf("row %d mutated by parallel pricing", i)
		}
	}
}

func TestParallelWorkersClamped(t *testing.T) {
	forceParallel(t)
	db := benchDB(7, 20)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	e.Opts.Workers = 10000
	if w := e.parallelWorkers(); w < 1 {
		t.Fatalf("workers: %d", w)
	}
	// Must still price correctly with more workers than elements.
	p, err := e.PriceCtx(context.Background(), QEntropy, exec.MustCompile("SELECT * FROM R", db.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-100) > 1e-6 {
		t.Fatalf("Q_all: %g", p)
	}
}
