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

// TestParallelBitIdenticalToSerial is the engine's determinism contract:
// for every pricing function, parallel pricing (fast path and naive path)
// returns bit-identical prices AND bit-identical Stats to the serial run.
// Run with -race to double as the shared-read correctness test for the
// whole engine (world + SSB at CI scale factors).
func TestParallelBitIdenticalToSerial(t *testing.T) {
	forceParallel(t)
	type mode struct {
		name string
		opts Options
	}
	allModes := []mode{
		{"fast+batching", DefaultOptions()},
		{"no-batching", Options{FastPath: true}},
		{"naive+reduction", Options{InstanceReduction: true}},
		{"plain-naive", Options{}},
	}
	cases := []struct {
		name    string
		db      *storage.Database
		size    int
		queries []string
		modes   []mode
	}{
		// World is cheap: the full mode matrix, including a subquery that
		// forces the naive path even with the fast path enabled.
		{"world", datagen.World(1), 250, []string{
			workload.SigmaU(80).SQL,
			workload.PiU(4).SQL,
			workload.JoinU(80).SQL,
			workload.GammaU(20).SQL,
			"SELECT Name FROM Country WHERE Population > (SELECT avg(Population) FROM Country)",
		}, allModes},
		// SSB exercises the headline parallel CheckBatch path over the
		// star-schema flights (Fig. 5a's regime) at CI scale.
		{"ssb", datagen.SSB(1, 0.002), 250, []string{
			workload.SSB()[0].SQL,
			workload.SSB()[3].SQL,
			workload.SSB()[6].SQL,
			workload.SSB()[10].SQL,
		}, allModes[:1]},
		// One SSB flight through the (expensive) naive machinery keeps the
		// overlay path honest on a multi-relation star join.
		{"ssb-naive", datagen.SSB(1, 0.002), 60, []string{
			workload.SSB()[0].SQL,
		}, []mode{{"naive+reduction", Options{InstanceReduction: true}}}},
	}
	for _, tc := range cases {
		set, err := support.GenerateNeighborhood(tc.db, support.DefaultConfig(tc.size, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range tc.modes {
			serial := NewEngine(tc.db, set, 100)
			serial.Opts = mode.opts
			par := NewEngine(tc.db, set, 100)
			par.Opts = mode.opts
			par.Opts.Workers = 4
			for _, sql := range tc.queries {
				q := exec.MustCompile(sql, tc.db.Schema)
				for _, fn := range AllFuncs {
					want, err := serial.PriceCtx(context.Background(), fn, q)
					if err != nil {
						t.Fatal(err)
					}
					wantStats := serial.LastStats
					got, err := par.PriceCtx(context.Background(), fn, q)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s/%s %v %q: parallel price %v != serial %v",
							tc.name, mode.name, fn, sql, got, want)
					}
					if par.LastStats != wantStats {
						t.Errorf("%s/%s %v %q: parallel stats %+v != serial %+v",
							tc.name, mode.name, fn, sql, par.LastStats, wantStats)
					}
				}
			}
		}
	}
}

// TestParallelBundleBitIdentical covers the bundle path (per-query masks
// feed forward) under parallel execution.
func TestParallelBundleBitIdentical(t *testing.T) {
	forceParallel(t)
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	q1 := exec.MustCompile(workload.SigmaU(80).SQL, db.Schema)
	q2 := exec.MustCompile(workload.GammaU(20).SQL, db.Schema)
	serial := NewEngine(db, set, 100)
	par := NewEngine(db, set, 100)
	par.Opts.Workers = 4
	for _, fn := range AllFuncs {
		want, err := serial.PriceCtx(context.Background(), fn, q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := serial.LastStats
		got, err := par.PriceCtx(context.Background(), fn, q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || par.LastStats != wantStats {
			t.Errorf("%v bundle: parallel (%v, %+v) != serial (%v, %+v)",
				fn, got, par.LastStats, want, wantStats)
		}
	}
}
