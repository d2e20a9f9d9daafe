package pricing

import (
	"context"
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
)

// multiTestQueries spans the fast path: plain SPJ, aggregates (checkable
// via unrolling) and a deliberate duplicate.
var multiTestQueries = []string{
	"SELECT id FROM R WHERE a = 3",
	"SELECT * FROM R WHERE b < 250",
	"SELECT c, count(*) FROM R GROUP BY c",
	"SELECT id FROM R WHERE a = 3 AND c = 'x'",
	"SELECT sum(b) FROM R WHERE a < 10",
	"SELECT id FROM R WHERE a = 3", // duplicate of the first on purpose
}

// mixedTestQueries adds shapes no checker accepts (ORDER BY + LIMIT,
// HAVING, a scalar subquery), so one sweep runs the batched fast path and
// the shared naive pass side by side.
var mixedTestQueries = append([]string{
	"SELECT id, b FROM R ORDER BY b, id LIMIT 7",
	"SELECT c, count(*) FROM R GROUP BY c HAVING count(*) > 20",
	"SELECT id FROM R WHERE b > (SELECT avg(b) FROM R)",
}, multiTestQueries[:5]...)

func compileAll(t *testing.T, e *Engine, sqls []string) []*exec.Query {
	t.Helper()
	qs := make([]*exec.Query, len(sqls))
	for i, s := range sqls {
		qs[i] = exec.MustCompile(s, e.DB.Schema)
	}
	return qs
}

// bruteForce is the per-element ground truth — Algorithm 1 with no
// shortcut: re-execute q over every live element's overlay and compare
// the full result with Q(D). It also returns the raw per-element output
// hashes.
func bruteForce(t *testing.T, e *Engine, q *exec.Query, live []bool) ([]bool, []uint64) {
	t.Helper()
	base, err := q.Run(e.DB)
	if err != nil {
		t.Fatal(err)
	}
	o := storage.NewOverlay(e.DB)
	dis := make([]bool, e.Set.Size())
	hashes := make([]uint64, e.Set.Size())
	for i, el := range e.Set.Elements {
		if live != nil && !live[i] {
			continue
		}
		el.ApplyOverlay(o)
		res, err := q.RunOverride(e.DB, o.Overrides())
		el.UndoOverlay(o)
		if err != nil {
			t.Fatal(err)
		}
		dis[i] = !base.Equal(res)
		hashes[i] = res.Hash()
	}
	return dis, hashes
}

// decided sums the counters that partition a sweep's decisions.
func decided(s Stats) int {
	return s.Static + s.DeltaFull + s.DeltaPartial + s.FullRuns + s.Naive
}

// TestDisagreementsMultiMatchesSolo asserts the shared sweep returns, per
// query, exactly the brute-force bitmap, and Stats that do not depend on
// k: those of a k = 1 sweep on a cold engine, which in turn count every
// tier as the no-batching sweep (Batching off: a job cap of 1) does, that
// one counting nothing as Batched — serial and parallel.
func TestDisagreementsMultiMatchesSolo(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		e := newEngine(t, benchDB(7, 120), 150, 100)
		e.Opts.Workers = workers
		qs := compileAll(t, e, multiTestQueries)
		got, stats, err := e.DisagreementsMultiLiveCtx(ctx, qs, nil)
		if err != nil {
			t.Fatal(err)
		}

		// References on fresh engines so checker/exec caches start
		// identically cold in every run.
		solo := newEngine(t, benchDB(7, 120), 150, 100)
		solo.Opts.Workers = workers
		walk := newEngine(t, benchDB(7, 120), 150, 100)
		walk.Opts.Batching = false
		for j, q := range qs {
			want, _ := bruteForce(t, e, q, nil)
			for i := range want {
				if got[j][i] != want[i] {
					t.Fatalf("workers=%d query %d element %d: sweep=%v brute force=%v", workers, j, i, got[j][i], want[i])
				}
			}
			one := exec.MustCompile(multiTestQueries[j], solo.DB.Schema)
			if _, soloStats, err := solo.DisagreementsMultiLiveCtx(ctx, []*exec.Query{one}, nil); err != nil {
				t.Fatal(err)
			} else if stats[j] != soloStats[0] {
				t.Errorf("workers=%d query %d: stats %+v at k=%d, %+v at k=1", workers, j, stats[j], len(qs), soloStats[0])
			}
			each := exec.MustCompile(multiTestQueries[j], walk.DB.Schema)
			walkBits, walkStats, err := walk.DisagreementsMultiLiveCtx(ctx, []*exec.Query{each}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ws := walkStats[0]
			if ws.Batched != 0 {
				t.Errorf("workers=%d query %d: the no-batching sweep counted shared jobs: %+v", workers, j, ws)
			}
			ws.Batched = stats[j].Batched
			if stats[j] != ws || decided(stats[j]) != e.Set.Size() {
				t.Errorf("workers=%d query %d: stats %+v do not partition like the no-batching sweep's %+v", workers, j, stats[j], walkStats[0])
			}
			for i := range walkBits[0] {
				if walkBits[0][i] != got[j][i] {
					t.Fatalf("workers=%d query %d element %d: no-batching sweep %v, sweep %v", workers, j, i, walkBits[0][i], got[j][i])
				}
			}
		}
	}
}

// TestDisagreementsMultiNaiveSharing drives the shared naive pass (fast
// path off) against brute force.
func TestDisagreementsMultiNaiveSharing(t *testing.T) {
	e := newEngine(t, benchDB(9, 80), 100, 100)
	e.Opts.FastPath = false
	e.Opts.InstanceReduction = false
	qs := compileAll(t, e, multiTestQueries[:4])

	got, stats, err := e.DisagreementsMultiLiveCtx(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, q := range qs {
		want, _ := bruteForce(t, e, q, nil)
		if stats[j] != (Stats{Naive: e.Set.Size()}) {
			t.Errorf("query %d: stats %+v, want %d naive runs", j, stats[j], e.Set.Size())
		}
		for i := range want {
			if got[j][i] != want[i] {
				t.Fatalf("query %d element %d: sweep=%v brute force=%v", j, i, got[j][i], want[i])
			}
		}
	}
}

// TestOutputHashesMultiMatchesSolo asserts the k-query pass produces, per
// query, the encoding of the brute-force output hashes that the bundle
// form produces for the single-query bundle, so entropy prices derived
// from either are bit-identical.
func TestOutputHashesMultiMatchesSolo(t *testing.T) {
	e := newEngine(t, benchDB(11, 80), 100, 100)
	qs := compileAll(t, e, multiTestQueries[:4])

	elems, bases, _, err := e.OutputHashesMultiLiveCtx(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range qs {
		_, raw := bruteForce(t, e, qs[j], nil)
		wantElems, wantBase, err := e.OutputHashesCtx(context.Background(), qs[j:j+1])
		if err != nil {
			t.Fatal(err)
		}
		if bases[j] != wantBase {
			t.Errorf("query %d: base hash %d, want %d", j, bases[j], wantBase)
		}
		for i := range wantElems {
			if elems[j][i] != wantElems[i] || elems[j][i] != combine(raw[i:i+1]) {
				t.Fatalf("query %d element %d: hash mismatch", j, i)
			}
		}
		for _, fn := range AllFuncs {
			got := e.PricesFromHashes(elems[j], bases[j])[fn]
			want := e.PricesFromHashes(wantElems, wantBase)[fn]
			if got != want {
				t.Errorf("query %d %v: price %g, want %g", j, fn, got, want)
			}
		}
	}
}

// TestMultiMixedUnderDisjointMasks is the invariant Broker.SweepSlice
// relies on: a k-query sweep mixing batched fast-path and naive queries,
// run under two disjoint covering live masks, yields bitmaps that OR and
// Stats that add exactly to the unmasked sweep's (itself equal to brute
// force), and output hashes that agree on every live element — serial
// and with Workers = 4, and for every dispatch branch (batched checkers,
// the per-element Check walk, the Appendix A reduction).
func TestMultiMixedUnderDisjointMasks(t *testing.T) {
	forceParallel(t)
	ctx := context.Background()
	modes := map[string]func(*Options){
		"batched":   func(*Options) {},
		"unbatched": func(o *Options) { o.Batching = false },
		"reduced":   func(o *Options) { o.FastPath = false },
	}
	for name, mode := range modes {
		for _, workers := range []int{1, 4} {
			// Each sweep gets a cold engine: Stats never depend on cache
			// state, but this keeps the three runs symmetric.
			sweep := func(live []bool) (*Engine, [][]bool, []Stats, [][]uint64, Stats) {
				e := newEngine(t, benchDB(21, 110), 140, 100)
				e.Opts.Workers = workers
				mode(&e.Opts)
				qs := compileAll(t, e, mixedTestQueries)
				dis, stats, err := e.DisagreementsMultiLiveCtx(ctx, qs, live)
				if err != nil {
					t.Fatal(err)
				}
				elems, _, hstats, err := e.OutputHashesMultiLiveCtx(ctx, qs, live)
				if err != nil {
					t.Fatal(err)
				}
				var hsum Stats
				for _, s := range hstats {
					hsum.Add(s)
				}
				return e, dis, stats, elems, hsum
			}
			e, full, fullStats, fullElems, fullH := sweep(nil)
			lo, hi := make([]bool, e.Set.Size()), make([]bool, e.Set.Size())
			for i := range lo {
				lo[i] = i%3 == 1
				hi[i] = !lo[i]
			}
			_, disLo, statsLo, elemsLo, hLo := sweep(lo)
			_, disHi, statsHi, elemsHi, hHi := sweep(hi)

			fast := 0
			for j, q := range compileAll(t, e, mixedTestQueries) {
				want, _ := bruteForce(t, e, q, nil)
				for i := range want {
					if full[j][i] != want[i] {
						t.Fatalf("%s workers=%d query %d element %d: sweep=%v brute force=%v", name, workers, j, i, full[j][i], want[i])
					}
					if (disLo[j][i] || disHi[j][i]) != want[i] || (disLo[j][i] && !lo[i]) || (disHi[j][i] && !hi[i]) {
						t.Fatalf("%s workers=%d query %d element %d: masked bits do not OR to %v", name, workers, j, i, want[i])
					}
					masked := elemsLo[j][i]
					if hi[i] {
						masked = elemsHi[j][i]
					}
					if masked != fullElems[j][i] || (lo[i] && elemsHi[j][i] != 0) || (hi[i] && elemsLo[j][i] != 0) {
						t.Fatalf("%s workers=%d query %d element %d: masked hashes differ from the unmasked sweep", name, workers, j, i)
					}
				}
				sum := statsLo[j]
				sum.Add(statsHi[j])
				if sum != fullStats[j] {
					t.Errorf("%s workers=%d query %d: masked stats %+v + %+v != unmasked %+v", name, workers, j, statsLo[j], statsHi[j], fullStats[j])
				}
				if fullStats[j].Naive == 0 {
					fast++
				}
			}
			// Every live (element, query) pair of a hash sweep counts once.
			hLo.Add(hHi)
			if hLo != fullH || decided(fullH) != e.Set.Size()*len(mixedTestQueries) {
				t.Errorf("%s workers=%d: hash sweep stats %+v over the masks, %+v unmasked", name, workers, hLo, fullH)
			}
			if wantFast := map[string]int{"batched": 5, "unbatched": 5, "reduced": 0}[name]; fast != wantFast {
				t.Errorf("%s workers=%d: %d queries took the fast path, want %d", name, workers, fast, wantFast)
			}
		}
	}
}
