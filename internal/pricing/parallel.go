package pricing

import (
	"context"

	"qirana/internal/pool"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
)

// Shared-read parallel evaluation: Algorithm 1's loop is embarrassingly
// parallel across support elements — each element is an independent
// evaluation of Q over a neighboring instance. Elements are realized as
// copy-on-write overlays (storage.Overlay) instead of in-place mutations,
// so any number of workers evaluate concurrently over ONE immutable
// database: per-element cost is O(|delta|), not a full O(|D|) clone per
// worker, and peak memory no longer scales with workers × |D|.
//
// The same pool.RunWorkers scheduler drives the disagreement checker's
// batched fast path (disagree.CheckBatch's workers), so Options.Workers is the
// single parallelism knob for the whole engine. Work is handed out through
// an atomic index (work stealing), so skewed elements cannot idle workers.

// parallelWorkers resolves the configured worker count (clamped to
// GOMAXPROCS; ≤ 1 means serial).
func (e *Engine) parallelWorkers() int {
	if e.Opts.Workers <= 1 {
		return 1
	}
	return pool.Clamp(e.Opts.Workers, -1)
}

// sweepElements is Algorithm 1's loop, the engine's one naive pass: it
// runs qs on D itself (the returned base hashes), then applies every live
// element (nil live = all) once, runs all of qs on the neighboring
// instance, and hands visit the element's index, its raw per-query output
// hashes (the worker's scratch, valid only during the call) and the base
// hashes. It also returns the number of live elements. Each worker owns
// one overlay over the shared database and restores it after every
// element; visit runs on the workers and must write only to slots of
// element i. With one worker the elements run inline in index order, so
// the serial path is bit-identical to the parallel one by construction.
// The pool polls ctx between elements, so a cancelled sweep stops after
// the in-flight elements finish their apply/run/undo cycle.
func (e *Engine) sweepElements(ctx context.Context, qs []*exec.Query, live []bool, visit func(i int, hs, bases []uint64)) ([]uint64, int, error) {
	n := len(e.Set.Elements)
	if live != nil {
		n = 0
		for _, ok := range live {
			if ok {
				n++
			}
		}
	}
	workers := pool.Clamp(e.parallelWorkers(), n)
	k := len(qs)
	hashes := make([]uint64, (1+workers)*k) // base hashes, then one scratch row per worker
	bases := hashes[:k:k]
	for j, q := range qs {
		res, err := q.Run(e.DB)
		if err != nil {
			return nil, 0, err
		}
		bases[j] = res.Hash()
	}
	overlays := make([]*storage.Overlay, workers)
	err := pool.RunWorkersCtx(ctx, workers, len(e.Set.Elements), func(w, i int) error {
		if live != nil && !live[i] {
			return nil
		}
		o := overlays[w]
		if o == nil {
			o = storage.NewOverlay(e.DB)
			overlays[w] = o
		}
		hs := hashes[(1+w)*k : (2+w)*k]
		el := e.Set.Elements[i]
		el.ApplyOverlay(o)
		defer el.UndoOverlay(o)
		for j, q := range qs {
			res, err := q.RunOverride(e.DB, o.Overrides())
			if err != nil {
				return err
			}
			hs[j] = res.Hash()
		}
		visit(i, hs, bases)
		return nil
	})
	return bases, n, err
}
