// Package pool provides the bounded worker pool shared by the pricing
// engine and the disagreement checker. All pricing-side parallelism runs
// through it, so one knob (pricing.Options.Workers) governs the whole
// engine.
//
// Work is handed out through an atomic work-stealing index rather than
// static chunking: a worker that draws a cheap item immediately steals the
// next one, so a few expensive items (a skewed relation, a residual full
// run) cannot idle the rest of the pool.
//
// Error handling is fail-fast and deterministic-leaning: each worker
// records only its first error, every other worker stops drawing new items
// as soon as any error is recorded, and the pool returns the recorded error
// with the smallest item index. Callers therefore see the error closest to
// the one a serial left-to-right run would have hit.
//
// Cancellation uses the same fail-fast machinery: the pool polls
// ctx between items (serial and parallel alike), so a cancelled context or
// an expired deadline stops the pool mid-sweep with ctx.Err() instead of
// running the remaining items. A panic inside fn never tears down the
// process: it is recovered in the worker and surfaced as an ordinary
// error (with the item index and stack), which fail-fasts the rest of the
// pool exactly like a returned error.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Clamp bounds a requested worker count to [1, GOMAXPROCS] and to the item
// count n. Zero or negative requests mean "serial".
func Clamp(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if n >= 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// safeCall runs fn(w, i), converting a panic into an error carrying the
// item index and the goroutine stack, so one poisoned item fails the call
// like any other error instead of crashing the process.
func safeCall(fn func(worker, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: panic on item %d: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(w, i)
}

// RunWorkersCtx executes fn(worker, i) for every i in [0, n), using at
// most the given number of goroutines. The worker argument identifies the
// executing goroutine (0 ≤ worker < effective workers), letting callers
// keep cheap per-worker scratch state (e.g. a database overlay) without
// locking. fn must write only to item-indexed slots or worker-private
// state; items are claimed through a shared atomic counter.
//
// ctx is polled before every item: once it is cancelled (or its deadline
// passes) no further items start and the call returns ctx.Err(). Items
// already in flight run to completion — fn is never interrupted midway —
// so the usual apply/undo invariants hold even on the cancelled path.
//
// With workers ≤ 1 (or n ≤ 1) the items run inline on the calling
// goroutine in index order, so the serial path stays allocation- and
// goroutine-free and bitwise identical to the pre-pool behavior.
func RunWorkersCtx(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Clamp(workers, n)
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var next atomic.Int64
	var failed, cancelled atomic.Bool
	type firstErr struct {
		idx int
		err error
	}
	errs := make([]firstErr, workers)
	for w := range errs {
		errs[w].idx = -1
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := safeCall(fn, w, i); err != nil {
					errs[w] = firstErr{idx: i, err: err}
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	best := -1
	for w := range errs {
		if errs[w].idx < 0 {
			continue
		}
		if best < 0 || errs[w].idx < errs[best].idx {
			best = w
		}
	}
	if best >= 0 {
		return errs[best].err
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// RunCtx is RunWorkersCtx for callers that need no per-worker state.
func RunCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return RunWorkersCtx(ctx, workers, n, func(_, i int) error { return fn(i) })
}
