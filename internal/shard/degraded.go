package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"qirana"
)

// Degraded sweeps implement qirana.DegradedSweeper: the same slice
// fan-out as sweep, but with no all-or-nothing barrier and no sibling
// cancellation — every shard gets its own full retry budget, and slices
// that still fail are reported as missing via a live mask instead of
// aborting the sweep. The broker prices the missing weight as unsampled
// through the PR 9 estimators, which yields a sound over-quote (see
// DESIGN.md §14). At least one slice must survive. Input-class failures
// (400/409) and the caller's own cancellation still abort: degrading
// cannot fix a bad request, and a partial answer would only hide it.

// sweepDegraded fans out with per-shard fault isolation; the replies of
// dead shards are nil.
func (f *Fanout) sweepDegraded(ctx context.Context, sqls []string, spec qirana.SweepSpec, hashes bool) (fanned, error) {
	if spec.SupportGen != f.info.SupportGen {
		return fanned{}, fmt.Errorf("%w: router prices support gen %d but the cluster was connected at gen %d (a resample requires rebuilding the cluster)",
			qirana.ErrSupportMismatch, spec.SupportGen, f.info.SupportGen)
	}
	if spec.Sampled() {
		// The live mask marks whole slices as fully swept; intersecting
		// it with a per-shard sample would double-discount coverage.
		return fanned{}, errors.New("degraded sweeps are exact per slice; sampled specs are not supported")
	}
	f.obs.Add("router_fanout_rpcs", uint64(len(f.urls)))
	defer f.obs.Timer("router_fanout")()
	resps := make([]*qirana.SweepSliceResponse, len(f.urls))
	errs := make([]error, len(f.urls))
	var wg sync.WaitGroup
	for i := range f.urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = f.call(ctx, ctx, i, sqls, spec, hashes)
		}(i)
	}
	wg.Wait()
	alive := 0
	var firstFault error
	for i, err := range errs {
		if err == nil {
			alive++
			continue
		}
		resps[i] = nil
		f.obs.Add("router_shard_errors", 1)
		if !errors.Is(err, qirana.ErrShardUnavailable) {
			return fanned{}, fmt.Errorf("shard %d (%s): %w", i, f.urls[i], err)
		}
		if firstFault == nil {
			// Keep the first real fault: it may carry a breaker's
			// Retry-After hint for the all-shards-down answer.
			firstFault = fmt.Errorf("shard %d (%s): %w", i, f.urls[i], err)
		}
	}
	if alive == 0 {
		return fanned{}, firstFault
	}
	if alive < len(f.urls) {
		f.obs.Add("router_degraded_sweeps", 1)
	}
	return fanned{resps: resps, nOut: outputs(sqls, spec.Bundle), hashes: hashes, degraded: true}, nil
}

// SweepBitsDegraded implements qirana.DegradedSweeper. The returned
// element-level live mask marks exactly the slices that answered; dead
// slices are zero-filled and contribute nothing to Stats.
func (f *Fanout) SweepBitsDegraded(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]bool, []qirana.Stats, []bool, error) {
	m, err := f.merge(f.sweepDegraded(ctx, sqls, spec, false))
	return m.bits, m.stats, m.live, err
}

// SweepHashesDegraded implements qirana.DegradedSweeper; the hash
// analogue of SweepBitsDegraded.
func (f *Fanout) SweepHashesDegraded(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]uint64, []qirana.Stats, []bool, error) {
	m, err := f.merge(f.sweepDegraded(ctx, sqls, spec, true))
	return m.hashes, m.stats, m.live, err
}
