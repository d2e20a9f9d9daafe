package qirana

// Degraded-mode quotes (DESIGN.md §14). When a shard's slice is
// unreachable past the fan-out's retry budget, an exact quote cannot be
// assembled — but a SOUND one can: the dead slices are priced exactly
// like unsampled weight in the PR 9 approximate machinery, using the
// live slices as the "sample". The coverage estimator charges every
// missing element as if it disagreed (its weight in full); the entropy
// estimators refine every missing element into its own partition
// (maximum information). Both are the worst case the buyer could have
// learned from the missing slice, so
//
//	degraded price ≥ exact price
//
// for all four pricing functions, and the arbitrage-freeness argument
// for approximate quotes (internal/pricing/approx.go) carries over
// unchanged. The quote is served with provenance — degraded: true, the
// missing-slice fraction, point estimate and CI — and cached under the
// same "a|" key as a sampled quote, so the background refiner and the
// purchase-time reconcile settle it to the exact price once the cluster
// heals. Purchases never take this path: charging requires the exact
// sweep, so a purchase during an outage still fails 503 and no partial
// merge ever charges a buyer.

import (
	"context"
	"errors"
)

// canDegrade reports whether a failed sweep may fall back to a degraded
// quote: degradation enabled, the caller still waiting, the failure a
// shard outage (not a bad request), and the installed sweeper able to
// deliver partial slices. Callers hold mu.RLock.
func (b *Broker) canDegrade(ctx context.Context, err error) bool {
	_, ok := b.sweeper.(DegradedSweeper)
	return ok && !b.opts.DisableDegradedQuotes && ctx.Err() == nil && errors.Is(err, ErrShardUnavailable)
}

// missingFrac is the fraction of support-set elements whose slice did
// not answer.
func missingFrac(live []bool) float64 {
	if len(live) == 0 {
		return 0
	}
	miss := 0
	for _, ok := range live {
		if !ok {
			miss++
		}
	}
	return float64(miss) / float64(len(live))
}
