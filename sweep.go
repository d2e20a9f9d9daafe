package qirana

import (
	"context"
	"time"

	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// One quote path. Each of the four pricing functions is a fold over one
// per-element vector on the support set — disagreement bits for
// coverage and uniform gain, output hashes for the entropies — so every
// quote mode is one sweep, one fold and one key (key.go), differing
// only in the mask of elements it covers:
//
//	exact         nil (every element)
//	approximate   support.SampleMask (approx.go)
//	degraded      the live slices of a partial shard fan-out (degraded.go)
//	shard slice   [lo, hi) ∧ sample (cluster.go)
//
// sweep is the only caller of the engine's sweep entry points and of the
// RemoteSweeper/DegradedSweeper methods; fold is the only caller of the
// engine's folds.

// vector is one sweep output — a disagreement bitmap or an output-hash
// vector — with its Stats. An exact entropy cache entry keeps only the
// folded price (see exactEntry).
type vector struct {
	bits   []bool
	hashes []uint64
	price  float64
	stats  Stats
}

// hashed reports whether fn folds output hashes (the entropies) rather
// than disagreement bits.
func hashed(fn PricingFunc) bool { return fn == ShannonEntropy || fn == QEntropy }

// sweepReq is one sweep: its queries, output kind and shape, and the
// elements it covers.
type sweepReq struct {
	qs     []*exec.Query
	hashes bool
	// spec carries the output shape (Bundle: one vector for all qs, else
	// one per query), the support generation and the sample, which
	// selects the mask of a full-set sweep.
	spec SweepSpec
	// slice, when set, is the mask of a shard's slice: the sweep runs
	// locally over exactly those elements, sweeper or not.
	slice []bool
	// degraded fans out through the DegradedSweeper: dead slices leave
	// the returned mask.
	degraded bool
}

// sweep runs r — remotely when a sweeper is installed, locally in a
// sweep slot otherwise — and returns one vector per output plus the mask
// of elements they cover (nil: all), which is the mask the fold takes.
// Callers hold mu.RLock.
func (b *Broker) sweep(ctx context.Context, r sweepReq) ([]vector, []bool, error) {
	mask := r.slice
	if mask == nil && r.spec.Sampled() {
		mask = support.SampleMask(b.engine.Set.Size(), r.spec.SampleFrac, r.spec.SampleSeed, r.spec.SupportGen)
	}
	var bits [][]bool
	var hashes [][]uint64
	var stats []Stats
	var err error
	switch rs := b.sweeper; {
	case r.degraded:
		ds, ok := rs.(DegradedSweeper)
		if !ok {
			return nil, nil, ErrShardUnavailable
		}
		if r.hashes {
			hashes, stats, mask, err = ds.SweepHashesDegraded(ctx, sqlsOf(r.qs), r.spec)
		} else {
			bits, stats, mask, err = ds.SweepBitsDegraded(ctx, sqlsOf(r.qs), r.spec)
		}
	case rs != nil && r.slice == nil:
		if r.hashes {
			hashes, stats, err = rs.SweepHashes(ctx, sqlsOf(r.qs), r.spec)
		} else {
			bits, stats, err = rs.SweepBits(ctx, sqlsOf(r.qs), r.spec)
		}
	default:
		err = b.localSweep(ctx, func() (err error) {
			switch {
			case r.hashes && r.spec.Bundle:
				hashes, stats = make([][]uint64, 1), make([]Stats, 1)
				hashes[0], _, stats[0], err = b.engine.OutputHashesLiveCtx(ctx, r.qs, mask)
			case r.hashes:
				hashes, _, stats, err = b.engine.OutputHashesMultiLiveCtx(ctx, r.qs, mask)
			case r.spec.Bundle:
				bits, stats = make([][]bool, 1), make([]Stats, 1)
				bits[0], stats[0], err = b.engine.DisagreementsLiveCtx(ctx, r.qs, mask)
			default:
				bits, stats, err = b.engine.DisagreementsMultiLiveCtx(ctx, r.qs, mask)
			}
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([]vector, len(stats))
	for j := range out {
		out[j].stats = stats[j]
		if r.hashes {
			out[j].hashes = hashes[j]
		} else {
			out[j].bits = bits[j]
		}
	}
	return out, mask, nil
}

// fold prices one sweep output under fn. A nil mask folds every element
// into the exact price (Estimate.Price). Otherwise only the masked
// elements are read and the rest are charged as unswept weight: the
// result is a sound upper bound with its point estimate and CI.
func (b *Broker) fold(fn PricingFunc, v vector, mask []bool) (est pricing.Estimate, err error) {
	switch {
	case mask != nil && hashed(fn):
		return b.engine.EstimateFromSampledHashes(fn, v.hashes, mask)
	case mask != nil:
		return b.engine.EstimateFromSampledDisagreements(fn, v.bits, mask)
	case hashed(fn):
		est.Price, err = b.engine.EntropyPriceFromHashes(fn, v.hashes)
	default:
		est.Price, err = b.engine.PriceFromDisagreements(fn, v.bits)
	}
	return est, err
}

// localSweep runs one local cold sweep in a slot of the sweep semaphore,
// waiting for the slot under ctx (a cancelled wait returns ctx.Err()
// without sweeping). The wait is timed as sweep_wait and the number of
// sweeps in flight feeds the sweeps_inflight_max high-water mark. Before
// sweeping it rebuilds the engine's per-query state if the database was
// mutated externally. Callers hold mu.RLock and never hold a slot already.
func (b *Broker) localSweep(ctx context.Context, sweep func() error) error {
	start := time.Now()
	select {
	case b.sweepSlots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	b.obs.Observe("sweep_wait", time.Since(start))
	b.obs.Counter("sweeps_inflight_max").Max(uint64(len(b.sweepSlots)))
	defer func() { <-b.sweepSlots }()
	b.engine.RefreshCache()
	return sweep()
}
