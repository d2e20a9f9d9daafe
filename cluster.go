package qirana

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qirana/internal/durable"
	"qirana/internal/obs"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// This file is the broker's cluster surface: the shard-side sweep slice
// protocol plus the router-side RemoteSweeper hook.
//
// Sharded pricing splits ONE support-set sweep across N workers, each
// walking a contiguous slice [Lo, Hi) of the global element index. The
// design invariant is bit-identity: shards never sum floats. They return
// per-element raw material — disagreement bits or output hashes — for
// their slice only, and the router concatenates the slices in shard
// order (which IS global index order) and runs the exact single-node
// fold (PriceFromDisagreements / EntropyPriceFromHashes) over the
// reassembled vector. Every per-element decision is mask-independent
// (the same property history-aware pricing already relies on), so the
// concatenation is bit-for-bit the vector a local sweep would produce,
// and the price, the charge and the Stats follow.
//
// Stats fold by addition: every counter is per-element and masked
// elements contribute nothing, so disjoint covering slices sum exactly
// to one full sweep's Stats.

// ErrShardUnavailable marks a sweep that failed because a shard was
// unreachable, timed out, or answered 5xx. It is retryable: the HTTP
// layer maps it to 503 + Retry-After, same as ErrDurability.
var ErrShardUnavailable = errors.New("shard unavailable")

// ErrReadOnly is returned by state mutations (purchases, weight refits,
// checkpoints) on a read-only broker — the serving mode of shard workers
// and un-promoted standbys, which must never fork the cluster's buyer
// ledger. It is retryable against the cluster (the router or promoted
// leader accepts the write), so the HTTP layer maps it to 503.
var ErrReadOnly = errors.New("broker is read-only")

// ErrSupportMismatch marks a sweep request whose support-set generation
// or content checksum disagrees with the shard's. Prices folded across
// mismatched sets would be garbage, so the shard refuses; the operator
// rebuilds the cluster from one saved support set.
var ErrSupportMismatch = errors.New("support set mismatch")

// SweepSpec describes how a remote sweep should run. It replaced the
// old positional (bundle, supportGen) arguments when approximate
// pricing landed: a sweep now also carries an optional sample spec, and
// threading a third and fourth positional flag through every
// implementation was the wrong shape for an interface expected to grow.
type SweepSpec struct {
	// Bundle prices the sqls as ONE bundle (one output vector); false
	// sweeps each query independently (one vector per query, still in
	// one shared pass).
	Bundle bool
	// SupportGen is the caller's support-set generation, forwarded so a
	// stale router and a resampled shard can never silently mix sets.
	SupportGen uint64
	// SampleFrac in (0, 1) requests a sampled sweep: every shard
	// computes the SAME deterministic stratified mask
	// (support.SampleMask over the full index space, keyed by
	// SampleSeed and SupportGen) and sweeps only the sampled elements
	// of its slice. 0 (or ≥1) sweeps everything. Unsampled positions of
	// the returned vectors are zero; approximate folds read only
	// sampled positions.
	SampleFrac float64
	// SampleSeed keys the sample mask. Shards use the caller's seed,
	// never their own, so the reassembled vector has exactly the
	// positions the caller's mask selects.
	SampleSeed int64
}

// Sampled reports whether the spec asks for a strict sub-sample.
func (s SweepSpec) Sampled() bool { return s.SampleFrac > 0 && s.SampleFrac < 1 }

// RemoteSweeper replaces the broker's local cold sweep with a remote
// fan-out. Implementations (internal/shard.Fanout) partition [0, |S|)
// across shards, collect SweepSliceResponses, and reassemble the
// per-element vectors in global index order.
type RemoteSweeper interface {
	// SweepBits returns the full-length disagreement bitmap(s): one per
	// query, or exactly one in bundle mode. Stats align with the outer
	// slice.
	SweepBits(ctx context.Context, sqls []string, spec SweepSpec) ([][]bool, []Stats, error)
	// SweepHashes returns the full-length per-element output-hash
	// vector(s) for the entropy pricing functions, shaped like SweepBits.
	SweepHashes(ctx context.Context, sqls []string, spec SweepSpec) ([][]uint64, []Stats, error)
}

// DegradedSweeper is the optional fault-tolerant extension of
// RemoteSweeper (implemented by internal/shard.Fanout). Where the exact
// sweeps are all-or-nothing, the degraded variants return whatever
// slices answered within the retry budget plus an element-level live
// mask; dead slices are zero-filled and excluded from Stats. The broker
// feeds the mask into the PR 9 estimators as if the dead slices were
// simply unsampled, which prices the missing weight at its upper bound
// — a sound, arbitrage-safe over-quote (DESIGN.md §14). Implementations
// must return an error (never an all-false mask) when no slice at all
// survived.
type DegradedSweeper interface {
	RemoteSweeper
	SweepBitsDegraded(ctx context.Context, sqls []string, spec SweepSpec) ([][]bool, []Stats, []bool, error)
	SweepHashesDegraded(ctx context.Context, sqls []string, spec SweepSpec) ([][]uint64, []Stats, []bool, error)
}

// RetryAfterHinter is implemented by errors that know how long the
// failing component needs before a retry could succeed — e.g. the
// fan-out's circuit-breaker rejection carrying its remaining cooldown.
// The HTTP layer surfaces the hint as the Retry-After header and the
// error envelope's retry_after field.
type RetryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// RetryAfterHint extracts the retry hint from anywhere in err's chain.
func RetryAfterHint(err error) (time.Duration, bool) {
	var h RetryAfterHinter
	if errors.As(err, &h) {
		return h.RetryAfterHint(), true
	}
	return 0, false
}

// SetRemoteSweeper installs (or, with nil, removes) the broker's remote
// sweep fan-out. With a sweeper installed the broker becomes a router:
// cold quotes and purchase sweeps fan out to shards while cache keys,
// purchase folds, the ledger and served prices are unchanged. If the
// sweeper can carry metrics (AttachObs), it is wired into the broker's
// registry so fan-out counters and latencies surface in Metrics().
func (b *Broker) SetRemoteSweeper(rs RemoteSweeper) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweeper = rs
	if a, ok := rs.(interface{ AttachObs(*obs.Registry) }); ok && rs != nil {
		a.AttachObs(b.obs)
	}
}

// SetReadOnly flips the broker's read-only mode (see ErrReadOnly).
func (b *Broker) SetReadOnly(on bool) {
	b.mu.Lock()
	b.readOnly = on
	b.mu.Unlock()
}

// SupportGen returns the support set's generation counter (bumped by
// every resample). Cluster nodes compare it before folding sweeps.
func (b *Broker) SupportGen() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.supportGen
}

// SupportChecksum returns the support set's content checksum. Two
// brokers with equal checksums price against element-for-element
// identical support sets.
func (b *Broker) SupportChecksum() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.supportSum
}

// SweepSliceRequest asks a shard to sweep its slice [Lo, Hi) of the
// support set for one bundle or batch of queries.
type SweepSliceRequest struct {
	// SQLs are the queries to sweep. At least one is required.
	SQLs []string `json:"sqls"`
	// Bundle sweeps all SQLs as one bundle (one output vector); false
	// sweeps each independently.
	Bundle bool `json:"bundle"`
	// Hashes selects output-hash vectors (entropy pricing) instead of
	// disagreement bitmaps.
	Hashes bool `json:"hashes"`
	// Lo and Hi bound the slice in global element indexes: [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// SupportGen and SupportSum identify the support set the caller
	// prices against; the shard refuses on any mismatch.
	SupportGen uint64 `json:"support_gen"`
	SupportSum uint64 `json:"support_sum"`
	// SampleFrac in (0, 1) sweeps only the deterministic stratified
	// sample of the support set (support.SampleMask keyed by SampleSeed
	// and SupportGen) intersected with [Lo, Hi); the response vectors
	// stay slice-width with unsampled positions zero. Absent (0) sweeps
	// the whole slice — the wire format is unchanged for exact traffic.
	SampleFrac float64 `json:"sample_frac,omitempty"`
	SampleSeed int64   `json:"sample_seed,omitempty"`
}

// SweepSliceResponse carries one shard's slice of the sweep. Bits and
// Hashes cover ONLY [Lo, Hi), in global index order; the router drops
// them into the full vector at offset Lo.
type SweepSliceResponse struct {
	SupportGen uint64 `json:"support_gen"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	// Bits holds Hi-Lo disagreement bits per entry, packed LSB-first
	// (durable.PackBits layout); one entry per query, or one for the
	// bundle. Empty when Hashes was requested.
	Bits [][]byte `json:"bits,omitempty"`
	// Hashes holds Hi-Lo per-element output hashes per entry. uint64
	// survives the JSON round-trip exactly: encoding/json emits the
	// integer digits and decodes them straight into the uint64 field.
	Hashes [][]uint64 `json:"hashes,omitempty"`
	// Stats aligns with Bits/Hashes: this slice's share of the sweep
	// stats (summing all shards' reproduces the single-node Stats).
	Stats []Stats `json:"stats"`
	// Rows is how many support elements this call actually swept. Warm
	// slices (shard-local cache hits) report 0.
	Rows int `json:"rows"`
}

// sliceEntry is one output's cached slice sweep: the packed bits or the
// hashes of [lo, hi) plus that slice's share of the Stats.
type sliceEntry struct {
	packed []byte
	hashes []uint64
	stats  pricing.Stats
}

// SweepSlice serves one shard sweep: it walks ONLY the elements in
// [req.Lo, req.Hi) (the rest are masked out exactly like history-aware
// pricing masks owned elements) and returns the slice's bits or hashes.
// Slices are cached in the shard's quote cache under keys that embed
// the slice bounds and the same generation/version discipline as local
// quote keys, so repeated router misses for the same query cost zero
// rows (Rows reports the true number swept). The sweep is always local:
// a shard never forwards its slice to a sweeper of its own.
func (b *Broker) SweepSlice(ctx context.Context, req SweepSliceRequest) (*SweepSliceResponse, error) {
	b.obs.Add("shard_sweep_requests", 1)
	defer b.obs.Timer("shard_sweep")()
	if len(req.SQLs) == 0 {
		return nil, fmt.Errorf("sweep request carries no queries")
	}
	qs, err := b.compileAll(req.SQLs)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if req.SupportGen != b.supportGen || req.SupportSum != b.supportSum {
		return nil, fmt.Errorf("%w: request prices gen=%d sum=%016x, shard holds gen=%d sum=%016x",
			ErrSupportMismatch, req.SupportGen, req.SupportSum, b.supportGen, b.supportSum)
	}
	size := b.engine.Set.Size()
	if req.Lo < 0 || req.Hi < req.Lo || req.Hi > size {
		return nil, fmt.Errorf("sweep slice [%d, %d) out of range for support set of size %d", req.Lo, req.Hi, size)
	}
	// The mask is the slice, intersected for a sampled sweep with the
	// caller's global sample mask — recomputed here from (frac, seed,
	// gen), identical on every shard. The key's sample suffix keeps exact
	// and sampled slices apart. The wire vectors keep the full slice
	// width; rows and Stats count the swept elements only.
	spec := SweepSpec{Bundle: req.Bundle, SupportGen: req.SupportGen, SampleFrac: req.SampleFrac, SampleSeed: req.SampleSeed}
	var sample []bool
	if spec.Sampled() {
		sample = support.SampleMask(size, req.SampleFrac, req.SampleSeed, req.SupportGen)
	}
	live := make([]bool, size)
	width := 0
	for i := req.Lo; i < req.Hi; i++ {
		live[i] = sample == nil || sample[i]
		if live[i] {
			width++
		}
	}
	// rows counts elements swept by THIS call: the counter lives inside
	// the sweep, which cache hits and coalesced flights skip.
	rows := 0
	sweepMisses := func(ctx context.Context, qs []*exec.Query) ([]sliceEntry, error) {
		out, _, err := b.sweep(ctx, sweepReq{qs: qs, hashes: req.Hashes, spec: spec, slice: live})
		if err != nil {
			return nil, err
		}
		rows += width * len(out)
		b.obs.Add("shard_rows_swept", uint64(width*len(out)))
		ents := make([]sliceEntry, len(out))
		for x, v := range out {
			ents[x].stats = v.stats
			if req.Hashes {
				ents[x].hashes = append([]uint64(nil), v.hashes[req.Lo:req.Hi]...)
			} else {
				ents[x].packed = durable.PackBits(v.bits[req.Lo:req.Hi])
			}
		}
		return ents, nil
	}
	keyOf := func(qs []*exec.Query) string { return b.key(quoteKey{qs: qs, slice: &req}) }
	var ents []sliceEntry
	if req.Bundle {
		v, _, err := b.cached(ctx, keyOf(qs), func() (any, error) {
			ents, err := sweepMisses(ctx, qs)
			if err != nil {
				return nil, err
			}
			return ents[0], nil
		})
		if err != nil {
			return nil, err
		}
		ents = []sliceEntry{v.(sliceEntry)}
	} else if ents, _, err = batchEntries(ctx, b, qs, keyOf, sweepMisses); err != nil {
		return nil, err
	}
	resp := &SweepSliceResponse{SupportGen: b.supportGen, Lo: req.Lo, Hi: req.Hi, Stats: make([]Stats, len(ents)), Rows: rows}
	for j, ent := range ents {
		resp.Stats[j] = ent.stats
		if req.Hashes {
			resp.Hashes = append(resp.Hashes, ent.hashes)
		} else {
			resp.Bits = append(resp.Bits, ent.packed)
		}
	}
	return resp, nil
}
