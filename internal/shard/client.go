package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"qirana"
	"qirana/internal/durable"
	"qirana/internal/obs"
)

// Info is a shard's identity, served on GET /shard/info and verified at
// connect time: a cluster is only usable when every shard prices the
// same support set.
type Info struct {
	SupportGen uint64 `json:"support_gen"`
	SupportSum uint64 `json:"support_sum"`
	Size       int    `json:"size"`
}

// Fanout is the router's RemoteSweeper: it splits every cold sweep
// across the connected shards (one contiguous slice each, per Assign),
// runs the slice requests concurrently, and reassembles the per-element
// vectors in shard order. Each slice request runs under the installed
// FaultPolicy — jittered-backoff retries, hedging, and a per-shard
// circuit breaker (breaker.go) — but the exact sweep itself stays
// all-or-nothing: one slice exhausting its budget aborts the whole
// fan-out as qirana.ErrShardUnavailable (503 + Retry-After), so a
// partially merged exact price is never returned. Partial results are
// only ever surfaced through the explicitly-degraded sweeps in
// degraded.go, which report missing slices via a live mask for the
// broker to price as unsampled weight.
type Fanout struct {
	urls   []string
	ranges []Range
	info   Info
	client *http.Client
	obs    *obs.Registry // nil-safe; installed via AttachObs

	policy   FaultPolicy
	breakers []*breaker
	lat      ewma // successful slice-request latency (adaptive hedging)
	gap      ewma // straggler gap per fan-out (adaptive hedging)
	rngMu    sync.Mutex
	rng      *rand.Rand // backoff jitter; guarded by rngMu
}

// Connect performs the cluster handshake: it fetches /shard/info from
// every URL, requires all shards to agree on the support set (gen,
// checksum, size), and fixes the slice assignment. client may be nil
// (http.DefaultClient).
func Connect(ctx context.Context, urls []string, client *http.Client) (*Fanout, error) {
	if len(urls) == 0 {
		return nil, errors.New("shard fan-out needs at least one shard URL")
	}
	if client == nil {
		client = http.DefaultClient
	}
	f := &Fanout{urls: urls, client: client, rng: newJitterRNG(time.Now().UnixNano())}
	f.SetPolicy(DefaultFaultPolicy())
	for i, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/shard/info", nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", i, u, err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d (%s): %v", qirana.ErrShardUnavailable, i, u, err)
		}
		var info Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%w: shard %d (%s): info returned status %d", qirana.ErrShardUnavailable, i, u, resp.StatusCode)
		}
		if i == 0 {
			f.info = info
		} else if info != f.info {
			return nil, fmt.Errorf("%w: shard %d (%s) holds gen=%d sum=%016x size=%d but shard 0 holds gen=%d sum=%016x size=%d",
				qirana.ErrSupportMismatch, i, u, info.SupportGen, info.SupportSum, info.Size,
				f.info.SupportGen, f.info.SupportSum, f.info.Size)
		}
	}
	f.ranges = Assign(f.info.Size, len(urls))
	return f, nil
}

// Info returns the cluster identity agreed at connect time.
func (f *Fanout) Info() Info { return f.info }

// Shards returns the number of connected shards.
func (f *Fanout) Shards() int { return len(f.urls) }

// SetPolicy installs a fault policy and resets every shard's circuit
// breaker. Call it after Connect and before serving traffic; it is not
// synchronized against in-flight sweeps.
func (f *Fanout) SetPolicy(p FaultPolicy) {
	f.policy = p.sane()
	f.breakers = make([]*breaker, len(f.urls))
	for i := range f.breakers {
		f.breakers[i] = newBreaker(f.policy.BreakerThreshold, f.policy.BreakerCooldown)
	}
}

// Policy returns the installed fault policy.
func (f *Fanout) Policy() FaultPolicy { return f.policy }

// AttachObs wires the fan-out's counters and latencies into the
// router's metrics registry (qirana.SetRemoteSweeper calls it):
//
//	router_fanout_rpcs       shard RPCs issued
//	router_shard_errors      failed shard RPCs
//	router_retries           retry attempts launched after a shard fault
//	router_hedges            duplicate (hedged) RPCs fired
//	router_hedge_wins        hedged duplicates that answered first
//	router_degraded_sweeps   fan-outs that completed with missing slices
//	breaker_open             breaker trips (closed/half-open → open)
//	breaker_close            breaker recoveries (→ closed)
//	breaker_probes           half-open health probes issued
//	breaker_rejects          requests failed fast by an open breaker
//	router_fanout            whole fan-out latency (slowest shard)
//	router_merge             slice reassembly latency
//	router_straggler_gap     slowest minus fastest shard per fan-out
func (f *Fanout) AttachObs(r *obs.Registry) { f.obs = r }

// SweepBits implements qirana.RemoteSweeper.
func (f *Fanout) SweepBits(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]bool, []qirana.Stats, error) {
	m, err := f.merge(f.sweep(ctx, sqls, spec, false))
	return m.bits, m.stats, err
}

// SweepHashes implements qirana.RemoteSweeper.
func (f *Fanout) SweepHashes(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]uint64, []qirana.Stats, error) {
	m, err := f.merge(f.sweep(ctx, sqls, spec, true))
	return m.hashes, m.stats, err
}

// fanned is one fan-out's replies: resps[i] is shard i's slice, nil
// when the shard is dead (degraded sweeps only).
type fanned struct {
	resps    []*qirana.SweepSliceResponse
	nOut     int
	hashes   bool
	degraded bool
}

// merged is a fan-out reassembled in global index order: the
// full-length vectors, their summed Stats, and for a degraded sweep the
// element-level live mask (dead slices zero-filled and left out of
// Stats).
type merged struct {
	bits   [][]bool
	hashes [][]uint64
	stats  []qirana.Stats
	live   []bool
}

// merge checks every reply's shape — the vector count, the Stats count
// and each vector's width ((w+7)/8 packed bytes for bits, w hashes) —
// and assembles the slices. A malformed reply fails an exact sweep with
// ErrShardUnavailable; a degraded sweep counts that shard as dead:
// soundness beats coverage.
func (f *Fanout) merge(fo fanned, err error) (merged, error) {
	if err != nil {
		return merged{}, err
	}
	defer f.obs.Timer("router_merge")()
	m := merged{stats: make([]qirana.Stats, fo.nOut)}
	for j := 0; j < fo.nOut; j++ {
		if fo.hashes {
			m.hashes = append(m.hashes, make([]uint64, f.info.Size))
		} else {
			m.bits = append(m.bits, make([]bool, f.info.Size))
		}
	}
	if fo.degraded {
		m.live = make([]bool, f.info.Size)
	}
	alive := 0
	for i, resp := range fo.resps {
		if resp == nil {
			continue
		}
		r := f.ranges[i]
		vecs, width := len(resp.Bits), (r.Width()+7)/8
		if fo.hashes {
			vecs, width = len(resp.Hashes), r.Width()
		}
		ok := vecs == fo.nOut && len(resp.Stats) == fo.nOut
		for j := 0; ok && j < fo.nOut; j++ {
			ok = fo.hashes && len(resp.Hashes[j]) == width || !fo.hashes && len(resp.Bits[j]) == width
		}
		if !ok && !fo.degraded {
			return merged{}, fmt.Errorf("%w: shard %d returned %d vectors and %d stats for %d outputs, or a vector that does not cover [%d, %d)",
				qirana.ErrShardUnavailable, i, vecs, len(resp.Stats), fo.nOut, r.Lo, r.Hi)
		}
		if !ok {
			f.obs.Add("router_shard_errors", 1)
			continue
		}
		for j := 0; j < fo.nOut; j++ {
			if fo.hashes {
				copy(m.hashes[j][r.Lo:r.Hi], resp.Hashes[j])
			} else {
				copy(m.bits[j][r.Lo:r.Hi], durable.UnpackBits(resp.Bits[j], r.Width()))
			}
			m.stats[j].Add(resp.Stats[j])
		}
		for x := r.Lo; fo.degraded && x < r.Hi; x++ {
			m.live[x] = true
		}
		alive++
	}
	if alive == 0 {
		return merged{}, fmt.Errorf("%w: no shard returned a usable slice", qirana.ErrShardUnavailable)
	}
	return m, nil
}

func outputs(sqls []string, bundle bool) int {
	if bundle {
		return 1
	}
	return len(sqls)
}

// sweep fans one slice request out to every shard concurrently, each
// under the fault policy's retry/hedge/breaker budget (call, in
// call.go). The first exhausted budget cancels the outstanding
// requests: an exact sweep either returns every slice or nothing.
func (f *Fanout) sweep(parent context.Context, sqls []string, spec qirana.SweepSpec, hashes bool) (fanned, error) {
	if spec.SupportGen != f.info.SupportGen {
		return fanned{}, fmt.Errorf("%w: router prices support gen %d but the cluster was connected at gen %d (a resample requires rebuilding the cluster)",
			qirana.ErrSupportMismatch, spec.SupportGen, f.info.SupportGen)
	}
	f.obs.Add("router_fanout_rpcs", uint64(len(f.urls)))
	defer f.obs.Timer("router_fanout")()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	resps := make([]*qirana.SweepSliceResponse, len(f.urls))
	errs := make([]error, len(f.urls))
	durs := make([]time.Duration, len(f.urls))
	var wg sync.WaitGroup
	for i := range f.urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resps[i], errs[i] = f.call(ctx, parent, i, sqls, spec, hashes)
			durs[i] = time.Since(start)
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	// Prefer a root-cause error over the cancellations it induced in the
	// sibling requests.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		f.obs.Add("router_shard_errors", 1)
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = fmt.Errorf("shard %d (%s): %w", i, f.urls[i], err)
		}
	}
	if firstErr != nil {
		return fanned{}, firstErr
	}
	min, max := durs[0], durs[0]
	for _, d := range durs[1:] {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	f.obs.Observe("router_straggler_gap", max-min)
	f.gap.observe(max - min)
	return fanned{resps: resps, nOut: outputs(sqls, spec.Bundle), hashes: hashes}, nil
}

// post sends one shard its slice request and classifies the outcome:
// 400 is the shard judging the INPUT bad (forwarded as a plain error →
// the router answers 400 too), 409 is a support-set mismatch, and
// everything else — transport errors, timeouts, 5xx, torn bodies — is
// the SHARD being unavailable (→ 503, retryable). The one exception:
// when the PARENT context is done, the caller gave up, and post
// propagates parent.Err() verbatim — a client hanging up must never be
// billed to the shard's breaker or spent from the retry budget. (ctx
// here may be a derived group/hedge context; its cancellation means a
// sibling aborted the fan-out, which likewise is not this shard's
// fault.)
func (f *Fanout) post(ctx, parent context.Context, i int, sqls []string, spec qirana.SweepSpec, hashes bool) (*qirana.SweepSliceResponse, error) {
	r := f.ranges[i]
	sreq := qirana.SweepSliceRequest{
		SQLs: sqls, Bundle: spec.Bundle, Hashes: hashes,
		Lo: r.Lo, Hi: r.Hi,
		SupportGen: spec.SupportGen, SupportSum: f.info.SupportSum,
	}
	if spec.Sampled() {
		sreq.SampleFrac, sreq.SampleSeed = spec.SampleFrac, spec.SampleSeed
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.urls[i]+"/v1/shard/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := f.client.Do(req)
	if err != nil {
		if parent.Err() != nil {
			return nil, parent.Err()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", qirana.ErrShardUnavailable, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg := readErrorMessage(httpResp.Body)
		switch {
		case httpResp.StatusCode == http.StatusBadRequest:
			return nil, errors.New(msg)
		case httpResp.StatusCode == http.StatusConflict:
			return nil, fmt.Errorf("%w: %s", qirana.ErrSupportMismatch, msg)
		default:
			return nil, fmt.Errorf("%w: status %d: %s", qirana.ErrShardUnavailable, httpResp.StatusCode, msg)
		}
	}
	var resp qirana.SweepSliceResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		if parent.Err() != nil {
			return nil, parent.Err()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: decode sweep response: %v", qirana.ErrShardUnavailable, err)
	}
	if resp.Lo != r.Lo || resp.Hi != r.Hi {
		return nil, fmt.Errorf("%w: asked for slice [%d, %d) but got [%d, %d)", qirana.ErrShardUnavailable, r.Lo, r.Hi, resp.Lo, resp.Hi)
	}
	return &resp, nil
}

// readErrorMessage extracts the error body — either the typed
// {"error":{"code":...,"message":...}} object the /v1 surface writes or
// the legacy {"error":"..."} flat string — falling back to the raw text.
func readErrorMessage(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var typed struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &typed) == nil && typed.Error.Message != "" {
		return typed.Error.Message
	}
	var flat struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &flat) == nil && flat.Error != "" {
		return flat.Error
	}
	return string(bytes.TrimSpace(data))
}
