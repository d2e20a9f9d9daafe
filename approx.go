package qirana

// Approximate fast-path pricing (ROADMAP item 2, DESIGN.md §13). A
// PriceRequest with MaxError > 0 is served from a deterministic
// stratified sub-sample of the support set instead of a full sweep:
//
//	quote (approx)  ──►  cache "a|" entry {upper bound, point, CI}
//	       │                   │
//	       │                   ▼ background refiner (or any purchase)
//	       │             entry refined: exact price known
//	       ▼                   │
//	purchase ──────────────────┴──► settles at the EXACT price; the
//	                                quoted−exact delta is recorded in
//	                                the Receipt and the ledger record
//
// The served estimate is a sound upper bound on the exact price (see
// internal/pricing/approx.go for the per-function argument), so
// approximate quotes are arbitrage-safe: a buyer can never assemble
// information more cheaply through the sampled path, and reconciliation
// at purchase time only ever moves the charge DOWN to the exact price.

import (
	"context"
	"math"
	"sync"

	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
)

// zApprox is the normal quantile behind the MaxError→sample-size rule
// (matching the ~95% confidence interval the estimator reports).
const zApprox = 1.96

// minApproxSample is the smallest sample the broker will price from:
// below this the variance estimate is meaningless.
const minApproxSample = 16

// EstimateInfo is the provenance block attached to a QuoteInfo served
// by the approximate path. Its presence marks the price as coming from
// the sampled machinery; Refined distinguishes entries the background
// refiner (or a purchase) has already upgraded to the exact price.
type EstimateInfo struct {
	// Approx is true for every estimate block (it keeps the JSON
	// self-describing when the block is embedded elsewhere).
	Approx bool `json:"approx"`
	// Point is the statistical point estimate of the exact price; the
	// served Price is the sound upper bound (Price ≥ exact ≥ 0).
	Point float64 `json:"point"`
	// CI is the ~95% confidence half-width around Point (one-sided gap
	// to the bound for the entropy functions).
	CI float64 `json:"ci"`
	// SampleFrac and SampleN report the realized sample.
	SampleFrac float64 `json:"sample_frac"`
	SampleN    int     `json:"sample_n"`
	// MaxError is the request's PriceRequest.MaxError, the error target
	// this quote was served under (0 on a degraded exact request).
	MaxError float64 `json:"max_error"`
	// Refined is true once the entry has been upgraded to the exact
	// price — the served Price then IS exact and CI is 0.
	Refined bool `json:"refined"`
	// Degraded marks a quote priced while part of the shard cluster was
	// unreachable: the missing slices were charged at their upper bound
	// (DESIGN.md §14), so the served Price is still ≥ the exact price.
	// MissingFrac is the fraction of support-set elements whose slice
	// did not answer. Both clear once the entry refines to exact.
	Degraded    bool    `json:"degraded,omitempty"`
	MissingFrac float64 `json:"missing_frac,omitempty"`
}

// approxEntry is one cached approximate quote ("a|" keys, KindApprox).
// The refiner upgrades it in place: same key, refined=true, exact set.
// Degraded entries (degraded.go) share the key space deliberately: the
// purchase-time reconcile and the refiner treat an outage-priced quote
// exactly like a sampled one — an upper bound waiting to settle exact.
type approxEntry struct {
	est      pricing.Estimate
	stats    pricing.Stats
	refined  bool
	exact    float64
	degraded bool
	missing  float64 // fraction of elements in unreachable slices
}

// fracForMaxError converts a target relative standard error into a
// sample fraction over a support set of n elements: a binomial-worst-
// case m = z²/(4·maxErr²) keeps the point estimate's relative standard
// error near maxErr. Returns 1 when the sample would cover the whole
// set — the caller then uses the exact path (which IS the frac=1
// estimate). MaxError bounds the POINT estimate's error; the served
// price is the deterministic upper bound regardless.
func fracForMaxError(maxErr float64, n int) float64 {
	if n <= 0 || maxErr <= 0 {
		return 1
	}
	m := int(math.Ceil(zApprox * zApprox / (4 * maxErr * maxErr)))
	if m < minApproxSample {
		m = minApproxSample
	}
	if m >= n {
		return 1
	}
	return float64(m) / float64(n)
}

// estimate serves one upper-bound quote from its "a|" entry: a cache hit
// (refined entries serve the exact price), or a sweep over a mask — the
// sample at fraction frac, or with degraded set the slices a partial
// shard fan-out reached — folded into an estimate. Entries not yet
// refined are handed to the background refiner. Callers hold mu.RLock.
func (b *Broker) estimate(ctx context.Context, fn PricingFunc, qs []*exec.Query, maxErr, frac float64, degraded bool) (QuoteInfo, error) {
	key := b.key(quoteKey{fn: fn, approx: true, qs: qs})
	spec := SweepSpec{Bundle: true, SupportGen: b.supportGen}
	if !degraded {
		b.obs.Add("approx_quotes", 1)
		spec.SampleFrac, spec.SampleSeed = frac, b.seed
	}
	compute := func() (any, error) {
		out, mask, err := b.sweep(ctx, sweepReq{qs: qs, hashes: hashed(fn), spec: spec, degraded: degraded})
		if err != nil {
			return nil, err
		}
		est, err := b.fold(fn, out[0], mask)
		if err != nil {
			return nil, err
		}
		ent := approxEntry{est: est, stats: out[0].stats, degraded: degraded}
		if degraded {
			ent.missing = missingFrac(mask)
		}
		return ent, nil
	}
	v, cached, err := b.cached(ctx, key, compute)
	if err != nil {
		return QuoteInfo{}, err
	}
	ent := v.(approxEntry)
	// A cached unrefined entry sampled more coarsely than this request
	// asks for would under-deliver precision: recompute at the finer
	// fraction and overwrite (the refined exact price beats any sample,
	// so refined entries always serve).
	if !degraded && cached && !ent.refined && ent.est.SampleFrac < frac-1e-12 {
		v, err := compute()
		if err != nil {
			return QuoteInfo{}, err
		}
		ent = v.(approxEntry)
		if b.qc != nil {
			b.qc.Put(key, ent)
		}
		cached = false
	}
	// Arm the refiner for a fresh entry, and on every serve of a
	// degraded one: it must not outlive the outage, the upgrade to exact
	// only succeeds once the cluster heals, and a failed attempt is
	// dropped, not requeued.
	if !ent.refined && (degraded || !cached || ent.degraded) {
		b.enqueueRefine(key, fn, sqlsOf(qs))
	}
	return b.approxInfo(ent, cached, maxErr), nil
}

// approxInfo builds the QuoteInfo served from an "a|" entry, counting
// degraded serves. Refined entries serve the exact price with the
// degraded provenance cleared: once the exact price is known, the
// outage it was quoted under no longer taints the answer.
func (b *Broker) approxInfo(ent approxEntry, cached bool, maxErr float64) QuoteInfo {
	info := QuoteInfo{Stats: ent.stats, Cached: cached, Estimate: &EstimateInfo{
		Approx:     true,
		Point:      ent.est.Point,
		CI:         ent.est.CI,
		SampleFrac: ent.est.SampleFrac,
		SampleN:    ent.est.SampleN,
		MaxError:   maxErr,
		Refined:    ent.refined,
	}}
	if ent.refined {
		info.Price = ent.exact
		info.Estimate.Point = ent.exact
		info.Estimate.CI = 0
		return info
	}
	info.Price = ent.est.Price
	if ent.degraded {
		info.Estimate.Degraded = true
		info.Estimate.MissingFrac = ent.missing
		b.obs.Add("router_degraded_quotes", 1)
	}
	return info
}

// ---------------------------------------------------------------------
// Background refiner
// ---------------------------------------------------------------------

// refineQueueLen bounds the refine backlog; beyond it jobs are dropped
// (counted) rather than blocking the serving path. A dropped refinement
// costs nothing but freshness: the entry still reconciles at purchase.
const refineQueueLen = 256

type refineJob struct {
	key  string
	fn   PricingFunc
	sqls []string
}

// refiner is the lazily-started background goroutine that upgrades
// cached approximate entries to exact prices.
type refiner struct {
	once sync.Once
	ch   chan refineJob
	quit chan struct{}
	wg   sync.WaitGroup
}

// enqueueRefine hands a freshly computed approximate entry to the
// refiner, starting it on first use. Never blocks: a full queue drops
// the job and bumps approx_refine_dropped.
func (b *Broker) enqueueRefine(key string, fn PricingFunc, sqls []string) {
	b.ref.once.Do(func() {
		b.ref.ch = make(chan refineJob, refineQueueLen)
		b.ref.quit = make(chan struct{})
		b.ref.wg.Add(1)
		go b.refineLoop()
	})
	select {
	case b.ref.ch <- refineJob{key: key, fn: fn, sqls: sqls}:
	case <-b.ref.quit:
	default:
		b.obs.Add("approx_refine_dropped", 1)
	}
}

// stopRefiner shuts the refine goroutine down (idempotent; safe when it
// never started). Called from Broker.Close.
func (b *Broker) stopRefiner() {
	b.ref.once.Do(func() {
		// Never started: claim the once so a post-Close enqueue cannot
		// spawn a loop against a closed broker.
		b.ref.ch = make(chan refineJob, 1)
		b.ref.quit = make(chan struct{})
	})
	select {
	case <-b.ref.quit:
		return // already stopped
	default:
	}
	close(b.ref.quit)
	b.ref.wg.Wait()
}

func (b *Broker) refineLoop() {
	defer b.ref.wg.Done()
	for {
		select {
		case <-b.ref.quit:
			return
		case job := <-b.ref.ch:
			b.refineOne(job)
		}
	}
}

// refineOne recomputes one quote exactly and upgrades the cached "a|"
// entry in place. The job's key embeds the generation/version/epoch the
// estimate was computed under, so a configuration change between
// enqueue and refine makes the Get miss (resamples invalidate the
// cache) or touches an entry no live key can reach — never a wrong
// serve. The exact computation goes through the normal quote path, so
// it also warms the exact ("d|"/"e|"/template) entries for free.
func (b *Broker) refineOne(job refineJob) {
	if b.qc == nil {
		return
	}
	ctx := context.Background()
	qs, err := b.compileAll(job.sqls)
	if err != nil {
		b.obs.Add("approx_refine_errors", 1)
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	info, err := b.exact(ctx, quoteKey{fn: job.fn, qs: qs})
	if err != nil {
		b.obs.Add("approx_refine_errors", 1)
		return
	}
	if v, ok := b.qc.Get(job.key); ok {
		ent := v.(approxEntry)
		if !ent.refined {
			ent.refined = true
			ent.exact = info.Price
			b.qc.Put(job.key, ent)
			b.obs.Add("approx_refined", 1)
		}
	}
}

// markRefined upgrades the "a|" entry for qs (if present and current)
// with an exact price learned as a by-product — purchases compute exact
// disagreements anyway, so they refine the quote for free. Callers hold
// mu.RLock. Returns the quoted estimate the entry was serving before
// the upgrade and whether an unrefined approximate quote existed.
func (b *Broker) markRefined(fn PricingFunc, qs []*exec.Query, exact float64) (quoted float64, wasApprox bool) {
	if b.qc == nil {
		return 0, false
	}
	key := b.key(quoteKey{fn: fn, approx: true, qs: qs})
	v, ok := b.qc.Get(key)
	if !ok {
		return 0, false
	}
	ent := v.(approxEntry)
	if ent.refined {
		return ent.exact, true
	}
	quoted = ent.est.Price
	ent.refined = true
	ent.exact = exact
	b.qc.Put(key, ent)
	b.obs.Add("approx_refined", 1)
	return quoted, true
}
