package qirana

// Approximate fast-path pricing (ROADMAP item 2, DESIGN.md §13). A
// PriceRequest with MaxError > 0 — or any request while load shedding
// is active — is served from a deterministic stratified sub-sample of
// the support set instead of a full sweep:
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
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qirana/internal/obs"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
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
	// MaxError is the error target this quote was served under (after
	// any load-shedding floor).
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

// approxKey keys an approximate quote. Like entropyKey it embeds the
// pricing function, weights epoch, support generation and data versions
// — but NOT the sample fraction, so re-quotes at any error target and
// the purchase-time reconcile all find the same entry. Callers hold
// mu.RLock.
func (b *Broker) approxKey(fn PricingFunc, qs []*exec.Query) string {
	if len(qs) == 1 {
		suffix, _ := templateSuffix(qs[0].Stmt)
		return fmt.Sprintf("a|%d|%d|%d|%d|%s", int(fn), b.engine.WeightsEpoch(), b.supportGen, b.maxVersion(qs), suffix)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "a|%d|%d|%d|%d", int(fn), b.engine.WeightsEpoch(), b.supportGen, b.maxVersion(qs))
	for _, q := range qs {
		sb.WriteByte('\x01')
		sb.WriteString(ast.Fingerprint(q.Stmt))
	}
	return sb.String()
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

// approxQuoteLocked serves one approximate quote: cache hit (refined
// entries serve the exact price), or a sampled sweep at the fraction
// maxErr implies. A freshly computed entry is handed to the background
// refiner. Callers hold mu.RLock.
func (b *Broker) approxQuoteLocked(ctx context.Context, fn PricingFunc, qs []*exec.Query, maxErr float64) (QuoteInfo, error) {
	n := b.engine.Set.Size()
	frac := fracForMaxError(maxErr, n)
	if frac >= 1 {
		// The requested precision needs (nearly) the whole set: the
		// exact path is both cheaper to cache and strictly better.
		price, stats, cached, err := b.quoteLocked(ctx, fn, qs)
		if err != nil {
			return QuoteInfo{}, err
		}
		return QuoteInfo{Price: price, Stats: stats, Cached: cached, Estimate: &EstimateInfo{
			Approx: true, Point: price, SampleFrac: 1, SampleN: n, MaxError: maxErr, Refined: true,
		}}, nil
	}
	b.obs.Add("approx_quotes", 1)
	key := b.approxKey(fn, qs)
	compute := func() (any, error) {
		return b.approxSweepLocked(ctx, fn, qs, frac)
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
	if cached && !ent.refined && ent.est.SampleFrac < frac-1e-12 {
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
	if !cached && !ent.refined {
		b.enqueueRefine(key, fn, sqlsOf(qs))
	}
	if cached && ent.degraded && !ent.refined {
		// A degraded entry must not outlive the outage: re-arm the
		// refiner so a hit after the cluster heals upgrades it to exact.
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

// approxSweepLocked runs the sampled sweep — remotely through the shard
// fan-out when a sweeper is installed (every shard recomputes the same
// mask from the forwarded spec), locally in a sweep slot through the
// engine's live-mask machinery otherwise — and folds the sampled vector
// into the estimate. Callers hold mu.RLock.
func (b *Broker) approxSweepLocked(ctx context.Context, fn PricingFunc, qs []*exec.Query, frac float64) (approxEntry, error) {
	n := b.engine.Set.Size()
	mask := support.SampleMask(n, frac, b.seed, b.supportGen)
	rs := b.sweeper
	spec := SweepSpec{Bundle: true, SupportGen: b.supportGen, SampleFrac: frac, SampleSeed: b.seed}
	var ent approxEntry
	var err error
	switch fn {
	case WeightedCoverage, UniformEntropyGain:
		var dis []bool
		if rs != nil {
			var bits [][]bool
			var stats []Stats
			if bits, stats, err = rs.SweepBits(ctx, sqlsOf(qs), spec); err == nil {
				dis, ent.stats = bits[0], stats[0]
			}
		} else {
			err = b.localSweep(ctx, func() (err error) {
				dis, ent.stats, err = b.engine.DisagreementsLiveCtx(ctx, qs, mask)
				return err
			})
		}
		if err != nil {
			return approxEntry{}, err
		}
		ent.est, err = b.engine.EstimateFromSampledDisagreements(fn, dis, mask)
	case ShannonEntropy, QEntropy:
		var elems []uint64
		if rs != nil {
			var hashes [][]uint64
			var stats []Stats
			if hashes, stats, err = rs.SweepHashes(ctx, sqlsOf(qs), spec); err == nil {
				elems, ent.stats = hashes[0], stats[0]
			}
		} else {
			err = b.localSweep(ctx, func() (err error) {
				elems, _, ent.stats, err = b.engine.OutputHashesLiveCtx(ctx, qs, mask)
				return err
			})
		}
		if err != nil {
			return approxEntry{}, err
		}
		ent.est, err = b.engine.EstimateFromSampledHashes(fn, elems, mask)
	default:
		return approxEntry{}, fmt.Errorf("unknown pricing function %v", fn)
	}
	if err != nil {
		return approxEntry{}, err
	}
	return ent, nil
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
	price, _, _, err := b.quoteLocked(ctx, job.fn, qs)
	if err != nil {
		b.obs.Add("approx_refine_errors", 1)
		return
	}
	if v, ok := b.qc.Get(job.key); ok {
		ent := v.(approxEntry)
		if !ent.refined {
			ent.refined = true
			ent.exact = price
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
	key := b.approxKey(fn, qs)
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

// ---------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------

// shedFloors are the MaxError floors per shed level: level 0 is normal
// serving, each escalation coarsens the mandatory precision.
var shedFloors = [...]float64{0, 0.05, 0.1, 0.2}

// shedCheckEvery rate-limits the windowed p99 evaluation; between
// checks maybeShed is one atomic load.
const shedCheckEvery = 250 * time.Millisecond

// shedMinWindow is the minimum number of observations in a window
// before the p99 is trusted to move the level.
const shedMinWindow = 20

// shedState is the load-shedding state machine: a windowed p99 over the
// broker_price histogram drives a small hysteresis ladder.
type shedState struct {
	level     atomic.Int64
	lastCheck atomic.Int64 // unix nanos of the last window evaluation

	mu      sync.Mutex // guards prev + lastP99 (one evaluator at a time)
	prev    obs.HistCounts
	lastP99 time.Duration
}

// ShedInfo is the externally visible shed state (served in /stats).
type ShedInfo struct {
	// Target is Options.ShedTargetP99 (0 = shedding disabled).
	Target time.Duration `json:"target_p99_ns"`
	// Level is the current escalation level (0 = exact serving).
	Level int `json:"level"`
	// MinMaxError is the MaxError floor currently enforced on quotes.
	MinMaxError float64 `json:"min_max_error"`
	// LastP99 is the windowed p99 at the last evaluation.
	LastP99 time.Duration `json:"last_p99_ns"`
}

// ShedState reports the current load-shedding state.
func (b *Broker) ShedState() ShedInfo {
	lvl := int(b.shed.level.Load())
	b.shed.mu.Lock()
	last := b.shed.lastP99
	b.shed.mu.Unlock()
	return ShedInfo{
		Target:      b.opts.ShedTargetP99,
		Level:       lvl,
		MinMaxError: shedFloors[lvl],
		LastP99:     last,
	}
}

// maybeShed returns the MaxError floor currently in force, advancing
// the state machine at most once per shedCheckEvery. The fast path —
// shedding disabled, or between checks — is one or two atomic loads.
func (b *Broker) maybeShed() float64 {
	target := b.opts.ShedTargetP99
	if target <= 0 {
		return 0
	}
	now := time.Now().UnixNano()
	last := b.shed.lastCheck.Load()
	if now-last < int64(shedCheckEvery) || !b.shed.lastCheck.CompareAndSwap(last, now) {
		return shedFloors[b.shed.level.Load()]
	}
	b.shed.mu.Lock()
	defer b.shed.mu.Unlock()
	cur := b.obs.Histogram("broker_price").Counts()
	p99, ok := obs.QuantileBetween(b.shed.prev, cur, 0.99)
	window := cur.Count - b.shed.prev.Count
	b.shed.prev = cur
	if !ok || window < shedMinWindow {
		return shedFloors[b.shed.level.Load()]
	}
	b.shed.lastP99 = p99
	lvl := b.shed.level.Load()
	switch {
	case p99 > target && lvl < int64(len(shedFloors)-1):
		lvl++
		b.shed.level.Store(lvl)
		b.obs.Add("shed_escalations", 1)
	case p99 < target*3/4 && lvl > 0:
		lvl--
		b.shed.level.Store(lvl)
		b.obs.Add("shed_deescalations", 1)
	}
	return shedFloors[lvl]
}
