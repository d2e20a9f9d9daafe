// Package qirana is a query-based data pricing broker, a from-scratch Go
// reproduction of "QIRANA: A Framework for Scalable Query Pricing" (Deep &
// Koutris, SIGMOD 2017).
//
// A Broker sits between a data buyer and an (embedded, in-memory)
// relational database. For every SQL query it computes an arbitrage-free
// price: the price reflects how much the answer shrinks the buyer's space
// of possible databases, approximated by a support set of neighboring
// instances. Buyers with purchase history are only charged for new
// information (history-aware pricing), and the seller can pin the price of
// specific queries (price points) with the remaining weights fitted by
// entropy maximization.
//
// Quick start:
//
//	db := qirana.LoadDataset("world", 1, 0)
//	broker, _ := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 1000})
//	sql := "SELECT Name FROM Country WHERE Continent = 'Asia'"
//	quote, _ := broker.Price(context.Background(), qirana.PriceRequest{SQLs: []string{sql}})
//	rec, _ := broker.Purchase(context.Background(), qirana.PurchaseRequest{Buyer: "alice", SQL: sql})
//	_ = quote.Total   // the up-front price
//	_ = rec.Net       // what alice actually paid (history-aware)
package qirana

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"qirana/internal/datagen"
	"qirana/internal/obs"
	"qirana/internal/pricing"
	"qirana/internal/quotecache"
	"qirana/internal/result"
	"qirana/internal/schema"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Re-exported building blocks so downstream users never import internal
// packages directly.
type (
	// Database is an in-memory relational instance.
	Database = storage.Database
	// Table holds one relation's rows.
	Table = storage.Table
	// Schema describes the relations of a database.
	Schema = schema.Schema
	// Relation is one relation schema.
	Relation = schema.Relation
	// Attribute is one typed column.
	Attribute = schema.Attribute
	// Result is a query result set.
	Result = result.Result
	// History is a buyer's purchase bookkeeping.
	History = pricing.History
	// PricingFunc selects one of the four arbitrage-aware pricing
	// functions.
	PricingFunc = pricing.Func
	// Stats describes how one pricing computation was carried out.
	Stats = pricing.Stats
	// CacheStats reports the broker's quote-cache counters.
	CacheStats = quotecache.Stats
	// MetricsSnapshot is a point-in-time copy of the broker's operational
	// metrics (counters and latency percentiles); see Broker.Metrics.
	MetricsSnapshot = obs.Snapshot
)

// Value is a typed SQL value; rows are []Value.
type Value = value.Value

// Value constructors for building databases through the public API.
var (
	NewInt    = value.NewInt
	NewFloat  = value.NewFloat
	NewString = value.NewString
	NewBool   = value.NewBool
	NewDate   = value.NewDate
	Null      = value.Null
)

// Column type kinds for Attribute.Type.
const (
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
	KindBool   = value.KindBool
	KindDate   = value.KindDate
)

// The four pricing functions (paper §2.3). WeightedCoverage is the
// recommended default: strongly information-arbitrage-free, bundle
// arbitrage-free, customizable, and optimizable.
const (
	WeightedCoverage   = pricing.WeightedCoverage
	UniformEntropyGain = pricing.UniformEntropyGain
	ShannonEntropy     = pricing.ShannonEntropy
	QEntropy           = pricing.QEntropy
)

// NewDatabase creates an empty database over a schema (see NewSchema,
// NewRelation).
func NewDatabase(s *Schema) *Database { return storage.NewDatabase(s) }

// NewSchema builds a schema from relations.
func NewSchema(rels ...*Relation) (*Schema, error) { return schema.NewSchema(rels...) }

// NewRelation builds a relation schema; key lists the indexes of the
// primary-key attributes.
func NewRelation(name string, attrs []Attribute, key []int) (*Relation, error) {
	return schema.NewRelation(name, attrs, key)
}

// Options configures a Broker.
type Options struct {
	// SupportSetSize is |S| (default 1000). Larger sets give finer-grained
	// prices at proportionally higher pricing cost (paper Figure 4d).
	SupportSetSize int
	// SwapFraction is the fraction of swap updates among the support set's
	// neighboring instances (default 0.5, the paper's 1:1 ratio; §5.1).
	SwapFraction float64
	// Seed makes the support set deterministic.
	Seed int64
	// UniformSupport selects random-uniform instances instead of the
	// random neighborhood. The paper shows this prices poorly (Figure 2);
	// it exists for completeness and experiments.
	UniformSupport bool
	// Func is the default pricing function of Price (default
	// WeightedCoverage).
	Func PricingFunc
	// Workers > 1 parallelizes pricing — the batched disagreement checks
	// and the naive per-element evaluations — across goroutines sharing
	// the read-only database through copy-on-write overlays (clamped to
	// GOMAXPROCS). Prices and statistics are bit-identical to Workers=1.
	Workers int
	// QuoteCacheSize bounds the broker's cross-query quote cache in
	// entries. 0 selects the default (1024); QuoteCacheDisabled (-1)
	// disables caching and request coalescing entirely. Other negative
	// values are rejected by Validate.
	QuoteCacheSize int
	// DataDir, when non-empty, makes broker state durable: every
	// purchase is write-ahead-logged (and fsynced) to a checksummed
	// ledger in this directory BEFORE the buyer is charged, and atomic
	// snapshots bundle the support set, entropy weights and buyer
	// histories. OpenBroker recovers the directory after a crash to
	// bit-identical prices and balances. Empty (the default) keeps the
	// broker purely in memory with zero durability overhead.
	DataDir string
	// ShedTargetP99, when positive, turns on load shedding: the broker
	// watches a sliding window of its own quote latency (the
	// broker_price obs histogram) and when the windowed p99 crosses the
	// target it starts degrading precision — enforcing a growing floor
	// on PriceRequest.MaxError so quotes switch to the sampled
	// approximate path (see approx.go). The floor escalates while the
	// p99 stays above target and backs off when latency recovers below
	// 3/4 of it. Zero (the default) never degrades. Exactness-critical
	// callers are unaffected: Purchase always settles at the exact
	// price, and shed state is reported in ShedState()/stats.
	ShedTargetP99 time.Duration
	// DisableDegradedQuotes turns off degraded-mode serving. By default
	// a routed broker whose shard cluster is partially unreachable past
	// the fan-out's retry budget answers Price with a sound over-quote —
	// the dead slices priced at their upper bound, with degraded
	// provenance (see degraded.go / DESIGN.md §14) — instead of failing
	// 503. Set true to restore all-or-nothing quoting. Purchases are
	// unaffected either way: charging always requires the exact sweep.
	DisableDegradedQuotes bool
}

// defaultQuoteCacheSize is the quote-cache capacity when Options leaves
// QuoteCacheSize at zero.
const defaultQuoteCacheSize = 1024

// QuoteCacheDisabled is the QuoteCacheSize sentinel that turns the quote
// cache (and request coalescing) off entirely.
const QuoteCacheDisabled = -1

// Validate checks the options for values that cannot mean anything
// sensible, returning a descriptive error instead of letting the broker
// silently reinterpret them. Zero values remain "use the default"
// (SupportSetSize 1000, SwapFraction 0.5, serial workers, 1024-entry
// quote cache); Workers beyond GOMAXPROCS is valid and documented to
// clamp.
func (o Options) Validate() error {
	if o.SupportSetSize < 0 {
		return fmt.Errorf("options: SupportSetSize %d is negative; use 0 for the default (1000)", o.SupportSetSize)
	}
	if o.SwapFraction < 0 || o.SwapFraction > 1 {
		return fmt.Errorf("options: SwapFraction %g is outside [0, 1]; use 0 for the default (0.5)", o.SwapFraction)
	}
	if o.Workers < 0 {
		return fmt.Errorf("options: Workers %d is negative; use 0 or 1 for serial pricing", o.Workers)
	}
	if o.QuoteCacheSize < QuoteCacheDisabled {
		return fmt.Errorf("options: QuoteCacheSize %d is invalid; use 0 for the default (%d) or %d (QuoteCacheDisabled) to disable caching",
			o.QuoteCacheSize, defaultQuoteCacheSize, QuoteCacheDisabled)
	}
	if o.DataDir != "" && o.UniformSupport {
		return fmt.Errorf("options: DataDir requires a neighborhood support set; uniform support sets (materialized instances) are not persistable")
	}
	if o.ShedTargetP99 < 0 {
		return fmt.Errorf("options: ShedTargetP99 %v is negative; use 0 to disable load shedding", o.ShedTargetP99)
	}
	return nil
}

// Broker is the pricing middleware between buyers and a database — a
// concurrent quoting frontend. All methods are safe for concurrent use,
// and read-only quoting scales with cores instead of serializing:
//
//   - Quotes are cached across queries AND buyers under a canonical
//     fingerprint of the normalized AST (case, quoting, commutative
//     predicate order), so syntactic variants of one query share an
//     entry. Cache keys embed every input the price depends on (pricing
//     function, weights epoch, support-set generation, the referenced
//     relations' version counters), making served entries valid by
//     construction; nothing is ever served stale.
//   - Concurrent misses on the same key coalesce: one caller computes,
//     the rest wait and share the result bit-for-bit (singleflight).
//   - Distinct cold quotes sweep concurrently, up to GOMAXPROCS at once
//     (the sweep semaphore), each parallelizing internally per
//     Options.Workers; a sweep is a pure function of the read-only engine
//     state and returns its own Stats. Warm quotes bypass the engine
//     entirely and only touch the cache and the (read-locked) weight
//     vector.
//   - Buyer histories lock per buyer, so purchases by different buyers
//     never contend.
//
// Cached, coalesced and batched paths return bit-identical prices to a
// cold serial computation. The database itself is never mutated by
// pricing (support elements evaluate over copy-on-write overlays);
// mutating it outside the broker must not race with broker calls.
type Broker struct {
	// mu guards the broker configuration: the engine pointer and its
	// weight vector, fn, opts, seed, total and supportGen. Quoting paths
	// hold it read-locked; resampling and weight fitting write-lock it.
	mu     sync.RWMutex
	db     *storage.Database
	engine *pricing.Engine
	fn     pricing.Func
	seed   int64
	opts   Options
	total  float64

	// sweepSlots is the sweep semaphore: GOMAXPROCS slots, sized at
	// construction, one taken by every local cold sweep (foreground
	// quotes, batch misses, shard slices, approximate sweeps and the
	// refiner) for its duration, waited for under the caller's ctx.
	// Taken after mu, never the other way around; its length is the
	// number of sweeps in flight. See localSweep.
	sweepSlots chan struct{}

	// qc is the cross-query quote cache (nil when disabled). supportGen
	// counts resamples; keys embed it so a resample orphans every entry.
	// supportSum is the support set's content checksum (support.Set
	// Checksum), recomputed whenever the engine's set changes — cluster
	// nodes exchange it to prove they price against identical sets.
	qc         *quotecache.Cache
	supportGen uint64
	supportSum uint64

	// sweeper, when non-nil, replaces the local cold support-set sweep
	// with a remote fan-out (the shard router). Cache keys, purchase
	// folds and served prices are unchanged — only who walks the support
	// set differs. See cluster.go.
	sweeper RemoteSweeper

	// readOnly refuses every state mutation (purchases, weight refits,
	// checkpoints): the mode of shard workers and un-promoted standbys,
	// which serve quotes but must never fork the cluster's buyer ledger.
	readOnly bool

	// obs is the broker's metrics registry (never nil): request counters,
	// serving latency histograms and the engine's per-stage timers all
	// land here; Metrics snapshots it and qiranad serves it.
	obs *obs.Registry

	buyersMu sync.Mutex
	buyers   map[string]*buyerState

	// dur is the durability layer (nil for in-memory brokers): the
	// write-ahead purchase ledger plus snapshot bookkeeping under
	// Options.DataDir. See durability.go.
	dur *durableState

	// ref is the background refiner that upgrades cached approximate
	// quotes to exact prices; shed tracks the load-shedding state
	// machine behind Options.ShedTargetP99. Both live in approx.go.
	ref  refiner
	shed shedState
}

// buyerState is one buyer's purchase history behind its own lock, so
// concurrent purchases only contend per buyer.
type buyerState struct {
	mu sync.Mutex
	h  *pricing.History
}

// NewBroker creates a broker selling db for totalPrice. Invalid options
// are rejected with a descriptive error (see Options.Validate) instead of
// being silently reinterpreted.
func NewBroker(db *Database, totalPrice float64, opt Options) (*Broker, error) {
	if totalPrice <= 0 {
		return nil, fmt.Errorf("total price must be positive, got %g", totalPrice)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.SupportSetSize == 0 {
		opt.SupportSetSize = 1000
	}
	if opt.SwapFraction == 0 {
		opt.SwapFraction = 0.5
	}
	b := newBroker(db, totalPrice, opt)
	if err := b.resample(opt.Seed); err != nil {
		return nil, err
	}
	if opt.DataDir != "" {
		if err := b.initDurability(opt.DataDir); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// newBroker builds the broker shell every constructor shares: the
// configuration, quote cache, metrics registry and sweep semaphore. The
// caller installs the engine (installEngine).
func newBroker(db *Database, total float64, opt Options) *Broker {
	b := &Broker{db: db, fn: opt.Func, buyers: make(map[string]*buyerState),
		seed: opt.Seed, opts: opt, total: total, qc: newQuoteCache(opt), obs: obs.New(),
		sweepSlots: make(chan struct{}, runtime.GOMAXPROCS(0))}
	if b.qc != nil {
		b.qc.AttachObs(b.obs)
	}
	return b
}

// installEngine prices over set from now on: a fresh engine configured
// from the broker's options, and the set's checksum.
func (b *Broker) installEngine(set *support.Set) {
	b.engine = pricing.NewEngine(b.db, set, b.total)
	b.engine.Opts.Workers = b.opts.Workers
	b.engine.Obs = b.obs
	b.supportSum = set.Checksum()
}

func newQuoteCache(opt Options) *quotecache.Cache {
	if opt.QuoteCacheSize < 0 {
		return nil
	}
	size := opt.QuoteCacheSize
	if size == 0 {
		size = defaultQuoteCacheSize
	}
	return quotecache.New(size)
}

// resample regenerates the support set (used at construction and when
// price-point fitting reports infeasibility). Callers hold mu exclusively
// (or the broker is not yet shared).
func (b *Broker) resample(seed int64) error {
	cfg := support.Config{Size: b.opts.SupportSetSize, SwapFraction: b.opts.SwapFraction, Seed: seed}
	var set *support.Set
	var err error
	if b.opts.UniformSupport {
		set, err = support.GenerateUniform(b.db, cfg)
	} else {
		set, err = support.GenerateNeighborhood(b.db, cfg)
	}
	if err != nil {
		return fmt.Errorf("generate support set: %w", err)
	}
	b.installEngine(set)
	// A new support set means new prices: bump the generation so every
	// cached quote key goes dead, and drop the dead entries eagerly.
	b.supportGen++
	if b.qc != nil {
		b.qc.Invalidate()
	}
	// Existing buyer histories refer to the old support set; they must be
	// preserved in spirit but the bitmap indexes new elements. Resampling
	// only happens before selling starts (price-point setup), so reject it
	// afterwards.
	b.buyersMu.Lock()
	n := len(b.buyers)
	b.buyersMu.Unlock()
	if n > 0 {
		return fmt.Errorf("cannot resample the support set after purchases began")
	}
	return nil
}

// Compile parses and validates a query against the broker's schema.
// Statements with $N placeholders are rejected: they are templates, not
// runnable queries — prepare them with Prepare and bind parameters per
// call.
func (b *Broker) Compile(sql string) (*exec.Query, error) {
	q, err := exec.Compile(sql, b.db.Schema)
	if err != nil {
		return nil, err
	}
	if n := ast.MaxPlaceholder(q.Stmt); n > 0 {
		return nil, fmt.Errorf("query contains placeholder $%d; prepare it with Broker.Prepare and bind parameters with Stmt.Price", n)
	}
	return q, nil
}

// cached runs compute through the quote cache's singleflight (or directly
// when caching is disabled). The second return reports provenance: true
// when the value came from the cache or another caller's flight, false
// when THIS call computed it. ctx governs only this caller's wait — a
// cancelled leader never poisons the cache and never fails a live
// follower (quotecache.Do's contract).
func (b *Broker) cached(ctx context.Context, key string, compute func() (any, error)) (any, bool, error) {
	if b.qc == nil {
		v, err := compute()
		return v, false, err
	}
	computed := false
	v, err := b.qc.Do(ctx, key, func() (any, error) {
		computed = true
		return compute()
	})
	return v, !computed, err
}

// exactEntry returns the bundle's exact cache entry under k, from the
// cache when possible (the bool reports provenance): the full,
// history-oblivious disagreement bitmap for a bit-derived k.fn, the
// folded price for an entropy. Callers hold mu.RLock.
func (b *Broker) exactEntry(ctx context.Context, k quoteKey) (vector, bool, error) {
	v, cached, err := b.cached(ctx, b.key(k), func() (any, error) {
		out, _, err := b.sweep(ctx, sweepReq{qs: k.qs, hashes: hashed(k.fn), spec: SweepSpec{Bundle: true, SupportGen: b.supportGen}})
		if err != nil {
			return nil, err
		}
		return b.entry(k.fn, out[0])
	})
	if err != nil {
		return vector{}, false, err
	}
	return v.(vector), cached, nil
}

// entry is what the cache keeps of an exact sweep output under fn: the
// bitmap itself (weight-independent, folded on every serve), or for the
// entropies the folded price alone.
func (b *Broker) entry(fn PricingFunc, v vector) (vector, error) {
	if !hashed(fn) {
		return v, nil
	}
	est, err := b.fold(fn, v, nil)
	return vector{price: est.Price, stats: v.stats}, err
}

// served is the quote an exact entry serves under fn: the cached price,
// or the fold of the bitmap under the current weights — the summation
// the cold path performs, so warm and cold prices are bit-identical.
func (b *Broker) served(fn PricingFunc, v vector, cached bool) (QuoteInfo, error) {
	info := QuoteInfo{Price: v.price, Stats: v.stats, Cached: cached}
	if hashed(fn) {
		return info, nil
	}
	est, err := b.fold(fn, v, nil)
	info.Price = est.Price
	return info, err
}

// exact prices a compiled bundle exactly under k (a prepared
// statement's key carries its precomputed template), reporting the
// stats of the cold computation and whether it was served from the
// cache. Callers hold mu.RLock.
func (b *Broker) exact(ctx context.Context, k quoteKey) (QuoteInfo, error) {
	v, cached, err := b.exactEntry(ctx, k)
	if err != nil {
		return QuoteInfo{}, err
	}
	return b.served(k.fn, v, cached)
}

// sqlsOf extracts the original SQL texts of a compiled bundle (the wire
// form the shard sweep protocol ships).
func sqlsOf(qs []*exec.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL
	}
	return out
}

// batchEntries resolves one cache entry per query: hits from the LRU,
// in-batch duplicates folded onto one computation, and the remaining
// misses computed together by the shared ctx-aware sweep and inserted via
// Put. The returned bool slice aligns with qs and reports per-entry
// provenance: true when the entry came from the cache (duplicates inherit
// the provenance of the slot that resolved their key).
func batchEntries[E any](ctx context.Context, b *Broker, qs []*exec.Query, keyOf func([]*exec.Query) string, sweep func(context.Context, []*exec.Query) ([]E, error)) ([]E, []bool, error) {
	entries := make([]E, len(qs))
	cached := make([]bool, len(qs))
	keys := make([]string, len(qs))
	slot := make(map[string]int, len(qs)) // key → entries index of its computation
	var missIdx []int
	for j, q := range qs {
		keys[j] = keyOf([]*exec.Query{q})
		if _, dup := slot[keys[j]]; dup {
			continue
		}
		if b.qc != nil {
			if v, ok := b.qc.Get(keys[j]); ok {
				entries[j] = v.(E)
				cached[j] = true
				slot[keys[j]] = j
				continue
			}
		}
		slot[keys[j]] = j
		missIdx = append(missIdx, j)
	}
	if len(missIdx) > 0 {
		miss := make([]*exec.Query, len(missIdx))
		for x, j := range missIdx {
			miss[x] = qs[j]
		}
		out, err := sweep(ctx, miss)
		if err != nil {
			return nil, nil, err
		}
		for x, j := range missIdx {
			entries[j] = out[x]
			if b.qc != nil {
				b.qc.Put(keys[j], entries[j])
			}
		}
	}
	for j := range qs {
		if k := slot[keys[j]]; k != j {
			entries[j] = entries[k]
			cached[j] = cached[k]
		}
	}
	return entries, cached, nil
}

// Buyer returns (creating if needed) the purchase history of a buyer
// account.
func (b *Broker) Buyer(name string) *History {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.buyerState(name).h
}

// buyerState returns (creating if needed) a buyer's locked history.
// Callers hold mu.RLock (the history size comes from the engine).
func (b *Broker) buyerState(name string) *buyerState {
	b.buyersMu.Lock()
	defer b.buyersMu.Unlock()
	bs, ok := b.buyers[name]
	if !ok {
		bs = &buyerState{h: pricing.NewHistory(b.engine.Set.Size())}
		b.buyers[name] = bs
	}
	return bs
}

// SaveSupportSet persists the broker's support set (the paper stores the
// update/undo statements in database tables; we write JSON). A broker
// reopened over the same database can reload it with
// Options-independent NewBrokerFromSupport, keeping prices stable across
// restarts.
func (b *Broker) SaveSupportSet(w io.Writer) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.engine.Set.Save(w)
}

// NewBrokerFromSupport opens a broker whose support set is loaded from r
// instead of freshly sampled; the set must have been saved against the
// same database instance.
func NewBrokerFromSupport(db *Database, totalPrice float64, r io.Reader, opt Options) (*Broker, error) {
	if totalPrice <= 0 {
		return nil, fmt.Errorf("total price must be positive, got %g", totalPrice)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	set, err := support.Load(r, db)
	if err != nil {
		return nil, err
	}
	b := newBroker(db, totalPrice, opt)
	b.installEngine(set)
	b.supportGen = 1
	if opt.DataDir != "" {
		if err := b.initDurability(opt.DataDir); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Metrics returns a point-in-time snapshot of the broker's operational
// metrics: request/outcome counters, cache counters, and latency
// histograms (p50/p95/p99) for the serving endpoints and the engine's
// pricing stages.
func (b *Broker) Metrics() MetricsSnapshot { return b.obs.Snapshot() }

// PublishExpvar exposes the broker's metrics registry as an expvar
// variable under name (rebinding the name if it is already published), so
// /debug/vars serves a live JSON snapshot.
func (b *Broker) PublishExpvar(name string) { b.obs.PublishExpvar(name) }

// PricePoint pins the weighted-coverage price of a query (paper §3.3).
type PricePoint struct {
	SQL   string
	Price float64
}

// SetPricePoints fits the support-set weights to the seller's price
// points by entropy maximization. On infeasibility it resamples and then
// enlarges the support set before giving up, as §3.3 prescribes.
func (b *Broker) SetPricePoints(points []PricePoint) error {
	pts := make([]pricing.PricePoint, len(points))
	for i, p := range points {
		q, err := b.Compile(p.SQL)
		if err != nil {
			return fmt.Errorf("price point %d: %w", i, err)
		}
		pts[i] = pricing.PricePoint{Query: q, Price: p.Price}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readOnly {
		return ErrReadOnly
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if lastErr = b.engine.FitWeights(pts); lastErr == nil {
			// Fitted weights (and a possibly-resampled support set) must
			// be durable before purchases are logged against them.
			if b.dur != nil {
				return b.checkpointLocked()
			}
			return nil
		}
		// Resample, then grow: a larger support set can separate the
		// conflict sets of contradictory-looking price points.
		seed := b.seed + int64(attempt) + 101
		if attempt == 1 {
			b.opts.SupportSetSize *= 2
		}
		if err := b.resample(seed); err != nil {
			return err
		}
	}
	return lastErr
}

// TotalPaid reports how much the buyer has paid so far.
func (b *Broker) TotalPaid(buyer string) float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	bs := b.buyerState(buyer)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.h.Paid
}

// TotalPrice returns the full-dataset price.
func (b *Broker) TotalPrice() float64 { return b.total }

// Run executes a query without pricing (seller-side inspection).
func (b *Broker) Run(sql string) (*Result, error) {
	q, err := b.Compile(sql)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return q.Run(b.db)
}

// SetWeights installs seller-customized support-set weights (they must
// sum to the total price), atomically invalidating every cached quote
// that depends on the old vector.
func (b *Broker) SetWeights(w []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readOnly {
		return ErrReadOnly
	}
	if err := b.engine.SetWeights(w); err != nil {
		return err
	}
	// Weight changes must reach disk before any purchase is logged under
	// the new epoch: the ledger's records only replay against the epoch
	// their snapshot holds.
	if b.dur != nil {
		return b.checkpointLocked()
	}
	return nil
}

// QuoteCacheStats reports the quote cache's hit/miss/coalescing counters
// (all zero when the cache is disabled).
func (b *Broker) QuoteCacheStats() CacheStats {
	if b.qc == nil {
		return CacheStats{}
	}
	return b.qc.Stats()
}

// QuoteCacheLen returns the number of cached quote entries.
func (b *Broker) QuoteCacheLen() int {
	if b.qc == nil {
		return 0
	}
	return b.qc.Len()
}

// SupportSetSize returns |S|.
func (b *Broker) SupportSetSize() int { return b.engine.Set.Size() }

// LoadDataset builds one of the paper's benchmark datasets:
// "world", "carcrash", "dblp", "tpch" or "ssb". scale is the dataset's
// scale knob (rows for carcrash, scale factor for the others); pass 0 for
// a small default suitable for interactive use.
func LoadDataset(name string, seed int64, scale float64) (*Database, error) {
	switch strings.ToLower(name) {
	case "world":
		return datagen.World(seed), nil
	case "carcrash":
		rows := int(scale)
		if scale == 0 {
			rows = 10000
		}
		return datagen.CarCrash(seed, rows), nil
	case "dblp":
		if scale == 0 {
			scale = 0.01
		}
		return datagen.DBLP(seed, scale), nil
	case "tpch":
		if scale == 0 {
			scale = 0.01
		}
		return datagen.TPCH(seed, scale), nil
	case "ssb":
		if scale == 0 {
			scale = 0.01
		}
		return datagen.SSB(seed, scale), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want world, carcrash, dblp, tpch or ssb)", name)
}
