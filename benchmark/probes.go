package main

// probes.go is the only file of the benchmark that calls into the
// program under test; everything else talks to it over a socket. A
// change that moves or renames one of the symbols below must be preceded
// by a benchmark change that moves the probe, so this list is the
// surface a refactor has to keep or consciously break. It names 35
// functions and methods, 16 of them on the root package. The issue
// hoped for 15; its own per-layer table (the bare engine's sweep and
// fold, a cache probe, direct slice sweeps, a sharded twin wired through
// the program's seams) cannot be measured from outside with fewer.
//
//	qirana.LoadDataset                       storage.load_s; twin data
//	qirana.NewBroker, qirana.OpenBroker      twins (in-memory, WAL-backed)
//	(*Broker).Price, (*Broker).Purchase      rung 2, the direct call
//	(*Broker).Prepare, (*Stmt).Price         rung 2 for prepared requests
//	(*Broker).Compile                        parser.compile_*, parser.allocs_per_op
//	ast.NewTemplate, (*Template).ParamKey    parser.fingerprint_us_per_op
//	(*Broker).Run                            exec.run_us_per_op
//	(*Broker).SweepSlice                     shard.rpc_overhead_us_per_op
//	(*Broker).SetRemoteSweeper               the RemoteSweeper seam
//	(*Broker).SupportGen, SupportChecksum, SupportSetSize
//	(*Broker).Metrics, (*Broker).Close       refiner quiescence, WAL counters
//	httpapi.New                              rungs 0 and 1, the http.Handler seam
//	support.GenerateNeighborhood             support.generate_s
//	support.SampleMask                       the sampled sweep's mask
//	pricing.NewEngine                        a bare sweep engine, and on it
//	  (*Engine).DisagreementsCtx, OutputHashesCtx          pricing.sweep_*
//	  (*Engine).PriceFromDisagreements, EntropyPriceFromHashes  pricing.fold_*
//	  (*Engine).ApproxPriceCtx                              sampled quotes
//	quotecache.New, (*Cache).Do              quotecache.lookup_us_per_op
//	shard.NewShardBrokers, StartLocal, Connect, Assign,
//	  (*Fanout).SweepBits, SweepHashes       the sharded twin

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"qirana"
	"qirana/internal/httpapi"
	"qirana/internal/pricing"
	"qirana/internal/quotecache"
	"qirana/internal/shard"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// totalPrice is the daemons' default -price.
const totalPrice = 100

// twin is an in-process broker built exactly as the workload's daemon
// builds its own: same dataset, data seed, support-set size and options.
type twin struct {
	w       *workload
	db      *qirana.Database
	b       *qirana.Broker
	stmts   []*qirana.Stmt
	cluster *shard.Cluster // sharded twins only
	// refines counts the approximate quotes this twin has computed, each
	// of which queued one background refinement.
	refines uint64
}

func loadDataset(w *workload) (*qirana.Database, error) {
	return qirana.LoadDataset(w.dataset, 1, w.scale)
}

func brokerOptions(w *workload) qirana.Options {
	return qirana.Options{SupportSetSize: w.support, Seed: 1}
}

// newTwin builds a single-node twin; dataDir != "" makes it WAL-backed.
func newTwin(w *workload, dataDir string) (*twin, error) {
	db, err := loadDataset(w)
	if err != nil {
		return nil, err
	}
	var b *qirana.Broker
	if dataDir != "" {
		b, err = qirana.OpenBroker(dataDir, db, totalPrice, brokerOptions(w))
	} else {
		b, err = qirana.NewBroker(db, totalPrice, brokerOptions(w))
	}
	if err != nil {
		return nil, err
	}
	t := &twin{w: w, db: db, b: b}
	for _, sql := range w.templates {
		st, err := b.Prepare(context.Background(), sql)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("twin prepare %q: %w", sql, err)
		}
		t.stmts = append(t.stmts, st)
	}
	return t, nil
}

// shardTwin turns t into the front of w.shards in-process shard workers,
// as qirouter -cluster does, but through the two seams the program
// exposes: rt carries the shard RPCs (so they can be counted and timed)
// and wrap decorates the fan-out before the broker gets it.
func (t *twin) shardTwin(rt http.RoundTripper, wrap func(qirana.RemoteSweeper) qirana.RemoteSweeper) error {
	brokers, err := shard.NewShardBrokers(t.b, t.db, t.w.shards, brokerOptions(t.w))
	if err != nil {
		return err
	}
	cl, err := shard.StartLocal(brokers)
	if err != nil {
		return err
	}
	f, err := shard.Connect(context.Background(), cl.URLs, &http.Client{Transport: rt})
	if err != nil {
		cl.Close()
		return err
	}
	t.cluster = cl
	// Installing the fan-out first wires its counters into the broker's
	// registry; the decorator then takes its place.
	t.b.SetRemoteSweeper(f)
	t.b.SetRemoteSweeper(wrap(f))
	return nil
}

func (t *twin) close() {
	if t.cluster != nil {
		t.cluster.Close()
	}
	t.b.Close()
}

// handler is the twin behind the daemon's HTTP surface.
func (t *twin) handler() http.Handler { return httpapi.New(t.b, 30*time.Second) }

func pricingFunc(wire string) qirana.PricingFunc {
	switch wire {
	case "shannon":
		return qirana.ShannonEntropy
	case "qentropy":
		return qirana.QEntropy
	}
	return qirana.WeightedCoverage
}

func values(params []any) []qirana.Value {
	out := make([]qirana.Value, len(params))
	for i, p := range params {
		switch v := p.(type) {
		case int64:
			out[i] = qirana.NewInt(v)
		case string:
			out[i] = qirana.NewString(v)
		}
	}
	return out
}

// do replays one request through the library API and fills the same
// sample fields the socket client fills.
func (t *twin) do(ctx context.Context, r request, s *sample) {
	s.req = r
	var resp *qirana.PriceResponse
	var err error
	switch r.kind {
	case opAsk:
		rec, err := t.b.Purchase(ctx, qirana.PurchaseRequest{Buyer: r.buyer, SQL: r.sqls[0]})
		if err != nil {
			s.err = err.Error()
			return
		}
		s.net, s.bal, s.cached = rec.Net, rec.Balance, rec.Cached
		s.hit = []bool{rec.Cached}
		return
	case opStmt:
		resp, err = t.stmts[r.tmpl].Price(ctx, values(r.params)...)
	default:
		req := qirana.PriceRequest{SQLs: r.sqls, MaxError: r.maxErr}
		if r.fn != "" {
			fn := pricingFunc(r.fn)
			req.Func = &fn
		}
		resp, err = t.b.Price(ctx, req)
	}
	if err != nil {
		s.err = err.Error()
		return
	}
	s.prices = resp.Prices
	s.cached = true
	for _, q := range resp.PerQuery {
		s.cached = s.cached && q.Cached
		s.hit = append(s.hit, q.Cached)
		if !q.Cached {
			s.stats.add(sweepStats(q.Stats))
			if q.Estimate != nil && !q.Estimate.Refined {
				t.refines++
			}
		}
		if q.Estimate != nil && !q.Estimate.Refined {
			s.approx = true
		}
	}
}

// quiesce waits until the background refiner has worked off every
// refinement this twin queued, so a single-goroutine replay never times
// a request that is waiting for the refiner to release the engine.
func (t *twin) quiesce() {
	deadline := time.Now().Add(10 * time.Second)
	for t.refines > 0 && time.Now().Before(deadline) {
		c := t.b.Metrics().Counters
		if c["approx_refined"]+c["approx_refine_errors"]+c["approx_refine_dropped"] >= t.refines {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// counters is the twin's own metrics registry, read the way /v1/metrics
// serves it.
func (t *twin) counters() map[string]uint64 { return t.b.Metrics().Counters }

// remoteSweeper and compiledQuery name the program's types for the files
// that must not import it.
type (
	remoteSweeper = qirana.RemoteSweeper
	compiledQuery = *exec.Query
)

// spanSweeper is the RemoteSweeper decorator: every fan-out the broker
// starts becomes a span nested under whatever span the request's context
// carries.
type spanSweeper struct {
	inner qirana.RemoteSweeper
	tr    *tracer
}

func (s spanSweeper) SweepBits(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]bool, []qirana.Stats, error) {
	defer s.tr.child(ctx, "shard.SweepBits")()
	return s.inner.SweepBits(ctx, sqls, spec)
}

func (s spanSweeper) SweepHashes(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]uint64, []qirana.Stats, error) {
	defer s.tr.child(ctx, "shard.SweepHashes")()
	return s.inner.SweepHashes(ctx, sqls, spec)
}

// sliceSweep calls SweepSlice directly on each shard broker of a sharded
// twin for its own slice, one after another, and returns the summed
// time: the work the shards do for one quote, without fan-out, HTTP or
// JSON. The difference to the fan-out's span is the RPC overhead.
func (t *twin) sliceSweep(ctx context.Context, sqls []string) (time.Duration, error) {
	var total time.Duration
	for i, rg := range shard.Assign(t.b.SupportSetSize(), len(t.cluster.Brokers)) {
		req := qirana.SweepSliceRequest{SQLs: sqls, Bundle: true, Lo: rg.Lo, Hi: rg.Hi,
			SupportGen: t.b.SupportGen(), SupportSum: t.b.SupportChecksum()}
		start := time.Now()
		_, err := t.cluster.Brokers[i].SweepSlice(ctx, req)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// layers holds what rung 3 needs to call each layer below the broker on
// its own: a twin for Compile and Run, a bare engine over the same
// database and support set for the sweep and the fold, and a quote cache
// of the broker's default capacity.
type layers struct {
	t   *twin
	eng *pricing.Engine
	qc  *quotecache.Cache

	loadDur, supportDur time.Duration // storage.load_s, support.generate_s
}

func newLayers(w *workload) (*layers, error) {
	start := time.Now()
	db, err := loadDataset(w)
	if err != nil {
		return nil, err
	}
	l := &layers{loadDur: time.Since(start)}
	start = time.Now()
	set, err := support.GenerateNeighborhood(db, support.Config{Size: w.support, SwapFraction: 0.5, Seed: 1})
	if err != nil {
		return nil, err
	}
	l.supportDur = time.Since(start)
	l.eng = pricing.NewEngine(db, set, totalPrice)
	l.qc = quotecache.New(1024)
	l.t, err = newTwin(w, "")
	return l, err
}

func (l *layers) close() { l.t.close() }

func (l *layers) compile(sql string) (*exec.Query, error) { return l.t.b.Compile(sql) }

// fingerprint renders the literal-stripped canonical form and constant
// vector the broker keys its quote cache by — done on every ad-hoc
// quote, hit or miss.
func (l *layers) fingerprint(q *exec.Query) error {
	tm, err := ast.NewTemplate(q.Stmt)
	if err != nil {
		return err
	}
	_, err = tm.ParamKey(nil)
	return err
}

func (l *layers) run(sql string) error {
	_, err := l.t.b.Run(sql)
	return err
}

// lookup is one quote-cache probe under a key shaped like the broker's.
// A miss stores a placeholder, as the broker's miss stores its result.
func (l *layers) lookup(ctx context.Context, sql string) {
	l.qc.Do(ctx, "td|1|0|"+sql, func() (any, error) { return struct{}{}, nil })
}

// swept is the per-element vector a sweep produced: disagreement bits
// for the coverage functions, output hashes for the entropy functions,
// or nothing when the sampled path folded it already.
type swept struct {
	dis    []bool
	hashes []uint64
	stats  sweepStats
}

// sampleFrac mirrors the broker's translation of max_error into a sample
// fraction (approx.go: z²/(4·maxErr²) elements, at least 16).
func sampleFrac(maxErr float64, n int) float64 {
	m := math.Ceil(1.96 * 1.96 / (4 * maxErr * maxErr))
	return math.Max(m, 16) / float64(n)
}

// sweep walks the support set for one compiled query the way the broker
// would for request r: exactly, or over the deterministic sample that
// r.maxErr implies (where the engine folds in the same call).
func (l *layers) sweep(ctx context.Context, r request, q *exec.Query) (swept, error) {
	fn := pricingFunc(r.fn)
	var v swept
	var err error
	switch {
	case r.maxErr > 0:
		n := l.eng.Set.Size()
		mask := support.SampleMask(n, sampleFrac(r.maxErr, n), 1, l.t.b.SupportGen())
		_, err = l.eng.ApproxPriceCtx(ctx, fn, mask, q)
	case r.fn == "":
		v.dis, err = l.eng.DisagreementsCtx(ctx, []*exec.Query{q}, nil)
	default:
		v.hashes, _, err = l.eng.OutputHashesCtx(ctx, []*exec.Query{q})
	}
	v.stats = sweepStats(l.eng.LastStats)
	return v, err
}

// fold turns a swept vector into a price.
func (l *layers) fold(r request, v swept) error {
	var err error
	switch {
	case v.dis != nil:
		_, err = l.eng.PriceFromDisagreements(pricingFunc(r.fn), v.dis)
	case v.hashes != nil:
		_, err = l.eng.EntropyPriceFromHashes(pricingFunc(r.fn), v.hashes)
	}
	return err
}
