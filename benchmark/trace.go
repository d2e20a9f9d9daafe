package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run replays the first traceN requests of a workload
// in-process, one at a time, on twin brokers that all start from the
// same state, at four rungs of one ladder:
//
//	rung 0  over a loopback socket into the twin's http.Handler
//	rung 1  http.Handler.ServeHTTP on a recorder
//	rung 2  the direct Broker call
//	rung 3  the layers below the broker, each called on its own
//
// Every span is recorded here, around calls into the program, never
// inside it. Where the program exposes a seam the child span is a real
// nested decorator (the handler under the socket round trip, the shard
// fan-out under the broker call, the shard RPC under the fan-out);
// elsewhere a layer is replayed beside the call that contains it and
// its self time is a subtraction.

// span is one timed interval. Spans of one request share req, its
// sequence index; parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Rung   int    `json:"rung"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req, rung int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Rung: rung})
	id := len(t.spans) - 1
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

type spanKey struct{}

// with returns ctx carrying span id, for decorators further down.
func (t *tracer) with(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// child opens a span nested under the one ctx carries and returns the
// function that closes it. A context without a span (warm-up traffic)
// records nothing.
func (t *tracer) child(ctx context.Context, name string) func() {
	parent, ok := ctx.Value(spanKey{}).(int)
	if !ok {
		return func() {}
	}
	p := t.get(parent)
	id := t.begin(name, parent, p.Req, p.Rung)
	return func() { t.end(id) }
}

// childrenOf sums, per request, the spans called name at the given rung.
func (t *tracer) childrenOf(name string, rung, n int) []time.Duration {
	out := make([]time.Duration, n)
	for _, s := range t.spans {
		if s.Rung == rung && s.Req >= 0 && s.Req < n && strings.HasPrefix(s.Name, name) {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// spanHandler is the http.Handler decorator of rung 0: a request that
// names its client span in X-Span gets a nested span around the real
// handler, and carries it on in its context.
func spanHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		p := tr.get(parent)
		id := tr.begin("httpapi.ServeHTTP", parent, p.Req, p.Rung)
		next.ServeHTTP(w, r.WithContext(tr.with(r.Context(), id)))
		tr.end(id)
	})
}

// spanTransport is the RoundTripper handed to shard.Connect: each shard
// RPC becomes a span under the fan-out that issued it, and every byte
// its connections move is counted.
type spanTransport struct {
	tr    *tracer
	inner *http.Transport
	bytes atomic.Int64
}

func newSpanTransport(tr *tracer) *spanTransport {
	st := &spanTransport{tr: tr}
	d := &net.Dialer{}
	st.inner = &http.Transport{
		MaxIdleConnsPerHost: 8,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, &st.bytes, &st.bytes}, nil
		},
	}
	return st
}

func (st *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if st.tr != nil {
		defer st.tr.child(r.Context(), "shard.rpc")()
	}
	return st.inner.RoundTrip(r)
}

// rung is the outcome of replaying the prefix at one rung.
type rung struct {
	lat     []time.Duration // per request
	samples []sample
	mallocs uint64 // heap objects allocated over the whole replay
	bytes   uint64
}

func (r *rung) total() (d time.Duration) {
	for _, l := range r.lat {
		d += l
	}
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// replay warms t with the workload's warm-up (through the library API,
// so every rung starts from the same broker state) and then times call
// on each request of the prefix, one at a time. The background refiner
// is drained between requests so no call waits for it.
func replay(t *twin, warm, reqs []request, call func(i int, r request, s *sample)) (*rung, error) {
	ctx := context.Background()
	for _, r := range warm {
		var s sample
		t.do(ctx, r, &s)
		if s.err != "" {
			return nil, fmt.Errorf("twin warm-up request %d: %s", r.seq, s.err)
		}
	}
	t.quiesce()
	out := &rung{lat: make([]time.Duration, len(reqs)), samples: make([]sample, len(reqs))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, r := range reqs {
		start := time.Now()
		call(i, r, &out.samples[i])
		out.lat[i] = time.Since(start)
		if out.samples[i].err != "" {
			return nil, fmt.Errorf("request %d (%s): %s", i, r.class, out.samples[i].err)
		}
		t.countRefines(&out.samples[i])
		t.quiesce()
	}
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.bytes = after.TotalAlloc - before.TotalAlloc
	return out, nil
}

// countRefines keeps the twin's refinement count right for samples that
// were decoded from HTTP rather than filled by twin.do.
func (t *twin) countRefines(s *sample) {
	if s.viaHTTP && s.approx && !s.cached {
		t.refines++
	}
}

// traceResult is what the traced run adds to a run's metrics.
type traceResult struct {
	w         *workload
	n         int
	tr        *tracer
	socket    *rung // rung 0
	handler   *rung // rung 1
	direct    *rung // rung 2, traced
	untraced  *rung // rung 2 again, nothing recorded
	memory    *rung // rung 2 on an in-memory twin (durable workloads)
	parts     partTotals
	harness   uint64 // heap objects the rung-1 harness itself allocates per request
	harnessB  uint64
	wireBytes int64
	slices    time.Duration   // Σ direct SweepSlice (sharded workloads)
	accounted []time.Duration // per request: the rung-3 parts that stand for its direct call
	ledger    map[string]uint64
	loadS     float64
	supportS  float64
	spansPath string
}

// partTotals sums what rung 3 measured over the prefix.
type partTotals struct {
	compile, fingerprint, lookup, sweep, fold, run, runPurchases, fanout time.Duration
	compileAllocs, pricingAllocs                                         uint64
	elements                                                             int
}

func traceWorkload(cfg *config, w *workload, runDir string) (*traceResult, error) {
	tr := newTracer()
	warm := w.warmup(cfg.seed)
	reqs := take(w.timed(cfg.seed), w.traceN)
	res := &traceResult{w: w, n: len(reqs), tr: tr}
	ctx := context.Background()

	// build makes one more seed-identical twin. Sharded twins get the
	// decorators only when traced.
	build := func(dataDir string, traced bool) (*twin, *spanTransport, error) {
		t, err := newTwin(w, dataDir)
		if err != nil || w.shards == 0 {
			return t, nil, err
		}
		var st *spanTransport
		wrap := func(rs remoteSweeper) remoteSweeper { return rs }
		if traced {
			st = newSpanTransport(tr)
			wrap = func(rs remoteSweeper) remoteSweeper { return spanSweeper{rs, tr} }
		} else {
			st = newSpanTransport(nil)
		}
		if err := t.shardTwin(st, wrap); err != nil {
			t.close()
			return nil, nil, err
		}
		return t, st, nil
	}
	dataDir := func(name string) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(runDir, name)
	}

	// Rung 2 untraced comes first: it is the yardstick for the tracing
	// overhead, and nothing is recorded while it runs.
	t, _, err := build(dataDir("twin-untraced"), false)
	if err != nil {
		return nil, err
	}
	res.untraced, err = replay(t, warm, reqs, func(i int, r request, s *sample) { t.do(ctx, r, s) })
	t.close()
	if err != nil {
		return nil, fmt.Errorf("rung 2 untraced: %w", err)
	}

	// Rung 0: a loopback socket in front of the twin's handler.
	t, _, err = build(dataDir("twin-socket"), true)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	srv := &http.Server{Handler: spanHandler(tr, t.handler())}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	cl := newClient("http://"+ln.Addr().String(), 1)
	if err = cl.prepare(w.templates); err == nil {
		res.socket, err = replay(t, warm, reqs, func(i int, r request, s *sample) {
			id := tr.begin("client.roundtrip", -1, i, 0)
			cl.span = strconv.Itoa(id)
			cl.do(r, s)
			tr.end(id)
			s.viaHTTP = true
		})
	}
	cl.close()
	srv.Close()
	<-done
	t.close()
	if err != nil {
		return nil, fmt.Errorf("rung 0: %w", err)
	}

	// Rung 1: the handler on a recorder.
	t, _, err = build(dataDir("twin-handler"), true)
	if err != nil {
		return nil, err
	}
	h := t.handler()
	hc := &client{} // only renders bodies and holds the prepared handles
	serve := func(ctx context.Context, path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
		return rec.Body.Bytes()
	}
	for _, sql := range w.templates {
		body, _ := json.Marshal(map[string]string{"sql": sql})
		var out struct {
			Stmt int64 `json:"stmt"`
		}
		if err := json.Unmarshal(serve(ctx, "/v1/prepare", body), &out); err != nil || out.Stmt == 0 {
			t.close()
			return nil, fmt.Errorf("rung 1: prepare %q failed", sql)
		}
		hc.stmts = append(hc.stmts, out.Stmt)
	}
	res.handler, err = replay(t, warm, reqs, func(i int, r request, s *sample) {
		path, body := hc.body(r)
		id := tr.begin("httpapi.ServeHTTP", -1, i, 1)
		data := serve(tr.with(ctx, id), path, body)
		tr.end(id)
		s.req, s.viaHTTP = r, true
		decode(r, data, s)
	})
	// What the recorder and the request cost on their own, so that it is
	// not charged to the handler.
	h = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		path, body := hc.body(r)
		serve(ctx, path, body)
	}
	runtime.ReadMemStats(&after)
	res.harness = (after.Mallocs - before.Mallocs) / uint64(len(reqs))
	res.harnessB = (after.TotalAlloc - before.TotalAlloc) / uint64(len(reqs))
	t.close()
	if err != nil {
		return nil, fmt.Errorf("rung 1: %w", err)
	}

	// Rung 2: the direct call, with the shard seams decorated.
	t, st, err := build(dataDir("twin-direct"), true)
	if err != nil {
		return nil, err
	}
	ledgerBefore := t.counters()
	res.direct, err = replay(t, warm, reqs, func(i int, r request, s *sample) {
		name := "broker.Price"
		if r.kind == opAsk {
			name = "broker.Purchase"
		}
		id := tr.begin(name, -1, i, 2)
		t.do(tr.with(ctx, id), r, s)
		tr.end(id)
	})
	if err == nil {
		res.ledger = map[string]uint64{}
		for k, v := range t.counters() {
			res.ledger[k] = v - ledgerBefore[k]
		}
		if st != nil {
			res.wireBytes = st.bytes.Load()
		}
	}
	t.close()
	if err != nil {
		return nil, fmt.Errorf("rung 2: %w", err)
	}

	// Sharded workloads: the slices the fan-out asked for, swept by
	// direct calls on the shard brokers of one more twin (whose slice
	// caches are as cold as rung 2's were).
	if w.shards > 0 {
		t, _, err = build("", false)
		if err != nil {
			return nil, err
		}
		for _, r := range warm {
			if _, err = t.sliceSweep(ctx, r.sqls); err != nil {
				break
			}
		}
		for i := 0; i < len(reqs) && err == nil; i++ {
			var d time.Duration
			id := tr.begin("shard.SweepSlice", -1, i, 3)
			d, err = t.sliceSweep(ctx, reqs[i].sqls)
			tr.end(id)
			res.slices += d
		}
		t.close()
		if err != nil {
			return nil, fmt.Errorf("direct slice sweeps: %w", err)
		}
	}

	// Durable workloads: the same replay without a WAL underneath; the
	// purchases' difference is what durability costs.
	if w.durable {
		t, err = newTwin(w, "")
		if err != nil {
			return nil, err
		}
		res.memory, err = replay(t, warm, reqs, func(i int, r request, s *sample) { t.do(ctx, r, s) })
		t.close()
		if err != nil {
			return nil, fmt.Errorf("rung 2 in memory: %w", err)
		}
	}

	// Rung 3: the parts.
	if err := res.replayParts(ctx, warm, reqs); err != nil {
		return nil, fmt.Errorf("rung 3: %w", err)
	}
	res.parts.fanout = sum(tr.childrenOf("shard.Sweep", 2, len(reqs)))

	outDir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res.spansPath = filepath.Join(outDir, "trace-"+w.name+".json")
	data, _ := json.Marshal(tr.spans)
	return res, os.WriteFile(res.spansPath, data, 0o644)
}

func sum(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

// allocsAround runs f and returns the heap objects it allocated. The
// two stop-the-world reads sit outside whatever f times.
func allocsAround(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// partsWarm is how many warm-up queries rung 3 sweeps on its bare
// engine: enough to build the executor's indexes over every table and
// shape, which is all the warm-up does for a sweep.
const partsWarm = 48

// replayParts is rung 3: for every request of the prefix it calls each
// layer below the broker on its own — compile, cache lookup, sweep,
// fold, bare execution — in place of the one direct call of rung 2.
// Which entries of a request need a sweep is taken from rung 2, so both
// rungs do the same work.
func (res *traceResult) replayParts(ctx context.Context, warm, reqs []request) error {
	l, err := newLayers(res.w)
	if err != nil {
		return err
	}
	defer l.close()
	res.loadS, res.supportS = l.loadDur.Seconds(), l.supportDur.Seconds()
	tr := res.tr

	var last swept // most recent coverage vector: what a cache hit folds
	warmed := 0
	for _, r := range warm {
		if r.kind == opStmt || warmed >= partsWarm {
			continue
		}
		for _, sql := range r.sqls {
			if warmed++; warmed > partsWarm {
				break
			}
			q, err := l.compile(sql)
			if err != nil {
				return err
			}
			v, err := l.sweep(ctx, r, q)
			if err != nil {
				return err
			}
			if v.dis != nil {
				last = v
			}
		}
	}

	p := &res.parts
	res.accounted = make([]time.Duration, len(reqs))
	timed := func(name string, i int, total *time.Duration, f func()) {
		id := tr.begin(name, -1, i, 3)
		f()
		tr.end(id)
		d := tr.get(id).dur()
		*total += d
		if total != &p.run { // bare execution is part of a purchase only
			res.accounted[i] += d
		}
	}
	runtime.GC()
	for i, r := range reqs {
		hit := res.direct.samples[i].hit
		for j, sql := range r.sqls {
			var q compiledQuery
			var v = last
			var err error
			timed("parser.Compile", i, &p.compile, func() { q, err = l.compile(sql) })
			if err != nil {
				return err
			}
			timed("parser.fingerprint", i, &p.fingerprint, func() { err = l.fingerprint(q) })
			if err != nil {
				return err
			}
			timed("quotecache.lookup", i, &p.lookup, func() { l.lookup(ctx, sql) })
			if j < len(hit) && !hit[j] {
				// A sweep runs for milliseconds, so the two stop-the-world
				// reads around it cost it nothing measurable.
				p.pricingAllocs += allocsAround(func() {
					timed("pricing.sweep", i, &p.sweep, func() { v, err = l.sweep(ctx, r, q) })
				})
				if err != nil {
					return err
				}
				p.elements += v.stats.elements()
				if v.dis != nil {
					last = v
				}
			} else if r.fn != "" {
				v = swept{} // an entropy hit serves the cached price: nothing to fold
			}
			timed("pricing.fold", i, &p.fold, func() { err = l.fold(r, v) })
			if err != nil {
				return err
			}
			if j == 0 {
				dst := &p.run
				if r.kind == opAsk {
					dst = &p.runPurchases
				}
				timed("exec.Run", i, dst, func() { err = l.run(sql) })
				if err != nil {
					return err
				}
			}
		}
		if r.kind == opStmt {
			// A prepared instance is never compiled again: it costs a
			// lookup and a fold.
			key := fmt.Sprint(r.tmpl, r.params)
			timed("quotecache.lookup", i, &p.lookup, func() { l.lookup(ctx, key) })
			timed("pricing.fold", i, &p.fold, func() { err = l.fold(r, last) })
			if err != nil {
				return err
			}
		}
	}
	// Compiling takes microseconds, which a stop-the-world read beside
	// each call would distort; its allocations are counted in a pass of
	// their own.
	p.compileAllocs = allocsAround(func() {
		for _, r := range reqs {
			for _, sql := range r.sqls {
				l.compile(sql)
			}
		}
	})
	return nil
}

// report turns the rungs into metrics.
func (res *traceResult) report(m *metricSet) {
	n := float64(res.n)
	w := res.w

	// net: the socket round trip minus the handler span nested in it.
	inner := res.tr.childrenOf("httpapi.ServeHTTP", 0, res.n)
	var netSelf, apiSelf []float64
	for i := range res.socket.lat {
		netSelf = append(netSelf, us(res.socket.lat[i]-inner[i]))
		apiSelf = append(apiSelf, us(res.handler.lat[i]-res.direct.lat[i]))
	}
	m.set("net.self_us_per_op", median(netSelf))
	m.set("httpapi.self_us_per_op", median(apiSelf))
	m.note("net.self_us_per_op", "median over %d requests of round trip - nested handler span", res.n)
	m.note("httpapi.self_us_per_op", "median over %d requests of ServeHTTP - direct call", res.n)
	m.set("httpapi.allocs_per_op", (float64(res.handler.mallocs)-float64(res.direct.mallocs))/n-float64(res.harness))
	m.set("httpapi.alloc_bytes_per_op", (float64(res.handler.bytes)-float64(res.direct.bytes))/n-float64(res.harnessB))

	p := res.parts
	m.set("parser.compile_us_per_op", us(p.compile)/n)
	m.set("parser.fingerprint_us_per_op", us(p.fingerprint)/n)
	m.set("parser.allocs_per_op", float64(p.compileAllocs)/n)
	m.set("quotecache.lookup_us_per_op", us(p.lookup)/n)
	m.set("pricing.sweep_us_per_op", us(p.sweep)/n)
	m.ratio("pricing.us_per_element", us(p.sweep), float64(p.elements))
	m.set("pricing.fold_us_per_op", us(p.fold)/n)
	m.set("pricing.allocs_per_op", float64(p.pricingAllocs)/n)
	m.set("support.generate_s", res.supportS)
	m.set("storage.load_s", res.loadS)

	var price, purchase, memPurchase time.Duration
	prices, purchases := 0, 0
	for i, s := range res.direct.samples {
		if s.req.kind == opAsk {
			purchase += res.direct.lat[i]
			purchases++
			if res.memory != nil {
				memPurchase += res.memory.lat[i]
			}
		} else {
			price += res.direct.lat[i]
			prices++
		}
	}
	if prices > 0 {
		m.set("broker.price_us_per_op", us(price)/float64(prices))
		m.ratio("exec.run_us_per_op", us(p.run), float64(prices))
		m.ratio("exec.price_over_exec", us(price), us(p.run))
	}
	if purchases > 0 {
		m.set("broker.purchase_us_per_op", us(purchase)/float64(purchases))
		if res.memory != nil {
			m.set("durable.purchase_overhead_us", us(purchase-memPurchase)/float64(purchases))
			m.set("durable.appends_per_purchase", float64(res.ledger["ledger_appends"])/float64(purchases))
			m.set("durable.fsyncs_per_purchase", float64(res.ledger["ledger_fsyncs"])/float64(purchases))
			m.note("durable.appends_per_purchase", "exact over the %d-request prefix", res.n)
			m.note("durable.fsyncs_per_purchase", "exact over the %d-request prefix", res.n)
		}
	}
	m.set("broker.allocs_per_op", float64(res.direct.mallocs)/n)
	m.set("broker.alloc_bytes_per_op", float64(res.direct.bytes)/n)

	// The parts that stand for one direct call: rung 3's spans, plus the
	// WAL's share of a purchase, and on a sharded twin the fan-out span
	// nested in the call itself in place of the bare engine's sweep
	// (which accounted holds and is taken out again). What no part
	// explains is the broker's own glue.
	if w.shards > 0 {
		m.set("shard.rpc_overhead_us_per_op", us(p.fanout-res.slices)/n)
		m.set("shard.wire_bytes_per_quote", float64(res.wireBytes)/n)
	}
	fanout := res.tr.childrenOf("shard.Sweep", 2, res.n)
	sweeps := res.tr.childrenOf("pricing.sweep", 3, res.n)
	type account struct{ direct, gap time.Duration }
	var acc []account
	for i, d := range res.direct.lat {
		parts := res.accounted[i]
		if w.shards > 0 {
			parts += fanout[i] - sweeps[i]
		}
		if res.memory != nil && res.direct.samples[i].req.kind == opAsk {
			parts += d - res.memory.lat[i]
		}
		acc = append(acc, account{d, d - parts})
	}
	// Parts and whole are replayed on different twins, so a pause that
	// hits one of them shows as a huge gap on one request. The twentieth
	// of the requests with the largest gaps is set aside; over the rest
	// the gaps are summed with their sign, so noise cancels and a layer
	// that is really missing does not.
	sort.Slice(acc, func(i, j int) bool { return abs(float64(acc[i].gap)) < abs(float64(acc[j].gap)) })
	acc = acc[:len(acc)-len(acc)/20]
	var direct, gap time.Duration
	for _, a := range acc {
		direct += a.direct
		gap += a.gap
	}
	m.set("broker.self_us_per_op", us(gap)/float64(len(acc)))
	m.note("broker.self_us_per_op", "direct call - its parts, mean over %d of %d requests", len(acc), res.n)
	m.set("trace.unaccounted_frac", abs(float64(gap))/float64(direct))
	m.note("trace.unaccounted_frac", "|direct - parts| / direct over %d of %d requests; must stay <= 0.15", len(acc), res.n)
	m.set("trace.overhead_frac", abs(medianDur(res.direct.lat)-medianDur(res.untraced.lat))/medianDur(res.untraced.lat))

	// Count-type metrics repeat exactly over the fixed prefix, which a
	// timed window (a different number of ops each run) cannot promise.
	var st sweepStats
	for _, s := range res.direct.samples {
		st.add(s.stats)
	}
	disagreeFracs(m, st)
	m.set("pricing.elements_per_op", float64(st.elements())/n)
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "disagree.") && strings.HasSuffix(d.name, "_frac") || d.name == "pricing.elements_per_op" {
			m.note(d.name, "exact over the %d-request prefix", res.n)
		}
	}
	m.note("trace.overhead_frac", "spans written to %s", res.spansPath)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
