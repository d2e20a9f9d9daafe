package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is what one invocation was asked to do.
type config struct {
	root    string // checkout root (holds benchmark/ and the program's go.mod)
	binDir  string // where the daemons are built
	seed    int64
	seconds int
	trace   bool
	setups  int // set-ups this run makes: setupsPerRun, or 1 when traced (no setup_s then)
}

const (
	// clients is the number of client connections, one goroutine each. The
	// host has two cores; main refuses to run where it has fewer.
	clients = 2
	// setupsPerRun is how often an untraced run sets its server up;
	// setup_s is the median.
	setupsPerRun = 3
)

// outcome is everything one run of one workload produced.
type outcome struct {
	w         *workload
	m         *metricSet
	attempted int
	failures  []string        // every violation; len(failures) is "failed"
	prices    map[int]float64 // first price of each quote by sequence index, for the cross-workload check
	classes   []string        // one line per request class: count, p50, p95 (diagnostic, not a metric)
}

func (o *outcome) failf(format string, a ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, a...))
}

// setFailedFrac is called whenever the correctness gate has run.
func (o *outcome) setFailedFrac() {
	o.m.set(failedFrac.name, float64(len(o.failures))/float64(o.attempted))
	o.m.note(failedFrac.name, "%d of %d requests and checks", len(o.failures), o.attempted)
}

// setUp starts a fresh server for w and replays the fixed-count warm-up.
// It returns the server, a client with the templates prepared, and how
// long spawn → healthy → end of warm-up took.
func setUp(cfg *config, w *workload, runDir string, n int) (*server, *client, time.Duration, error) {
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(runDir, fmt.Sprintf("data%d", n))
	}
	srv, err := startServer(cfg.binDir, runDir, w, dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(srv.base, clients)
	if err = cl.prepare(w.templates); err == nil {
		err = cl.replay(w.warmup(cfg.seed))
	}
	if err != nil {
		cl.close()
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, cl, time.Since(srv.spawned), nil
}

// runWorkload performs one run: cfg.setups set-ups (the last one keeps
// its server), one timed window, the correctness gate, and — with
// cfg.trace — the in-process traced replay.
func runWorkload(cfg *config, w *workload) (*outcome, error) {
	runDir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	o := &outcome{w: w, m: newMetricSet(), prices: map[int]float64{}}
	var srv *server
	var cl *client
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			cl.close()
			srv.stop()
		}
		var took time.Duration
		srv, cl, took, err = setUp(cfg, w, runDir, i)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		setups = append(setups, took.Seconds())
	}
	stopped := false
	defer func() {
		cl.close()
		if !stopped {
			srv.stop()
		}
	}()
	o.m.set("setup_s", median(setups))
	o.m.note("setup_s", "median of %d set-ups", len(setups))
	o.m.set("proc.spawn_to_healthy_s", srv.healthy.Seconds())
	o.m.set("proc.warmup_s", setups[len(setups)-1]-srv.healthy.Seconds())

	dataDir := filepath.Join(runDir, fmt.Sprintf("data%d", cfg.setups-1))
	walBefore := dirSize(dataDir)
	scBefore, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	pBefore, err := srv.proc()
	if err != nil {
		return nil, err
	}
	cl.in.Store(0)
	cl.out.Store(0)
	stealBefore, cpuBefore := hostCPU()

	dur := time.Duration(cfg.seconds) * time.Second
	var win window
	if w.rate > 0 {
		win = runOpen(cl, w.timed(cfg.seed), clients, dur, w.rate)
	} else {
		win = runClosed(cl, w.timed(cfg.seed), clients, dur)
	}

	stealAfter, cpuAfter := hostCPU()
	o.m.ratio("proc.host_steal_frac", stealAfter-stealBefore, cpuAfter-cpuBefore)
	pAfter, err := srv.proc()
	if err != nil {
		return nil, err
	}
	scAfter, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	walAfter := dirSize(dataDir)

	o.attempted = len(win.samples)
	ops := 0
	for i := range win.samples {
		s := &win.samples[i]
		if s.err != "" {
			o.failf("request %d (%s): %s", s.req.seq, s.req.class, s.err)
			continue
		}
		ops++
		if w.cache != mixed && s.cached != (w.cache == allHits) {
			o.failf("request %d (%s): cached=%v on a workload of %s", s.req.seq, s.req.class, s.cached, w.cache)
		}
		if len(s.prices) > 0 {
			o.prices[s.req.seq] = s.prices[0]
		}
	}
	if ops == 0 {
		return o, fmt.Errorf("%s: no request succeeded; first failure: %s", w.name, o.failures[0])
	}

	measureWindow(o.m, w, &win, ops, cl)
	o.classes = classTable(&win)
	measureServer(o.m, w, &win, ops, scBefore, scAfter, pBefore, pAfter, walAfter-walBefore)

	if w.durable {
		if err := gateLedger(cfg, o, w, &win, srv, runDir, dataDir); err != nil {
			return nil, err
		}
		stopped = true // gateLedger replaced and stopped the server
	} else {
		srv.stop()
		stopped = true
	}

	// The server is gone, so the machine is quiet for the in-process twin.
	n := w.twinN
	var tr *traceResult
	if cfg.trace {
		tr, err = traceWorkload(cfg, w, runDir)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		tr.report(o.m)
		n = w.traceN
	}
	if err := gateTwin(o, w, &win, n, cfg.seed, cfg.trace); err != nil {
		return nil, err
	}
	o.setFailedFrac()
	return o, nil
}

// measureWindow fills the end-to-end latency/throughput metrics and the
// client layer from the generator's own clock.
func measureWindow(m *metricSet, w *workload, win *window, ops int, cl *client) {
	// Throughput counts every correct response, over the time the last of
	// them took to arrive (the clients stop sending when the window
	// closes, and what is in flight then still completes).
	var last time.Duration
	for i := range win.samples {
		if s := &win.samples[i]; s.err == "" && s.end > last {
			last = s.end
		}
	}
	m.set("ops_per_s", float64(ops)/last.Seconds())
	m.note("ops_per_s", "n=%d correct responses in %.3fs", ops, last.Seconds())
	slices, how := 1, ""
	if win.openLoop {
		slices, how = openLoopSlices, fmt.Sprintf("median of %d slices, each of ", openLoopSlices)
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"lat_p50_ms", 0.50}, {"lat_p95_ms", 0.95}} {
		v, n := slicePercentile(win, slices, q.p)
		m.set(q.name, v)
		m.note(q.name, "%sn>=%d, %d beyond%s", how, n, beyond(n, q.p), tooFew(n, q.p))
	}
	all := classLatencies(win, func(*sample) bool { return true })
	m.set("client.lat_p99_ms", percentile(all, 0.99))
	m.note("client.lat_p99_ms", "n=%d, %d beyond%s", len(all), beyond(len(all), 0.99), tooFew(len(all), 0.99))
	m.set("client.lat_max_ms", all[len(all)-1])
	m.set("client.bytes_in_per_op", float64(cl.in.Load())/float64(len(win.samples)))
	m.set("client.bytes_out_per_op", float64(cl.out.Load())/float64(len(win.samples)))

	if win.openLoop {
		var late []float64
		for i := range win.samples {
			late = append(late, ms(win.samples[i].late))
		}
		sort.Float64s(late)
		m.set("client.late_p95_ms", percentile(late, 0.95))
		m.set("client.backlog_end", float64(win.backlog))
		if win.backlog > 0 {
			m.note("client.backlog_end", "VOID: the generator fell behind its schedule")
		}
	}
	classP := func(name string, p float64, keep func(*sample) bool) {
		if l := classLatencies(win, keep); len(l) > 0 {
			m.set(name, percentile(l, p))
			m.note(name, "n=%d", len(l))
		}
	}
	switch w.name {
	case "market_durable":
		classP("client.quote_hit_p50_ms", 0.5, func(s *sample) bool { return s.req.kind == opQuote && s.cached })
		classP("client.quote_miss_p50_ms", 0.5, func(s *sample) bool { return s.req.kind == opQuote && !s.cached })
		classP("client.purchase_p50_ms", 0.5, func(s *sample) bool { return s.req.kind == opAsk })
		classP("client.purchase_p95_ms", 0.95, func(s *sample) bool { return s.req.kind == opAsk })
	case "entropy_world":
		classP("client.exact_p50_ms", 0.5, func(s *sample) bool { return s.req.maxErr == 0 })
		classP("client.approx_p50_ms", 0.5, func(s *sample) bool { return s.req.maxErr > 0 })
	}
}

// classTable is the latency of each request class, for reading a run;
// the classes of one workload differ in cost by design, so the headline
// percentiles are a mix of them.
func classTable(win *window) []string {
	by := map[string][]float64{}
	for i := range win.samples {
		if s := &win.samples[i]; s.err == "" {
			by[s.req.class] = append(by[s.req.class], ms(s.latency()))
		}
	}
	var out []string
	for _, class := range sortedKeys(by) {
		l := by[class]
		sort.Float64s(l)
		out = append(out, fmt.Sprintf("%-10s n=%-6d p50 %9.3f ms   p95 %9.3f ms", class, len(l), percentile(l, 0.5), percentile(l, 0.95)))
	}
	return out
}

func tooFew(n int, p float64) string {
	if beyond(n, p) < minBeyond {
		return fmt.Sprintf(" (fewer than %d: diagnostic only)", minBeyond)
	}
	return ""
}

// measureServer fills every metric that comes from outside the program
// but from the server's side: /proc, /v1/metrics, /v1/stats,
// /debug/vars and the stats blocks of the responses.
func measureServer(m *metricSet, w *workload, win *window, ops int, b, a scrape, pb, pa procSample, walGrowth int64) {
	n := float64(ops)
	user := float64(pa.userTicks-pb.userTicks) * 1000 / clockTick
	sys := float64(pa.sysTicks-pb.sysTicks) * 1000 / clockTick
	m.set("cpu_ms_per_op", (user+sys)/n)
	m.set("proc.cpu_user_ms_per_op", user/n)
	m.set("proc.cpu_sys_ms_per_op", sys/n)
	m.set("peak_rss_mb", float64(pa.hwmKB)/1024)
	m.set("proc.rss_end_mb", float64(pa.rssKB)/1024)

	m.fromServer("proc.allocs_per_op", b.mem, a.mem, "Mallocs", 1, n)
	m.fromServer("proc.alloc_bytes_per_op", b.mem, a.mem, "TotalAlloc", 1, n)
	m.fromServer("proc.gc_pause_ms_per_kop", b.mem, a.mem, "PauseTotalNs", 1e-6, n/1000)
	m.fromServer("proc.num_gc", b.mem, a.mem, "NumGC", 1, 1)

	stage := func(name, src string) { m.fromServer(name, b.histSum, a.histSum, src, 1e-3, n) }
	stage("parser.stage_parse_us_per_op", "stage_parse")
	stage("disagree.stage_classify_us_per_op", "stage_classify")
	stage("disagree.stage_tagged_batch_us_per_op", "stage_tagged_batch")
	stage("disagree.stage_delta_us_per_op", "stage_delta")
	stage("disagree.stage_residual_us_per_op", "stage_residual")
	stage("pricing.stage_entropy_us_per_op", "stage_entropy")

	hits, _ := delta(b.cache, a.cache, "Hits")
	misses, _ := delta(b.cache, a.cache, "Misses")
	m.ratio("quotecache.hit_ratio", hits, hits+misses)
	th, _ := delta(b.cache, a.cache, "TemplateHits")
	tm, _ := delta(b.cache, a.cache, "TemplateMisses")
	m.ratio("quotecache.template_hit_ratio", th, th+tm)
	m.fromServer("quotecache.evictions_per_kop", b.cache, a.cache, "Evictions", 1, n/1000)
	m.fromServer("quotecache.coalesced_per_kop", b.cache, a.cache, "CoalescedWaits", 1, n/1000)

	var st sweepStats
	for i := range win.samples {
		if win.samples[i].err == "" {
			st.add(win.samples[i].stats)
		}
	}
	disagreeFracs(m, st)
	m.set("pricing.elements_per_op", float64(st.elements())/n)

	count := func(name, src string) { m.fromServer(name, b.counters, a.counters, src, 1, 1) }
	count("broker.errors", "broker_errors")
	count("broker.cancellations", "broker_cancellations")
	count("broker.shed_escalations", "shed_escalations")
	m.fromServer("broker.refined_per_kop", b.counters, a.counters, "approx_refined", 1, n/1000)

	if w.durable {
		purchases := 0.0
		for i := range win.samples {
			if s := &win.samples[i]; s.err == "" && s.req.kind == opAsk {
				purchases++
			}
		}
		m.fromServer("durable.appends_per_purchase", b.counters, a.counters, "ledger_appends", 1, purchases)
		m.fromServer("durable.fsyncs_per_purchase", b.counters, a.counters, "ledger_fsyncs", 1, purchases)
		m.ratio("durable.wal_bytes_per_purchase", float64(walGrowth), purchases)
		count("durable.snapshot_writes", "snapshot_writes")
	}
	if w.shards > 0 {
		perQuote := func(name, src string) { m.fromServer(name, b.counters, a.counters, src, 1, n) }
		perQuote("shard.rpcs_per_quote", "router_fanout_rpcs")
		perQuote("shard.hedges_per_quote", "router_hedges")
		perQuote("shard.hedge_wins_per_quote", "router_hedge_wins")
		perQuote("shard.retries_per_quote", "router_retries")
		perQuote("shard.rows_swept_per_quote", "shard_rows_swept")
		count("shard.degraded_quotes", "router_degraded_quotes")
		count("shard.breaker_open", "breaker_open")
		stage("shard.fanout_us_per_op", "router_fanout")
		stage("shard.merge_us_per_op", "router_merge")
		stage("shard.sweep_us_per_op", "shard_sweep")
	}
}

// disagreeFracs reports which tier of the disagreement checker decided
// the swept (element, query) pairs.
func disagreeFracs(m *metricSet, st sweepStats) {
	e := float64(st.elements())
	m.ratio("disagree.static_frac", float64(st.Static), e)
	m.ratio("disagree.batched_frac", float64(st.Batched), e)
	m.ratio("disagree.delta_full_frac", float64(st.DeltaFull), e)
	m.ratio("disagree.delta_partial_frac", float64(st.DeltaPartial), e)
	m.ratio("disagree.fullrun_frac", float64(st.FullRuns), e)
	m.ratio("disagree.naive_frac", float64(st.Naive), e)
}

// sent is when the request left the client: its due time plus lateness
// in an open loop, its start otherwise.
func (s *sample) sent() time.Duration { return s.start + s.late }

// gateLedger checks the money trail of a durable workload: each buyer's
// receipts chain exactly (balance_k = balance_{k-1} + net_k), a re-buy
// of an answer the buyer already held costs 0, and after a crash
// (SIGKILL) and recovery on the same -data directory every balance is
// unchanged. It leaves the server stopped.
func gateLedger(cfg *config, o *outcome, w *workload, win *window, srv *server, runDir, dataDir string) error {
	byBuyer := map[string][]*sample{}
	for i := range win.samples {
		if s := &win.samples[i]; s.err == "" && s.req.kind == opAsk {
			byBuyer[s.req.buyer] = append(byBuyer[s.req.buyer], s)
		}
	}
	type holding struct {
		sql string
		bal float64
	}
	final := map[string]holding{}
	for buyer, rs := range byBuyer {
		// The server applies a buyer's charges one at a time, so sorting by
		// balance recovers its order; among equal balances the charge that
		// reached it comes before the zero charges that kept it.
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].bal != rs[j].bal {
				return rs[i].bal < rs[j].bal
			}
			return rs[i].net > rs[j].net
		})
		prev := 0.0
		for _, s := range rs {
			if got := prev + s.net; got != s.bal {
				o.failf("buyer %s: balance %v after net %v on top of %v, want %v", buyer, s.bal, s.net, prev, got)
			}
			prev = s.bal
			if !s.req.rebuy {
				continue
			}
			for _, first := range rs {
				if first != s && first.req.sqls[0] == s.req.sqls[0] && first.end < s.sent() && s.net != 0 {
					o.failf("buyer %s: re-buy of an owned answer charged %v", buyer, s.net)
					break
				}
			}
		}
		final[buyer] = holding{sql: rs[0].req.sqls[0], bal: prev}
	}

	srv.kill()
	re, err := startServer(cfg.binDir, runDir, w, dataDir)
	if err != nil {
		return fmt.Errorf("recovery restart: %w", err)
	}
	defer re.stop()
	o.m.set("durable.recovery_s", re.healthy.Seconds())
	cl := newClient(re.base, 1)
	defer cl.close()
	for _, buyer := range sortedKeys(final) {
		h := final[buyer]
		var s sample
		cl.do(request{kind: opAsk, buyer: buyer, sqls: []string{h.sql}}, &s)
		o.attempted++
		switch {
		case s.err != "":
			o.failf("buyer %s after recovery: %s", buyer, s.err)
		case s.net != 0 || s.bal != h.bal:
			o.failf("buyer %s after recovery: net %v balance %v, want 0 and %v", buyer, s.net, s.bal, h.bal)
		}
	}
	return nil
}

// gateTwin replays the first n requests of the timed sequence on an
// in-process single-node twin and demands bit-identical prices from the
// socket. Purchases are compared to 1e-9: two purchases by one buyer may
// reach the server in either order, which reorders a float sum. On
// entropy_world the sampled price must also be at least the twin's
// exact price.
func gateTwin(o *outcome, w *workload, win *window, n int, seed int64, overcharge bool) error {
	t, err := newTwin(w, "")
	if err != nil {
		return fmt.Errorf("%s: twin: %w", w.name, err)
	}
	defer t.close()
	got := map[int]*sample{}
	for i := range win.samples {
		if s := &win.samples[i]; s.err == "" && s.req.seq < n {
			got[s.req.seq] = s
		}
	}
	ctx := context.Background()
	next := w.timed(seed)
	var ratios []float64
	for i := 0; i < n; i++ {
		r := next()
		s := got[i]
		if s == nil {
			continue // never sent, or already counted as failed
		}
		var ref sample
		t.do(ctx, r, &ref)
		o.attempted++
		if ref.err != "" {
			o.failf("request %d: twin failed: %s", i, ref.err)
			continue
		}
		if r.kind == opAsk {
			if math.Abs(ref.net-s.net) > 1e-9 {
				o.failf("request %d: purchase charged %v, twin %v", i, s.net, ref.net)
			}
			continue
		}
		for j := range ref.prices {
			if s.prices[j] != ref.prices[j] {
				o.failf("request %d (%s) entry %d: price %v, twin %v", i, r.class, j, s.prices[j], ref.prices[j])
			}
		}
		if r.maxErr > 0 && s.approx {
			// The refiner upgrades the twin's entry to the exact price;
			// asking again serves it.
			t.quiesce()
			var exact sample
			t.do(ctx, r, &exact)
			if exact.err != "" || exact.approx {
				o.failf("request %d: twin never refined to exact (%s)", i, exact.err)
				continue
			}
			if s.prices[0] < exact.prices[0]-1e-9 {
				o.failf("request %d: approximate price %v is below the exact price %v", i, s.prices[0], exact.prices[0])
			}
			if exact.prices[0] > 0 {
				ratios = append(ratios, s.prices[0]/exact.prices[0])
			}
		}
	}
	if overcharge && len(ratios) > 0 {
		o.m.set("client.approx_overcharge_p50", median(ratios))
		o.m.note("client.approx_overcharge_p50", "n=%d", len(ratios))
	}
	return nil
}
