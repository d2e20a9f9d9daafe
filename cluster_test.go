package qirana_test

// The cluster suite lives in the external test package: internal/shard
// imports qirana, so an in-package test would be an import cycle. The
// ground truth everywhere is a single-node twin over the same dataset,
// seed and support size — sharding is pure mechanism, so every routed
// price must match the twin bit-for-bit (price AND Stats), never merely
// within epsilon.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"qirana"
	"qirana/internal/durable"
	"qirana/internal/failpoint"
	"qirana/internal/httpapi"
	"qirana/internal/shard"
)

// twinPair builds two independent brokers over one dataset with the same
// seed: identical support sets, zero shared caches.
func twinPair(t *testing.T, dataset string, seed int64, scale float64, size int) (*qirana.Database, *qirana.Broker, *qirana.Broker) {
	t.Helper()
	db, err := qirana.LoadDataset(dataset, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	opt := qirana.Options{SupportSetSize: size, Seed: 7}
	single, err := qirana.NewBroker(db, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := qirana.NewBroker(db, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db, single, routed
}

func attachCluster(t *testing.T, routed *qirana.Broker, db *qirana.Database, n int, size int) *shard.Cluster {
	t.Helper()
	cl, err := shard.AttachLocal(routed, db, n, qirana.Options{SupportSetSize: size, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

var clusterFns = []qirana.PricingFunc{
	qirana.WeightedCoverage, qirana.UniformEntropyGain, qirana.ShannonEntropy, qirana.QEntropy,
}

// assertSamePrice pins a routed response to the twin's: totals, per-query
// prices, per-query stats and the summed stats must all be identical.
func assertSamePrice(t *testing.T, label string, got, want *qirana.PriceResponse) {
	t.Helper()
	if got.Total != want.Total {
		t.Fatalf("%s: routed total %v != single-node %v", label, got.Total, want.Total)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: routed stats %+v != single-node %+v", label, got.Stats, want.Stats)
	}
	if len(got.Prices) != len(want.Prices) {
		t.Fatalf("%s: routed %d prices, single-node %d", label, len(got.Prices), len(want.Prices))
	}
	for i := range got.Prices {
		if got.Prices[i] != want.Prices[i] {
			t.Fatalf("%s: price[%d] routed %v != single-node %v", label, i, got.Prices[i], want.Prices[i])
		}
		if got.PerQuery[i].Stats != want.PerQuery[i].Stats {
			t.Fatalf("%s: stats[%d] routed %+v != single-node %+v", label, i, got.PerQuery[i].Stats, want.PerQuery[i].Stats)
		}
	}
}

// TestClusterShardedBitIdenticalDifferential is the tentpole contract: a
// 3-shard cluster prices bit-identically to a single node across all
// five generator schemas, for every pricing function, for solo quotes,
// multi-query batches, bundles and purchase charges. testing/quick
// drives extra parameterized probes per schema.
func TestClusterShardedBitIdenticalDifferential(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		seed  int64
		scale float64
		size  int
		tmpl  string // $1 placeholder, integer domain
		mod   int
		sqls  []string
	}{
		{"world-int", 1, 0, 200, "SELECT Name FROM Country WHERE Population > $1", 100000000, []string{
			"SELECT Name FROM Country WHERE Population > 1000000",
			"SELECT Continent, count(*) FROM Country GROUP BY Continent",
			"SELECT * FROM CountryLanguage",
		}},
		{"world-str", 1, 0, 200, "SELECT count(*) FROM Country WHERE Population < $1", 100000000, []string{
			"SELECT count(*) FROM Country WHERE Continent = 'Asia'",
			"SELECT Name FROM Country WHERE Continent = 'Europe'",
		}},
		{"carcrash", 2, 300, 150, "SELECT State, min(Age) FROM crash WHERE Age > $1 GROUP BY State", 80, []string{
			"SELECT count(*) FROM crash WHERE Age > 40",
			"SELECT State FROM crash WHERE Age < 21",
		}},
		{"ssb", 3, 0.001, 120, "SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey AND lo_revenue > $1 GROUP BY c_city", 5000000, []string{
			"SELECT count(*) FROM lineorder WHERE lo_revenue > 4000000",
		}},
		{"tpch", 4, 0.002, 120, "SELECT s_name FROM supplier WHERE s_acctbal > $1", 9000, []string{
			"SELECT count(*) FROM supplier WHERE s_acctbal < 1000",
		}},
		{"dblp", 5, 0.02, 120, "SELECT count(*) FROM dblp WHERE ToNodeId < $1", 2000, []string{
			"SELECT count(*) FROM dblp WHERE FromNodeId < 500",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dataset := strings.SplitN(tc.name, "-", 2)[0]
			db, single, routed := twinPair(t, dataset, tc.seed, tc.scale, tc.size)
			attachCluster(t, routed, db, 3, tc.size)

			for _, fn := range clusterFns {
				fn := fn
				label := fmt.Sprintf("fn=%v", fn)
				// Solo quotes, cold on both sides.
				for _, sql := range tc.sqls {
					want, err := single.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}, Func: &fn})
					if err != nil {
						t.Fatal(err)
					}
					got, err := routed.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}, Func: &fn})
					if err != nil {
						t.Fatal(err)
					}
					assertSamePrice(t, label+" solo "+sql, got, want)
				}
				// Multi-query batch in one sweep.
				want, err := single.Price(ctx, qirana.PriceRequest{SQLs: tc.sqls, Func: &fn})
				if err != nil {
					t.Fatal(err)
				}
				got, err := routed.Price(ctx, qirana.PriceRequest{SQLs: tc.sqls, Func: &fn})
				if err != nil {
					t.Fatal(err)
				}
				assertSamePrice(t, label+" batch", got, want)
				// Bundle (sub-additive, one price).
				want, err = single.Price(ctx, qirana.PriceRequest{SQLs: tc.sqls, Func: &fn, Bundle: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err = routed.Price(ctx, qirana.PriceRequest{SQLs: tc.sqls, Func: &fn, Bundle: true})
				if err != nil {
					t.Fatal(err)
				}
				assertSamePrice(t, label+" bundle", got, want)
			}

			// Parameterized probes: random instantiations of the schema's
			// template must agree cold-vs-cold.
			prop := func(pick uint16) bool {
				sql := strings.Replace(tc.tmpl, "$1", fmt.Sprint(int(pick)%tc.mod), 1)
				want, err := single.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := routed.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}})
				if err != nil {
					t.Fatal(err)
				}
				if got.Total != want.Total || got.Stats != want.Stats {
					t.Errorf("pick=%d: routed (%v, %+v) != single-node (%v, %+v)",
						pick, got.Total, got.Stats, want.Total, want.Stats)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 3}); err != nil {
				t.Error(err)
			}

			// Purchases route their charge sweep through the shards too:
			// the full money trail must match the twin's.
			buys := []struct{ buyer, sql string }{
				{"alice", tc.sqls[0]},
				{"bob", tc.sqls[len(tc.sqls)-1]},
				{"alice", tc.sqls[0]}, // re-buy: net must be 0 on both
			}
			for i, p := range buys {
				want, err := single.Purchase(ctx, qirana.PurchaseRequest{Buyer: p.buyer, SQL: p.sql})
				if err != nil {
					t.Fatal(err)
				}
				got, err := routed.Purchase(ctx, qirana.PurchaseRequest{Buyer: p.buyer, SQL: p.sql})
				if err != nil {
					t.Fatal(err)
				}
				if got.Gross != want.Gross || got.Net != want.Net || got.Balance != want.Balance {
					t.Fatalf("purchase %d: routed %+v != single-node %+v", i, got, want)
				}
			}
			if net := mustBuy(t, routed, "alice", tc.sqls[0]).Net; net != 0 {
				t.Fatalf("re-purchase of owned query: net %v, want 0", net)
			}
		})
	}
}

// newRouterAPI serves the routed broker through the real HTTP layer, so
// error-status assertions exercise the production mapping.
func newRouterAPI(b *qirana.Broker) http.Handler {
	return httpapi.New(b, 0)
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func mustBuy(t *testing.T, b *qirana.Broker, buyer, sql string) *qirana.Receipt {
	t.Helper()
	rec, err := b.Purchase(context.Background(), qirana.PurchaseRequest{Buyer: buyer, SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestClusterShardRowsSwept proves the work bound: on a cold quote over
// an N-shard cluster, each shard sweeps at most ceil(|S|/N)+1 support
// elements — its own slice and nothing more — and a warm quote sweeps
// nothing anywhere.
func TestClusterShardRowsSwept(t *testing.T) {
	const size, n = 200, 3
	db, _, routed := twinPair(t, "world", 1, 0, size)
	cl := attachCluster(t, routed, db, n, size)

	sweptPerShard := func() []uint64 {
		out := make([]uint64, len(cl.Brokers))
		for i, b := range cl.Brokers {
			out[i] = b.Metrics().Counters["shard_rows_swept"]
		}
		return out
	}
	before := sweptPerShard()
	if _, err := routed.Price(context.Background(), qirana.PriceRequest{SQLs: []string{"SELECT Name FROM Country WHERE Population > 5000000"}}); err != nil {
		t.Fatal(err)
	}
	after := sweptPerShard()
	bound := uint64((size+n-1)/n + 1)
	var total uint64
	for i := range after {
		d := after[i] - before[i]
		if d == 0 {
			t.Errorf("shard %d swept nothing on a cold quote", i)
		}
		if d > bound {
			t.Errorf("shard %d swept %d rows on one cold quote, bound is %d", i, d, bound)
		}
		total += d
	}
	if total != size {
		t.Errorf("shards swept %d rows in total, want exactly |S| = %d", total, size)
	}

	// Warm path: same quote again — served from the router's cache, no
	// shard sweeps at all.
	before = sweptPerShard()
	if _, err := routed.Price(context.Background(), qirana.PriceRequest{SQLs: []string{"SELECT Name FROM Country WHERE Population > 5000000"}}); err != nil {
		t.Fatal(err)
	}
	after = sweptPerShard()
	for i := range after {
		if after[i] != before[i] {
			t.Errorf("shard %d swept %d rows on a warm quote, want 0", i, after[i]-before[i])
		}
	}

	// Observability rides along: the router recorded the fan-out and the
	// merge, the shards recorded their sweeps.
	rm := routed.Metrics()
	if rm.Counters["router_fanout_rpcs"] != n {
		t.Errorf("router_fanout_rpcs = %d, want %d", rm.Counters["router_fanout_rpcs"], n)
	}
	for _, name := range []string{"router_fanout", "router_merge", "router_straggler_gap"} {
		if rm.Latencies[name].Count == 0 {
			t.Errorf("router latency %q was never observed", name)
		}
	}
	for i, b := range cl.Brokers {
		sm := b.Metrics()
		if sm.Counters["shard_sweep_requests"] == 0 {
			t.Errorf("shard %d recorded no sweep requests", i)
		}
		if sm.Latencies["shard_sweep"].Count == 0 {
			t.Errorf("shard %d recorded no sweep latency", i)
		}
	}
}

// flakyShard fronts a shard handler with a switchable partition: while
// down, every request answers 503 without reaching the shard.
type flakyShard struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, `{"error": "network partition"}`, http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

// TestClusterPartitionRecovery drives the router error semantics end to
// end: with one shard partitioned away — and degraded-mode quotes
// explicitly disabled — a cold quote fails with ErrShardUnavailable
// (503 + Retry-After over HTTP) and no partial price is ever merged or
// cached; the shard's circuit breaker opens under the repeated faults;
// once the shard heals and the cooldown elapses, the same quote prices
// bit-identically to a single node. (The degraded-quotes default is
// covered by TestClusterDegradedQuoteUpperBound in chaos_test.go.)
func TestClusterPartitionRecovery(t *testing.T) {
	const size = 150
	db, single, _ := twinPair(t, "world", 1, 0, size)
	// Same dataset, seed and size as the twin — identical support set —
	// but with the degraded fallback off, so outages surface as errors.
	routed, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: size, Seed: 7, DisableDegradedQuotes: true})
	if err != nil {
		t.Fatal(err)
	}

	brokers, err := shard.NewShardBrokers(routed, db, 3, qirana.Options{SupportSetSize: size, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	flakies := make([]*flakyShard, 3)
	urls := make([]string, 3)
	for i, b := range brokers {
		flakies[i] = &flakyShard{h: shard.Handler(b)}
		srv := httptest.NewServer(flakies[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	fan, err := shard.Connect(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A tight policy so the breaker's whole lifecycle fits in the test:
	// 2 attempts per sweep, trip after 4 faults, 50ms cooldown.
	pol := shard.DefaultFaultPolicy()
	pol.MaxAttempts = 2
	pol.RetryBase, pol.RetryMax = time.Millisecond, 4*time.Millisecond
	pol.BreakerThreshold = 4
	pol.BreakerCooldown = 50 * time.Millisecond
	pol.DisableHedging = true
	fan.SetPolicy(pol)
	routed.SetRemoteSweeper(fan)

	// Partition shard 1 and quote cold: the whole fan-out must fail.
	flakies[1].down.Store(true)
	const sql = "SELECT Name FROM Country WHERE Population > 2000000"
	if _, err := routed.Price(context.Background(), qirana.PriceRequest{SQLs: []string{sql}}); !errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("quote with a partitioned shard: err=%v, want ErrShardUnavailable", err)
	}

	// Over HTTP the failure is a retryable 503, and purchases refuse the
	// same way — nothing was charged.
	api := newRouterAPI(routed)
	rr := postJSON(t, api, "/quote", fmt.Sprintf(`{"sql": %q}`, sql))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/quote during partition: status %d, want 503 (body %s)", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("/quote 503 is missing Retry-After")
	}
	rr = postJSON(t, api, "/ask", fmt.Sprintf(`{"buyer": "alice", "sql": %q}`, sql))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/ask during partition: status %d, want 503 (body %s)", rr.Code, rr.Body)
	}
	if paid := routed.TotalPaid("alice"); paid != 0 {
		t.Fatalf("alice was charged %v during a failed fan-out", paid)
	}

	// A gen the cluster was not connected at is a mismatch, not a retry.
	if _, _, err := fan.SweepBits(context.Background(), []string{sql}, qirana.SweepSpec{SupportGen: routed.SupportGen() + 1}); !errors.Is(err, qirana.ErrSupportMismatch) {
		t.Fatalf("stale-gen sweep: err=%v, want ErrSupportMismatch", err)
	}

	// The repeated faults tripped shard 1's breaker: the next failure is
	// a fast reject carrying a machine-readable Retry-After hint.
	if v := routed.Metrics().Counters["breaker_open"]; v == 0 {
		t.Error("breaker_open never moved under a persistent partition")
	}
	if _, err := routed.Price(context.Background(), qirana.PriceRequest{SQLs: []string{sql + " "}}); err == nil {
		t.Fatal("open breaker: quote succeeded during the partition")
	} else if hint, ok := qirana.RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("open-breaker error carries no Retry-After hint: %v", err)
	}

	// Heal the partition and wait out the cooldown: the half-open probe
	// re-admits the shard, and the quote must now be cold-computed
	// (nothing partial was cached) and bit-identical to the twin.
	flakies[1].down.Store(false)
	time.Sleep(pol.BreakerCooldown + 20*time.Millisecond)
	want, err := single.Price(context.Background(), qirana.PriceRequest{SQLs: []string{sql}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := routed.Price(context.Background(), qirana.PriceRequest{SQLs: []string{sql}})
	if err != nil {
		t.Fatal(err)
	}
	if got.PerQuery[0].Cached {
		t.Fatal("post-partition quote was served from cache: a partial result leaked in")
	}
	assertSamePrice(t, "post-partition", got, want)
	if errs := routed.Metrics().Counters["router_shard_errors"]; errs == 0 {
		t.Error("router_shard_errors counter never moved")
	}
	if v := routed.Metrics().Counters["breaker_close"]; v == 0 {
		t.Error("breaker never recorded its recovery after the heal")
	}
}

// TestClusterShardSweepGenMismatch409 pins the wire-level contract: a
// slice request carrying the wrong support generation or checksum is a
// 409 at the shard, and the shard refuses purchases outright (503).
func TestClusterShardSweepGenMismatch409(t *testing.T) {
	const size = 100
	db, _, routed := twinPair(t, "world", 1, 0, size)
	brokers, err := shard.NewShardBrokers(routed, db, 1, qirana.Options{SupportSetSize: size, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(shard.Handler(brokers[0]))
	t.Cleanup(srv.Close)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/shard/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	wrongGen := fmt.Sprintf(`{"sqls": ["SELECT Name FROM Country"], "lo": 0, "hi": %d, "support_gen": 99, "support_sum": %d}`,
		size, brokers[0].SupportChecksum())
	if resp := post(wrongGen); resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong gen: status %d, want 409", resp.StatusCode)
	}
	wrongSum := fmt.Sprintf(`{"sqls": ["SELECT Name FROM Country"], "lo": 0, "hi": %d, "support_gen": %d, "support_sum": 1}`,
		size, brokers[0].SupportGen())
	if resp := post(wrongSum); resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong checksum: status %d, want 409", resp.StatusCode)
	}
	badSlice := fmt.Sprintf(`{"sqls": ["SELECT Name FROM Country"], "lo": 5, "hi": %d, "support_gen": %d, "support_sum": %d}`,
		size+1, brokers[0].SupportGen(), brokers[0].SupportChecksum())
	if resp := post(badSlice); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range slice: status %d, want 400", resp.StatusCode)
	}
	if _, err := brokers[0].Purchase(context.Background(), qirana.PurchaseRequest{Buyer: "eve", SQL: "SELECT Name FROM Country"}); !errors.Is(err, qirana.ErrReadOnly) {
		t.Fatalf("purchase on a shard worker: err=%v, want ErrReadOnly", err)
	}
}

// TestClusterFailoverCrashRecovery is the kill-node torture: a durable
// leader fronting a 3-shard cluster dies mid-purchase at each ledger
// failpoint; the hot standby tails its directory, promotes, and must
// agree bit-for-bit with a never-crashed twin — acknowledged purchases
// survive exactly once, unacknowledged ones vanish, and re-buying an
// owned answer charges zero.
func TestClusterFailoverCrashRecovery(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := qirana.Options{SupportSetSize: 120, Seed: 7}
	buys := []struct{ buyer, sql string }{
		{"alice", "SELECT Continent FROM Country"},
		{"bob", "SELECT Name FROM Country WHERE Continent = 'Asia'"},
		{"alice", "SELECT Continent, count(*) FROM Country GROUP BY Continent"},
		{"carol", "SELECT count(*) FROM Country WHERE Continent = 'Asia'"},
	}
	newTwinAt := func(k int) *qirana.Broker {
		tw, err := qirana.NewBroker(db, 100, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			mustBuy(t, tw, buys[i].buyer, buys[i].sql)
		}
		return tw
	}
	cases := []struct {
		fp      string
		arm     func(k int)
		durable bool // the in-flight purchase is on disk when the leader dies
	}{
		{durable.FpLedgerAppend, func(k int) { failpoint.EnableAfter(durable.FpLedgerAppend, nil, k) }, false},
		{durable.FpLedgerWrite, func(k int) { failpoint.EnableShortWriteAfter(durable.FpLedgerWrite, 13, nil, k) }, false},
		{durable.FpLedgerFsync, func(k int) { failpoint.EnableAfter(durable.FpLedgerFsync, nil, k) }, true},
		{durable.FpLedgerAck, func(k int) { failpoint.EnableAfter(durable.FpLedgerAck, nil, k) }, true},
	}
	for _, tc := range cases {
		for k := 1; k < len(buys); k++ {
			t.Run(fmt.Sprintf("%s/purchase-%d", tc.fp, k), func(t *testing.T) {
				failpoint.Reset()
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()
				lopt := opt
				lopt.DataDir = dir
				leader, err := qirana.NewBroker(db, 100, lopt)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := shard.AttachLocal(leader, db, 3, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()

				// The standby tails the leader's directory while it runs.
				follower, err := qirana.OpenFollower(dir, db, opt)
				if err != nil {
					t.Fatal(err)
				}

				tc.arm(k)
				ctx := context.Background()
				for i := 0; i < len(buys); i++ {
					_, err := leader.Purchase(ctx, qirana.PurchaseRequest{Buyer: buys[i].buyer, SQL: buys[i].sql})
					if i < k && err != nil {
						t.Fatalf("purchase %d failed before the armed fault: %v", i, err)
					}
					if i == k {
						if !errors.Is(err, qirana.ErrDurability) {
							t.Fatalf("faulted purchase %d: err=%v, want ErrDurability", k, err)
						}
						break // the leader "dies" here: never Closed, never used again
					}
				}
				failpoint.Reset()

				// Pre-promotion the standby is a read-only mirror: quotes
				// work, purchases are refused.
				if err := follower.Refresh(); err != nil {
					t.Fatalf("standby refresh over the dead leader's directory: %v", err)
				}
				mirror := follower.Broker()
				if _, err := mirror.Purchase(ctx, qirana.PurchaseRequest{Buyer: "eve", SQL: buys[0].sql}); !errors.Is(err, qirana.ErrReadOnly) {
					t.Fatalf("standby purchase before promotion: err=%v, want ErrReadOnly", err)
				}

				promoted, err := follower.Promote()
				if err != nil {
					t.Fatalf("promote: %v", err)
				}
				defer promoted.Close()
				if _, err := follower.Promote(); err == nil {
					t.Fatal("second promotion must be refused")
				}

				// The promoted standby must equal a twin that saw exactly
				// the acknowledged purchases — plus the ambiguous one iff
				// it hit the disk before the fault.
				applied := k
				if tc.durable {
					applied = k + 1
				}
				tw := newTwinAt(applied)
				buyers := map[string]bool{}
				for _, p := range buys {
					buyers[p.buyer] = true
				}
				for buyer := range buyers {
					if got, want := promoted.TotalPaid(buyer), tw.TotalPaid(buyer); got != want {
						t.Fatalf("buyer %s after failover: balance %v, twin %v", buyer, got, want)
					}
				}
				// Replaying the remaining purchases on the promoted broker
				// charges exactly what the twin charges: nothing was lost,
				// nothing double-charged.
				for i := applied; i < len(buys); i++ {
					got := mustBuy(t, promoted, buys[i].buyer, buys[i].sql)
					want := mustBuy(t, tw, buys[i].buyer, buys[i].sql)
					if got.Gross != want.Gross || got.Net != want.Net || got.Balance != want.Balance {
						t.Fatalf("post-failover purchase %d: %+v != twin %+v", i, got, want)
					}
				}
				// Re-buying an acknowledged answer is free: the history
				// survived the failover.
				if applied > 0 {
					if net := mustBuy(t, promoted, buys[0].buyer, buys[0].sql).Net; net != 0 {
						t.Fatalf("re-purchase of an owned answer after failover: net %v, want 0", net)
					}
				}
			})
		}
	}
}

// TestClusterFollowerTailsLiveLedger pins the tailing semantics: a
// follower refreshed after each live purchase converges on the leader's
// balances without ever disturbing the leader's ledger file.
func TestClusterFollowerTailsLiveLedger(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := qirana.Options{SupportSetSize: 80, Seed: 7}
	dir := t.TempDir()
	lopt := opt
	lopt.DataDir = dir
	leader, err := qirana.NewBroker(db, 100, lopt)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := qirana.OpenFollower(dir, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		"SELECT Continent FROM Country",
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT count(*) FROM CountryLanguage",
	}
	for i, sql := range sqls {
		mustBuy(t, leader, "alice", sql)
		if err := follower.Refresh(); err != nil {
			t.Fatalf("refresh after purchase %d: %v", i, err)
		}
		if got, want := follower.Broker().TotalPaid("alice"), leader.TotalPaid("alice"); got != want {
			t.Fatalf("after purchase %d: follower balance %v, leader %v", i, got, want)
		}
		if follower.AppliedSeq() == 0 {
			t.Fatalf("follower applied no ledger records after purchase %d", i)
		}
	}
	if follower.Promoted() {
		t.Fatal("follower reports promoted without Promote")
	}
}
