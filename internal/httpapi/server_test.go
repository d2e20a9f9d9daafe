// Fault-tolerance observability over the HTTP surface. This file lives
// in package httpapi_test (not httpapi) because it stands up a real
// 3-shard cluster via internal/shard, which itself imports httpapi —
// an in-package test would be an import cycle.
//
// The contract under test: every fault-tolerance event the fan-out
// takes on a client's behalf — a retry, a hedged duplicate, a breaker
// trip, a degraded quote — is observable from the outside, as counters
// in /metrics and the /stats "cluster" block, and (for refusals) as the
// typed shard_unavailable envelope with a live retry_after.
package httpapi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qirana"
	"qirana/internal/failpoint"
	"qirana/internal/httpapi"
	"qirana/internal/obs"
	"qirana/internal/shard"
)

// newClusterServer serves the HTTP API over a 3-shard routed broker,
// each shard fronted by a quiet ChaosProxy (no probabilistic faults —
// tests inject exactly the fault they want via failpoints).
func newClusterServer(t *testing.T) (*httptest.Server, []*shard.ChaosProxy) {
	t.Helper()
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := shard.NewShardBrokers(routed, db, 3, qirana.Options{SupportSetSize: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	proxies := make([]*shard.ChaosProxy, len(brokers))
	urls := make([]string, len(brokers))
	for i, b := range brokers {
		proxies[i] = shard.NewChaosProxy(shard.Handler(b), shard.ChaosConfig{
			Name: fmt.Sprintf("%s/shard%d", t.Name(), i),
			Seed: int64(i + 1),
			// Keep the one-shot stall well past the hedge delay but
			// short enough that a lost race resolves quickly.
			StallDelay: 400 * time.Millisecond,
		})
		srv := httptest.NewServer(proxies[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	fan, err := shard.Connect(context.Background(), urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := shard.DefaultFaultPolicy()
	pol.MaxAttempts = 4
	pol.RetryBase = time.Millisecond
	pol.RetryMax = 4 * time.Millisecond
	pol.BreakerThreshold = 3
	pol.BreakerCooldown = 200 * time.Millisecond
	// Well above any honest sweep latency (even under -race) but well
	// below StallDelay: only the stalled request ever hedges, so the
	// retry and hedge steps each move exactly their own counter.
	pol.HedgeAfter = 100 * time.Millisecond
	fan.SetPolicy(pol)
	routed.SetRemoteSweeper(fan)
	t.Cleanup(failpoint.Reset)

	ts := httptest.NewServer(httpapi.New(routed, 30*time.Second))
	t.Cleanup(ts.Close)
	return ts, proxies
}

// statsCluster fetches the /stats "cluster" counter block.
func statsCluster(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	var body struct {
		Cluster map[string]uint64 `json:"cluster"`
	}
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return body.Cluster
}

// metricsCounters fetches the raw counter map from /metrics.
func metricsCounters(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	var snap obs.Snapshot
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap.Counters
}

func quote(t *testing.T, baseURL, sql string) (int, qirana.PriceResponse) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/quote", "application/json",
		strings.NewReader(`{"sql": "`+sql+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr qirana.PriceResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("decode quote: %v", err)
		}
	}
	return resp.StatusCode, pr
}

// TestClusterFaultCountersOverHTTP injects one fault of each kind and
// asserts the matching counter moves — in /metrics AND the /stats
// cluster block — and that a hard outage surfaces as a degraded quote
// (not a 503) while a purchase during the same outage refuses with the
// typed envelope and a real retry_after.
func TestClusterFaultCountersOverHTTP(t *testing.T) {
	ts, proxies := newClusterServer(t)

	// Baseline: a clean exact quote, no fault counters moving.
	if status, pr := quote(t, ts.URL, "SELECT Name FROM Country WHERE Population > 1000000"); status != http.StatusOK {
		t.Fatalf("baseline quote: status %d", status)
	} else if pr.PerQuery[0].Estimate != nil {
		t.Fatalf("baseline quote must be exact, got estimate %+v", pr.PerQuery[0].Estimate)
	}
	base := statsCluster(t, ts.URL)
	if base["router_retries"] != 0 || base["breaker_open"] != 0 || base["router_degraded_quotes"] != 0 {
		t.Fatalf("counters moved before any fault: %v", base)
	}

	// One injected 500 on shard 0: the sweep retries and succeeds.
	failpoint.Enable(proxies[0].Failpoint(shard.ChaosErr), nil)
	if status, _ := quote(t, ts.URL, "SELECT Name FROM Country WHERE Population > 2000000"); status != http.StatusOK {
		t.Fatalf("quote through transient 500: status %d", status)
	}
	if c := statsCluster(t, ts.URL); c["router_retries"] == 0 {
		t.Fatalf("router_retries did not move after injected 500: %v", c)
	}

	// One injected stall on shard 1: the hedge fires and the duplicate
	// wins (the stalled copy holds the request far past HedgeAfter).
	failpoint.Enable(proxies[1].Failpoint(shard.ChaosStall), nil)
	if status, _ := quote(t, ts.URL, "SELECT Name FROM Country WHERE Population > 3000000"); status != http.StatusOK {
		t.Fatalf("quote through stall: status %d", status)
	}
	if c := statsCluster(t, ts.URL); c["router_hedges"] == 0 || c["router_hedge_wins"] == 0 {
		t.Fatalf("hedge counters did not move after injected stall: %v", c)
	}

	// Shard 2 hard-down (sticky drop): the retry budget exhausts, the
	// breaker opens, and the quote degrades instead of failing — the
	// provenance block says so.
	failpoint.EnableSticky(proxies[2].Failpoint(shard.ChaosDrop), nil)
	status, pr := quote(t, ts.URL, "SELECT Name FROM Country WHERE Population > 4000000")
	if status != http.StatusOK {
		t.Fatalf("quote during hard outage: status %d, want 200 degraded", status)
	}
	est := pr.PerQuery[0].Estimate
	if est == nil || !est.Degraded {
		t.Fatalf("outage quote must carry degraded provenance, got %+v", est)
	}
	if est.MissingFrac <= 0 || est.MissingFrac >= 1 {
		t.Fatalf("missing_frac = %v, want in (0, 1)", est.MissingFrac)
	}
	c := statsCluster(t, ts.URL)
	if c["router_degraded_quotes"] == 0 || c["breaker_open"] == 0 {
		t.Fatalf("degraded/breaker counters did not move during outage: %v", c)
	}

	// A purchase during the outage must NOT degrade: typed envelope,
	// shard_unavailable, retry_after from the breaker cooldown.
	resp, err := http.Post(ts.URL+"/v1/ask", "application/json",
		strings.NewReader(`{"buyer": "alice", "sql": "SELECT Name FROM Country WHERE Population > 4000000"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("purchase during outage: status %d, want 503", resp.StatusCode)
	}
	var env struct {
		Error httpapi.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("purchase error body not the typed envelope: %v", err)
	}
	if env.Error.Code != httpapi.CodeShardUnavailable || env.Error.RetryAfter < 1 {
		t.Fatalf("purchase envelope = %+v, want code %q retry_after >= 1",
			env.Error, httpapi.CodeShardUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("purchase 503 missing Retry-After header")
	}

	// Every counter the suite asserts on is also visible in /metrics —
	// the scrape surface and /stats must agree on names.
	m := metricsCounters(t, ts.URL)
	for _, name := range []string{
		"router_retries", "router_hedges", "router_hedge_wins",
		"breaker_open", "router_degraded_quotes", "router_degraded_sweeps",
	} {
		if m[name] == 0 {
			t.Errorf("/metrics counter %q = 0, want > 0 (have: %v)", name, m)
		}
		if m[name] != c[name] && name != "router_degraded_quotes" && name != "breaker_open" {
			// /stats was scraped before the purchase attempt; counters
			// only ever move forward.
			if m[name] < c[name] {
				t.Errorf("/metrics %q = %d < /stats %d", name, m[name], c[name])
			}
		}
	}
}
