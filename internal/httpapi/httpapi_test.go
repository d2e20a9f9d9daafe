package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"qirana"
	"qirana/internal/durable"
	"qirana/internal/failpoint"
)

// newTestServer builds the daemon's mux over a small world broker.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(b, 30*time.Second))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

const testSQL = `SELECT Name FROM Country WHERE Continent = 'Asia'`

func TestQuoteEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp qirana.PriceResponse
	r := postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+testSQL+`"}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Total <= 0 || len(resp.Prices) != 1 || resp.Prices[0] != resp.Total {
		t.Fatalf("bad response: %+v", resp)
	}
	if len(resp.PerQuery) != 1 || resp.PerQuery[0].Cached {
		t.Fatalf("cold quote must not report cached: %+v", resp.PerQuery)
	}

	// The same quote again is served from the cache, bit-identically.
	var again qirana.PriceResponse
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+testSQL+`"}`, &again)
	if again.Total != resp.Total || !again.PerQuery[0].Cached {
		t.Fatalf("warm quote: total %v (want %v), cached %v (want true)",
			again.Total, resp.Total, again.PerQuery[0].Cached)
	}

	// A different pricing function changes the price space but still works.
	var sh qirana.PriceResponse
	r = postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+testSQL+`", "func": "shannon"}`, &sh)
	if r.StatusCode != http.StatusOK || sh.Total <= 0 {
		t.Fatalf("shannon quote: status %d, %+v", r.StatusCode, sh)
	}
}

func TestQuoteBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	body := `{"sqls": ["` + testSQL + `", "SELECT Name FROM Country WHERE Population > 100000000", "` + testSQL + `"]}`
	var resp qirana.PriceResponse
	r := postJSON(t, ts.URL+"/v1/quote/batch", body, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if len(resp.Prices) != 3 || len(resp.PerQuery) != 3 {
		t.Fatalf("want 3 prices, got %+v", resp)
	}
	if resp.Prices[0] != resp.Prices[2] {
		t.Fatalf("duplicate query priced differently: %v vs %v", resp.Prices[0], resp.Prices[2])
	}
	sum := resp.Prices[0] + resp.Prices[1] + resp.Prices[2]
	if resp.Total != sum {
		t.Fatalf("total %v != sum %v", resp.Total, sum)
	}

	// Bundle mode prices all queries as one purchase: one entry,
	// sub-additive vs the independent sum.
	var bundle qirana.PriceResponse
	postJSON(t, ts.URL+"/v1/quote/batch", `{"sqls": ["`+testSQL+`", "SELECT Name FROM Country WHERE Population > 100000000"], "bundle": true}`, &bundle)
	if len(bundle.Prices) != 1 {
		t.Fatalf("bundle wants one price, got %+v", bundle.Prices)
	}
	if bundle.Total > resp.Prices[0]+resp.Prices[1]+1e-9 {
		t.Fatalf("bundle price %v exceeds independent sum %v", bundle.Total, resp.Prices[0]+resp.Prices[1])
	}
}

func TestAskEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var rec askResponse
	r := postJSON(t, ts.URL+"/v1/ask", `{"buyer": "alice", "sql": "`+testSQL+`"}`, &rec)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if rec.Net <= 0 || rec.Gross != rec.Net || rec.Balance != rec.Net {
		t.Fatalf("first purchase: %+v", rec.Receipt)
	}
	if len(rec.Cols) == 0 || len(rec.Rows) == 0 {
		t.Fatalf("answer missing: cols %v, %d rows", rec.Cols, len(rec.Rows))
	}

	// Asking the same query again is free (history-aware pricing) and the
	// refund settlement reports the same gross reimbursed in full.
	var again askResponse
	postJSON(t, ts.URL+"/v1/ask", `{"buyer": "alice", "sql": "`+testSQL+`", "refund": true}`, &again)
	if again.Net != 0 || again.Refund != again.Gross || again.Balance != rec.Balance {
		t.Fatalf("repeat purchase: %+v", again.Receipt)
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+testSQL+`"}`, nil)

	var stats map[string]json.RawMessage
	if r := getJSON(t, ts.URL+"/v1/stats", &stats); r.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", r.StatusCode)
	}
	for _, k := range []string{"support_set_size", "total_price", "quote_cache"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, stats)
		}
	}

	var m qirana.MetricsSnapshot
	if r := getJSON(t, ts.URL+"/v1/metrics", &m); r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", r.StatusCode)
	}
	if m.Counters["broker_price_requests"] == 0 {
		t.Fatalf("metrics did not count the quote: %+v", m.Counters)
	}
	if lat, ok := m.Latencies["broker_price"]; !ok || lat.Count == 0 {
		t.Fatalf("metrics missing broker_price latency: %+v", m.Latencies)
	}
	// The cold quote took a sweep slot: its queueing time and the
	// sweeps-in-flight high-water mark are exported.
	if lat, ok := m.Latencies["sweep_wait"]; !ok || lat.Count == 0 {
		t.Fatalf("metrics missing sweep_wait: %+v", m.Latencies)
	}
	if m.Counters["sweeps_inflight_max"] < 1 {
		t.Fatalf("metrics missing the sweeps_inflight_max high-water mark: %+v", m.Counters)
	}
}

// TestTierCountersExported drives a workload through the delta tiers (a
// MIN/MAX group-by resolves extremum removals against candidate views, a
// DISTINCT query against a multiplicity view) and asserts the per-tier hit
// counts surface in both the quote response's stats and /metrics and move.
func TestTierCountersExported(t *testing.T) {
	ts := newTestServer(t)
	var quote struct {
		Stats map[string]int `json:"stats"`
	}
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "SELECT Continent, max(Population) FROM Country GROUP BY Continent"}`, &quote)
	for _, k := range []string{"DeltaFull", "DeltaPartial", "FullRuns"} {
		if _, ok := quote.Stats[k]; !ok {
			t.Fatalf("quote stats missing %q: %v", k, quote.Stats)
		}
	}
	if quote.Stats["DeltaFull"]+quote.Stats["DeltaPartial"] == 0 {
		t.Fatalf("MIN/MAX workload never used the delta tiers: %v", quote.Stats)
	}

	var m qirana.MetricsSnapshot
	getJSON(t, ts.URL+"/v1/metrics", &m)
	for _, k := range []string{"checker_delta_full", "checker_delta_partial", "checker_delta_fallback"} {
		if _, ok := m.Counters[k]; !ok {
			t.Fatalf("metrics missing %q: %+v", k, m.Counters)
		}
	}
	before := m.Counters["checker_delta_partial"]

	// A DISTINCT query routes its residual checks through the multiplicity
	// view: the partial-tier counter must move.
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "SELECT DISTINCT Continent FROM Country"}`, &quote)
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.Counters["checker_delta_partial"] <= before {
		t.Fatalf("partial-tier counter did not move: %d -> %d", before, m.Counters["checker_delta_partial"])
	}
	if quote.Stats["DeltaPartial"] == 0 {
		t.Fatalf("DISTINCT workload reported no partial-tier checks: %v", quote.Stats)
	}
}

func TestDebugEndpoints(t *testing.T) {
	ts := newTestServer(t)
	var vars map[string]json.RawMessage
	if r := getJSON(t, ts.URL+"/debug/vars", &vars); r.StatusCode != http.StatusOK {
		t.Fatalf("expvar status = %d", r.StatusCode)
	}
	if _, ok := vars["qirana"]; !ok {
		t.Fatalf("expvar missing the qirana metrics registry")
	}
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	// msg pins the exact message where the handler writes its own
	// invalid_request; "" leaves a broker-sourced message unpinned.
	cases := []struct{ url, body, msg string }{
		{"/v1/quote", `{`, "decode request: unexpected EOF"},
		{"/v1/quote", `{}`, `request carries no queries (set "sql" or "sqls")`},
		{"/v1/quote", `{"sql": "SELECT"}`, ""},
		{"/v1/quote", `{"sql": "x", "sqls": ["y"]}`, `set "sql" or "sqls", not both`},
		{"/v1/quote", `{"sql": "` + testSQL + `", "func": "nope"}`, `unknown pricing function "nope" (want coverage, gain, shannon or qentropy)`},
		{"/v1/quote", `{"sqls": ["a", "b"]}`, "independent multi-query pricing belongs on /quote/batch (or set bundle:true)"},
		{"/v1/quote", `{"sql": "` + testSQL + `", "params": [1]}`, `"params" requires "stmt" (prepare the template via POST /prepare)`},
		{"/v1/quote", `{"sql": "SELECT 1", "stmt": 1}`, `"stmt" excludes "sql", "sqls" and "bundle"`},
		{"/v1/quote/batch", `{"stmt": 1, "params": [1]}`, "prepared statements are priced on /quote, not /quote/batch"},
		{"/v1/ask", `{"sql": "` + testSQL + `"}`, `request carries no buyer (set "buyer")`},
		{"/v1/ask", `{"buyer": "a", "sql": "SELECT"}`, ""},
		{"/v1/ask", `{"buyer": "a", "sql": "SELECT 1", "stmt": 1}`, `"stmt" excludes "sql"`},
		{"/v1/ask", `{"buyer": "a", "sql": "SELECT 1", "params": [1]}`, `"params" requires "stmt" (prepare the template via POST /prepare)`},
	}
	for _, c := range cases {
		var e struct {
			Error Error `json:"error"`
		}
		r := postJSON(t, ts.URL+c.url, c.body, &e)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.url, c.body, r.StatusCode)
		}
		if e.Error.Message == "" || e.Error.Code == "" {
			t.Errorf("POST %s %s: error envelope missing code or message: %+v", c.url, c.body, e.Error)
		}
		if c.msg != "" && (e.Error.Code != CodeInvalidRequest || e.Error.Message != c.msg) {
			t.Errorf("POST %s %s: %s %q, want %s %q", c.url, c.body, e.Error.Code, e.Error.Message, CodeInvalidRequest, c.msg)
		}
	}
}

func TestErrorStatusMapping(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{qirana.ErrShardUnavailable, http.StatusServiceUnavailable},
		{qirana.ErrReadOnly, http.StatusServiceUnavailable},
		{qirana.ErrSupportMismatch, http.StatusConflict},
	} {
		rr := httptest.NewRecorder()
		WriteRequestError(rr, c.err)
		if rr.Code != c.want {
			t.Errorf("WriteRequestError(%v) = %d, want %d", c.err, rr.Code, c.want)
		}
	}
}

// TestRequestTimeoutCancelsSweep drives a cold quote through the HTTP
// layer with a microscopic ?timeout_ms= and expects the 504 mapping —
// proving the deadline reaches the sweep through every layer. The broker
// must stay consistent: the same quote afterwards (no deadline) succeeds.
func TestRequestTimeoutCancelsSweep(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A large support set so the cold sweep reliably outlives 1ms.
	b, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(b, 0))
	defer ts.Close()

	// ORDER BY + LIMIT keeps the query off the fast path: re-executed per
	// support element, its sweep cannot beat the deadline.
	sql := `SELECT Name, Population FROM City WHERE Population > 1000000 ORDER BY Population, Name LIMIT 20`
	r := postJSON(t, ts.URL+"/v1/quote?timeout_ms=1", `{"sql": "`+sql+`"}`, nil)
	if r.StatusCode != http.StatusGatewayTimeout {
		// On a fast machine the sweep may beat the deadline; accept 200
		// but require one of the two — anything else is a bug.
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 504 or 200", r.StatusCode)
		}
		t.Skip("sweep finished inside 1ms; timeout path not exercised")
	}

	var resp qirana.PriceResponse
	if r := postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+sql+`"}`, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("follow-up quote after timeout: status %d", r.StatusCode)
	}
	if resp.Total <= 0 {
		t.Fatalf("follow-up quote priced %v", resp.Total)
	}
}

// TestOversizedBodyRejected: request bodies beyond the cap get a 413
// with a JSON error, on both pricing and purchasing endpoints.
func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t)
	big := `{"sql": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, url := range []string{"/v1/quote", "/v1/ask"} {
		var e struct {
			Error Error `json:"error"`
		}
		r := postJSON(t, ts.URL+url, big, &e)
		if r.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status %d, want 413", url, r.StatusCode)
		}
		if e.Error.Code != CodePayloadTooLarge || e.Error.Message != "request body exceeds 1048576 bytes" {
			t.Errorf("POST %s oversized: %s %q, want %s", url, e.Error.Code, e.Error.Message, CodePayloadTooLarge)
		}
	}
}

// TestDurableRestartServesSameState is the daemon-level recovery story:
// a server over a durable broker takes purchases, dies without Close
// (SIGKILL — the broker is simply abandoned), and a second OpenBroker
// over the same directory serves identical quotes and balances, with the
// recovery visible in /stats.
func TestDurableRestartServesSameState(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := qirana.Options{SupportSetSize: 150, Seed: 3}
	b1, err := qirana.OpenBroker(dir, db, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(New(b1, 30*time.Second))
	var rec1 askResponse
	postJSON(t, ts1.URL+"/v1/ask", `{"buyer": "alice", "sql": "`+testSQL+`"}`, &rec1)
	var rec2 askResponse
	postJSON(t, ts1.URL+"/v1/ask", `{"buyer": "bob", "sql": "SELECT * FROM CountryLanguage"}`, &rec2)
	var q1 qirana.PriceResponse
	postJSON(t, ts1.URL+"/v1/quote", `{"sql": "SELECT Continent, count(*) FROM Country GROUP BY Continent"}`, &q1)
	ts1.Close() // SIGKILL: b1 is never Closed, so nothing was checkpointed

	b2, err := qirana.OpenBroker(dir, db, 0, opts)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer b2.Close()
	ts2 := httptest.NewServer(New(b2, 30*time.Second))
	defer ts2.Close()

	var stats struct {
		Durability qirana.DurabilityInfo `json:"durability"`
	}
	getJSON(t, ts2.URL+"/v1/stats", &stats)
	if !stats.Durability.Enabled || stats.Durability.ReplayedRecords != 2 || stats.Durability.TruncatedTail {
		t.Fatalf("/stats durability after restart: %+v, want 2 replayed records", stats.Durability)
	}

	// Quotes are bit-identical across the restart.
	var q2 qirana.PriceResponse
	postJSON(t, ts2.URL+"/v1/quote", `{"sql": "SELECT Continent, count(*) FROM Country GROUP BY Continent"}`, &q2)
	if q2.Total != q1.Total {
		t.Fatalf("quote across restart: %v, want %v", q2.Total, q1.Total)
	}
	// Alice's history survived: re-buying her query refunds it in full
	// and her balance is exactly the pre-kill receipt's.
	var again askResponse
	postJSON(t, ts2.URL+"/v1/ask", `{"buyer": "alice", "sql": "`+testSQL+`", "refund": true}`, &again)
	if again.Net != 0 || again.Refund != again.Gross || again.Balance != rec1.Balance {
		t.Fatalf("alice after restart: %+v, want full refund at balance %v", again.Receipt, rec1.Balance)
	}
}

// TestLedgerFailureMapsTo503: a ledger-append failure is retryable — the
// buyer was not charged — so the daemon answers 503 with Retry-After,
// and the retried purchase succeeds.
func TestLedgerFailureMapsTo503(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qirana.OpenBroker(t.TempDir(), db, 100, qirana.Options{SupportSetSize: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ts := httptest.NewServer(New(b, 30*time.Second))
	defer ts.Close()

	failpoint.Enable(durable.FpLedgerAppend, nil)
	defer failpoint.Reset()
	body := `{"buyer": "alice", "sql": "` + testSQL + `"}`
	var e struct {
		Error Error `json:"error"`
	}
	r := postJSON(t, ts.URL+"/v1/ask", body, &e)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted purchase: status %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if e.Error.Code != CodeDurability || e.Error.Message == "" || e.Error.RetryAfter != 1 {
		t.Fatalf("503 envelope: %+v, want code %q with retry_after 1", e.Error, CodeDurability)
	}
	var rec askResponse
	if r := postJSON(t, ts.URL+"/v1/ask", body, &rec); r.StatusCode != http.StatusOK || rec.Net <= 0 {
		t.Fatalf("retry after 503: status %d, receipt %+v — the failed attempt must not have charged", r.StatusCode, rec.Receipt)
	}
}

// TestPrepareEndpoint drives the prepared-statement flow over the wire:
// prepare a template, price instances (bit-identical to the equivalent
// ad-hoc quote, sharing its cache entries), buy an instance, and check
// the kind-split cache counters surface in /stats and /metrics.
func TestPrepareEndpoint(t *testing.T) {
	ts := newTestServer(t)

	var prep prepareResponse
	r := postJSON(t, ts.URL+"/v1/prepare", `{"sql": "SELECT Name FROM Country WHERE Population > $1"}`, &prep)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d", r.StatusCode)
	}
	if prep.Stmt == 0 || prep.NumParams != 1 || !strings.Contains(prep.Template, "?") {
		t.Fatalf("bad prepare response: %+v", prep)
	}

	// Ad-hoc quote of the substituted SQL, then the prepared instance:
	// identical price, served from the shared template entry.
	var adhoc, inst qirana.PriceResponse
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "SELECT Name FROM Country WHERE Population > 5000000"}`, &adhoc)
	body := `{"stmt": ` + strconv.FormatInt(prep.Stmt, 10) + `, "params": [5000000]}`
	if r := postJSON(t, ts.URL+"/v1/quote", body, &inst); r.StatusCode != http.StatusOK {
		t.Fatalf("stmt quote status = %d", r.StatusCode)
	}
	if inst.Total != adhoc.Total || !inst.PerQuery[0].Cached {
		t.Fatalf("prepared instance (%v, cached=%v) != ad-hoc (%v)",
			inst.Total, inst.PerQuery[0].Cached, adhoc.Total)
	}

	// Buying an instance works and is free to repeat.
	askBody := `{"buyer": "alice", "stmt": ` + strconv.FormatInt(prep.Stmt, 10) + `, "params": [5000000]}`
	var rec askResponse
	if r := postJSON(t, ts.URL+"/v1/ask", askBody, &rec); r.StatusCode != http.StatusOK {
		t.Fatalf("stmt ask status = %d", r.StatusCode)
	}
	if rec.Net <= 0 || len(rec.Rows) == 0 {
		t.Fatalf("stmt purchase: %+v (%d rows)", rec.Receipt, len(rec.Rows))
	}
	var again askResponse
	postJSON(t, ts.URL+"/v1/ask", askBody, &again)
	if again.Net != 0 {
		t.Fatalf("repeat stmt purchase charged %v", again.Net)
	}

	// The kind-split counters are on the wire.
	var stats struct {
		QuoteCache qirana.CacheStats `json:"quote_cache"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.QuoteCache.TemplateHits == 0 || stats.QuoteCache.TemplateMisses == 0 {
		t.Fatalf("template counters missing from /stats: %+v", stats.QuoteCache)
	}
	var m qirana.MetricsSnapshot
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.Counters["quotecache_template_hits"] == 0 {
		t.Fatalf("metrics missing quotecache_template_hits: %+v", m.Counters)
	}
	if m.Counters["broker_prepare_requests"] == 0 {
		t.Fatalf("metrics missing broker_prepare_requests: %+v", m.Counters)
	}
}

// TestPrepareBadRequests covers the prepared-path input errors.
func TestPrepareBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		url, body string
	}{
		{"/v1/prepare", `{"sql": "SELECT Name FROM Country WHERE Population > $3"}`}, // non-contiguous
		{"/v1/prepare", `{"sql": "SELEC nonsense"}`},
		{"/v1/quote", `{"stmt": 999, "params": [1]}`},                              // unknown handle
		{"/v1/quote", `{"sql": "SELECT 1", "stmt": 1}`},                            // stmt excludes sql
		{"/v1/quote", `{"sql": "` + testSQL + `", "params": [1]}`},                 // params need stmt
		{"/v1/quote", `{"sql": "SELECT Name FROM Country WHERE Population > $1"}`}, // placeholder ad hoc
		{"/v1/quote/batch", `{"stmt": 1, "params": [1]}`},
		{"/v1/ask", `{"buyer": "a", "stmt": 999, "params": [1]}`},
		{"/v1/ask", `{"buyer": "a", "sql": "SELECT 1", "stmt": 1}`},
	}
	for _, tc := range cases {
		if r := postJSON(t, ts.URL+tc.url, tc.body, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.url, tc.body, r.StatusCode)
		}
	}

	// Arity and type errors surface per request.
	var prep prepareResponse
	postJSON(t, ts.URL+"/v1/prepare", `{"sql": "SELECT Name FROM Country WHERE Population > $1"}`, &prep)
	id := strconv.FormatInt(prep.Stmt, 10)
	if r := postJSON(t, ts.URL+"/v1/quote", `{"stmt": `+id+`, "params": []}`, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("arity mismatch: status %d, want 400", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/quote", `{"stmt": `+id+`, "params": [[1]]}`, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("array param: status %d, want 400", r.StatusCode)
	}
}
