package httpapi

// Error-surface matrix: every stable machine-readable code is exercised
// over the wire, on the legacy unprefixed paths AND the /v1 aliases, and
// the max_error parameter is validated in every rejectable shape. The
// point of typed errors is that these codes are load-bearing API — this
// file is the contract test that keeps them stable.

import (
	"context"
	"encoding/json"
	"fmt"
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

// errEnvelope is what every failure body must decode as.
type errEnvelope struct {
	Error Error `json:"error"`
}

// postForError posts body and decodes the typed error envelope.
func postForError(t *testing.T, url, body string) (int, Error, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("POST %s: error body is not the typed envelope: %v", url, err)
	}
	return resp.StatusCode, e.Error, resp.Header
}

// TestErrorCodeMatrix drives each reachable error code through the HTTP
// surface and asserts status + code.
func TestErrorCodeMatrix(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name       string
		path, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed json", "/v1/quote", `{`, 400, CodeInvalidRequest},
		{"no queries", "/v1/quote", `{}`, 400, CodeInvalidRequest},
		{"unknown func", "/v1/quote", `{"sql": "` + testSQL + `", "func": "nope"}`, 400, CodeInvalidRequest},
		{"unknown stmt", "/v1/quote", `{"stmt": 424242, "params": [1]}`, 400, CodeUnknownStmt},
		{"unknown stmt ask", "/v1/ask", `{"buyer": "a", "stmt": 424242, "params": [1]}`, 400, CodeUnknownStmt},
		{"max_error negative", "/v1/quote", `{"sql": "` + testSQL + `", "max_error": -0.1}`, 400, CodeInvalidMaxError},
		{"max_error over one", "/v1/quote", `{"sql": "` + testSQL + `", "max_error": 1.5}`, 400, CodeInvalidMaxError},
		{"max_error on stmt", "/v1/quote", `{"stmt": 424242, "max_error": 0.1}`, 400, CodeInvalidMaxError},
		{"batch max_error over one", "/v1/quote/batch", `{"sqls": ["` + testSQL + `"], "max_error": 2}`, 400, CodeInvalidMaxError},
	}
	for _, c := range cases {
		status, e, _ := postForError(t, ts.URL+c.path, c.body)
		if status != c.wantStatus || e.Code != c.wantCode {
			t.Errorf("%s on %s: status %d code %q, want %d %q",
				c.name, c.path, status, e.Code, c.wantStatus, c.wantCode)
		}
		if e.Message == "" {
			t.Errorf("%s on %s: empty message", c.name, c.path)
		}
	}
}

// TestMaxErrorQueryParamValidation covers the ?max_error= query form:
// non-numeric, negative and >1 are each rejected with invalid_max_error,
// and the query parameter overrides the body.
func TestMaxErrorQueryParamValidation(t *testing.T) {
	ts := newTestServer(t)
	body := `{"sql": "` + testSQL + `"}`
	for _, raw := range []string{"banana", "-0.5", "1.0001", "NaN%20x"} {
		status, e, _ := postForError(t, ts.URL+"/v1/quote?max_error="+raw, body)
		if status != http.StatusBadRequest || e.Code != CodeInvalidMaxError {
			t.Errorf("?max_error=%s: status %d code %q, want 400 %q",
				raw, status, e.Code, CodeInvalidMaxError)
		}
	}
	// The query parameter overrides the body: a valid body with an
	// invalid query value still rejects.
	status, e, _ := postForError(t, ts.URL+"/v1/quote?max_error=7", `{"sql": "`+testSQL+`", "max_error": 0.1}`)
	if status != http.StatusBadRequest || e.Code != CodeInvalidMaxError {
		t.Errorf("query override: status %d code %q", status, e.Code)
	}
}

// TestOversizedBodyCodeOnV1: the 413 carries payload_too_large on the
// versioned path too (DecodeBody is shared, but the route must exist).
func TestOversizedBodyCodeOnV1(t *testing.T) {
	ts := newTestServer(t)
	big := `{"sql": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	status, e, _ := postForError(t, ts.URL+"/v1/quote", big)
	if status != http.StatusRequestEntityTooLarge || e.Code != CodePayloadTooLarge {
		t.Fatalf("/v1 oversized: status %d code %q, want 413 %q", status, e.Code, CodePayloadTooLarge)
	}
}

// TestDeadlineCode: an expired pricing deadline serves 504
// deadline_exceeded through the full stack.
func TestDeadlineCode(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(b, 0))
	defer ts.Close()
	// ORDER BY + LIMIT keeps the query off the fast path, so the sweep
	// re-executes it per support element and cannot finish inside 1 ms
	// however fast the batched sweep gets.
	sql := `SELECT Name, Population FROM City WHERE Population > 1000000 ORDER BY Population, Name LIMIT 20`
	status, e, _ := postForError(t, ts.URL+"/v1/quote?timeout_ms=1", `{"sql": "`+sql+`"}`)
	if status == http.StatusOK {
		t.Skip("sweep finished inside 1ms; timeout path not exercised")
	}
	if status != http.StatusGatewayTimeout || e.Code != CodeDeadlineExceeded {
		t.Fatalf("deadline: status %d code %q, want 504 %q", status, e.Code, CodeDeadlineExceeded)
	}
}

// TestDurabilityCodeRetryable: a faulted ledger append maps to 503
// durability_unavailable with Retry-After in header AND body.
func TestDurabilityCodeRetryable(t *testing.T) {
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

	defer failpoint.Reset()
	failpoint.Enable(durable.FpLedgerAppend, nil) // the failpoint disarms after firing once
	status, e, hdr := postForError(t, ts.URL+"/v1/ask", `{"buyer": "alice", "sql": "`+testSQL+`"}`)
	if status != http.StatusServiceUnavailable || e.Code != CodeDurability {
		t.Fatalf("/v1/ask faulted: status %d code %q, want 503 %q", status, e.Code, CodeDurability)
	}
	if hdr.Get("Retry-After") != "1" || e.RetryAfter != 1 {
		t.Fatalf("/v1/ask faulted: Retry-After header %q body %d, want 1/1", hdr.Get("Retry-After"), e.RetryAfter)
	}
}

// TestWriteRequestErrorTable pins the full mapping table, including the
// codes whose producing faults are awkward to stage over a live server.
func TestWriteRequestErrorTable(t *testing.T) {
	for _, c := range []struct {
		err        error
		wantStatus int
		wantCode   string
		retryAfter int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadlineExceeded, 0},
		{context.Canceled, 499, CodeClientClosed, 0},
		{qirana.ErrDurability, http.StatusServiceUnavailable, CodeDurability, 1},
		{qirana.ErrShardUnavailable, http.StatusServiceUnavailable, CodeShardUnavailable, 1},
		{qirana.ErrReadOnly, http.StatusServiceUnavailable, CodeReadOnly, 1},
		{qirana.ErrSupportMismatch, http.StatusConflict, CodeSupportMismatch, 0},
	} {
		rr := httptest.NewRecorder()
		WriteRequestError(rr, c.err)
		if rr.Code != c.wantStatus {
			t.Errorf("WriteRequestError(%v) = %d, want %d", c.err, rr.Code, c.wantStatus)
		}
		var e errEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
			t.Fatalf("WriteRequestError(%v): body not the typed envelope: %v", c.err, err)
		}
		if e.Error.Code != c.wantCode || e.Error.RetryAfter != c.retryAfter {
			t.Errorf("WriteRequestError(%v): code %q retry %d, want %q %d",
				c.err, e.Error.Code, e.Error.RetryAfter, c.wantCode, c.retryAfter)
		}
		if c.retryAfter > 0 && rr.Header().Get("Retry-After") == "" {
			t.Errorf("WriteRequestError(%v): missing Retry-After header", c.err)
		}
	}
}

// hintedErr wraps a broker error with a live cooldown hint — the shape
// the fan-out's open circuit breaker produces when it fast-rejects.
type hintedErr struct {
	base error
	wait time.Duration
}

func (e *hintedErr) Error() string                 { return "shard 2: " + e.base.Error() }
func (e *hintedErr) Unwrap() error                 { return e.base }
func (e *hintedErr) RetryAfterHint() time.Duration { return e.wait }

// TestWriteRequestErrorRetryAfterHint: when the error chain carries a
// breaker cooldown, retry_after reflects the actual remaining wait
// (ceiling of the hint, clamped to >= 1s) instead of the table's fixed
// 1s default; non-retryable rows ignore the hint entirely. These values
// are API — clients schedule their backoff from them.
func TestWriteRequestErrorRetryAfterHint(t *testing.T) {
	for _, c := range []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
		retryAfter int
	}{
		{"whole seconds", &hintedErr{qirana.ErrShardUnavailable, 7 * time.Second}, 503, CodeShardUnavailable, 7},
		{"rounds up", &hintedErr{qirana.ErrShardUnavailable, 2500 * time.Millisecond}, 503, CodeShardUnavailable, 3},
		{"clamped to one second", &hintedErr{qirana.ErrShardUnavailable, 300 * time.Millisecond}, 503, CodeShardUnavailable, 1},
		{"survives outer wrapping", fmt.Errorf("price: %w", &hintedErr{qirana.ErrShardUnavailable, 4 * time.Second}), 503, CodeShardUnavailable, 4},
		{"hinted durability fault", &hintedErr{qirana.ErrDurability, 2 * time.Second}, 503, CodeDurability, 2},
		{"non-retryable ignores hint", &hintedErr{qirana.ErrSupportMismatch, 9 * time.Second}, 409, CodeSupportMismatch, 0},
	} {
		rr := httptest.NewRecorder()
		WriteRequestError(rr, c.err)
		if rr.Code != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, rr.Code, c.wantStatus)
		}
		var e errEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body not the typed envelope: %v", c.name, err)
		}
		if e.Error.Code != c.wantCode || e.Error.RetryAfter != c.retryAfter {
			t.Errorf("%s: code %q retry_after %d, want %q %d",
				c.name, e.Error.Code, e.Error.RetryAfter, c.wantCode, c.retryAfter)
		}
		wantHeader := ""
		if c.retryAfter > 0 {
			wantHeader = strconv.Itoa(c.retryAfter)
		}
		if got := rr.Header().Get("Retry-After"); got != wantHeader {
			t.Errorf("%s: Retry-After header %q, want %q", c.name, got, wantHeader)
		}
	}
}

// TestApproxQuoteOverHTTP: max_error engages the sampled path — the
// response carries the estimate provenance block, the served price upper
// bounds the exact price, and /stats exposes shed state plus the approx
// counters.
func TestApproxQuoteOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	var exact qirana.PriceResponse
	postJSON(t, ts.URL+"/v1/quote", `{"sql": "`+testSQL+`"}`, &exact)

	var approx qirana.PriceResponse
	r := postJSON(t, ts.URL+"/v1/quote?max_error=0.2", `{"sql": "`+testSQL+`"}`, &approx)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("approx quote status = %d", r.StatusCode)
	}
	est := approx.PerQuery[0].Estimate
	if est == nil || !est.Approx {
		t.Fatalf("approx quote carries no estimate block: %+v", approx.PerQuery[0])
	}
	if est.SampleFrac <= 0 || est.SampleFrac > 1 || est.SampleN <= 0 {
		t.Fatalf("estimate provenance: %+v", est)
	}
	if approx.Total < exact.Total-1e-9 {
		t.Fatalf("approximate price %v undercuts exact %v", approx.Total, exact.Total)
	}

	var stats struct {
		Shed   qirana.ShedInfo   `json:"shed"`
		Approx map[string]uint64 `json:"approx"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Approx == nil {
		t.Fatal("/stats missing the approx counter block")
	}
	if stats.Approx["approx_quotes"] == 0 {
		t.Fatalf("approx_quotes did not count: %v", stats.Approx)
	}
	if stats.Shed.Level != 0 || stats.Shed.MinMaxError != 0 {
		t.Fatalf("idle broker reports shedding: %+v", stats.Shed)
	}
}
