// Package httpapi is the JSON HTTP serving surface shared by every
// qirana daemon: the single-node qiranad, the cluster router qirouter,
// and shard/standby processes (which mount extra routes on the same
// mux). It wraps a broker — or, for standbys that swap brokers on
// promotion, a broker *getter* — behind the /v1/quote, /v1/quote/batch,
// /v1/ask, /v1/prepare, /v1/stats, /v1/metrics and /v1/healthz
// endpoints; only /debug/ lives outside the /v1/ prefix. Errors are
// typed: every failure body is {"error": {"code": ..., "message": ...}}
// with a stable machine-readable code (see the Code constants), so
// clients branch on err.error.code rather than parsing prose.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"qirana"
)

// Server wraps one broker behind the JSON HTTP API. Every pricing
// endpoint derives its context from the request (so a dropped client
// connection cancels the sweep mid-batch) with the configured per-request
// timeout layered on top; the broker's cancellation contract guarantees
// an aborted request charges nobody and poisons no cache entry.
type Server struct {
	// get returns the broker serving THIS request. Static deployments
	// return a fixed broker; a standby returns its current twin, which
	// changes identity on promotion — handlers re-read it per request and
	// never capture it across requests.
	get func() *qirana.Broker
	// timeout bounds each pricing request (0 = no bound beyond the
	// client's connection). Overridable per request with ?timeout_ms=.
	timeout time.Duration

	// Prepared-statement registry: POST /v1/prepare returns a handle that
	// /v1/quote and /v1/ask accept as "stmt". Handles live for the process
	// lifetime (a Stmt is a few cached pointers, not a server resource);
	// the count is capped so a client loop cannot grow memory unboundedly.
	// Each handle remembers the broker it was prepared on: after a
	// standby promotion the old handles are rejected (the Stmt's cached
	// pointers reach into the dead broker) and the client re-prepares.
	mu     sync.Mutex
	stmts  map[int64]stmtEntry
	nextID int64

	mux *http.ServeMux
}

type stmtEntry struct {
	st *qirana.Stmt
	b  *qirana.Broker
}

// maxPreparedStmts caps the registry; real template workloads have tens
// of templates, not thousands.
const maxPreparedStmts = 4096

// New serves a fixed broker. The routes:
//
//	POST /v1/quote        price one query (or a bundle), or a prepared
//	                      statement instance ({"stmt": id, "params": [...]})
//	POST /v1/quote/batch  price k independent queries in one shared sweep
//	POST /v1/ask          buy a query (or prepared instance) for a buyer
//	POST /v1/prepare      prepare a $1-style template; returns a stmt handle
//	GET  /v1/stats        broker counters (quote cache, durability,
//	                      approximate-path and cluster counters)
//	GET  /v1/metrics      obs snapshot: counters + latency percentiles
//	GET  /v1/healthz      liveness: 200 with the support-set generation
//	GET  /debug/vars      expvar (includes the live metrics registry)
//	GET  /debug/pprof     runtime profiling
//
// /v1/quote and /v1/quote/batch accept "max_error" in the body (or the
// ?max_error= query parameter, which wins) to request the sampled
// approximate pricing path; see qirana.PriceRequest.MaxError.
func New(b *qirana.Broker, timeout time.Duration) *Server {
	return NewDynamic(func() *qirana.Broker { return b }, timeout)
}

// NewDynamic serves whatever broker get returns at request time — the
// standby deployment, where promotion atomically swaps the read-only
// twin for the recovered writable broker under the same routes.
func NewDynamic(get func() *qirana.Broker, timeout time.Duration) *Server {
	s := &Server{get: get, timeout: timeout, stmts: make(map[int64]stmtEntry)}
	get().PublishExpvar("qirana")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", s.handleQuote)
	mux.HandleFunc("POST /v1/quote/batch", s.handleQuoteBatch)
	mux.HandleFunc("POST /v1/ask", s.handleAsk)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Mux exposes the underlying mux so daemons can mount extra routes
// (shard workers add /v1/shard/sweep and /v1/shard/info) on the same
// server.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// requestCtx derives the pricing context: the request's own context
// (cancelled when the client goes away) bounded by the per-request
// timeout, which ?timeout_ms= may tighten or loosen per call.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			timeout = time.Duration(v) * time.Millisecond
		}
	}
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// funcByName maps the wire names onto the pricing functions; empty means
// "use the broker's default".
func funcByName(name string) (*qirana.PricingFunc, error) {
	var f qirana.PricingFunc
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "coverage", "weighted_coverage":
		f = qirana.WeightedCoverage
	case "gain", "uniform_gain", "uniform_entropy_gain":
		f = qirana.UniformEntropyGain
	case "shannon", "shannon_entropy":
		f = qirana.ShannonEntropy
	case "qentropy", "q_entropy":
		f = qirana.QEntropy
	default:
		return nil, fmt.Errorf("unknown pricing function %q (want coverage, gain, shannon or qentropy)", name)
	}
	return &f, nil
}

type quoteRequest struct {
	// SQL prices a single query; SQLs prices several. Exactly one of
	// SQL, SQLs or Stmt must be set.
	SQL  string   `json:"sql,omitempty"`
	SQLs []string `json:"sqls,omitempty"`
	// Stmt prices an instance of a statement prepared via /prepare,
	// bound to Params.
	Stmt int64 `json:"stmt,omitempty"`
	// Params are the $1..$N bindings for Stmt: JSON numbers (integral →
	// SQL integer, otherwise float), strings and booleans.
	Params []any `json:"params,omitempty"`
	// Func selects the pricing function (coverage, gain, shannon,
	// qentropy); empty uses the broker default.
	Func string `json:"func,omitempty"`
	// Bundle prices SQLs as one bundle bought together.
	Bundle bool `json:"bundle,omitempty"`
	// MaxError requests the sampled approximate pricing path: the
	// served price is a guaranteed upper bound on the exact price with
	// roughly this relative standard error. 0 (the default) prices
	// exactly. Valid range [0, 1]; the ?max_error= query parameter
	// overrides the body field.
	MaxError float64 `json:"max_error,omitempty"`
}

// toValues converts JSON-decoded params into typed SQL values. decodeBody
// decodes numbers as json.Number, so integer exactness survives the trip.
func toValues(params []any) ([]qirana.Value, error) {
	out := make([]qirana.Value, len(params))
	for i, p := range params {
		switch v := p.(type) {
		case json.Number:
			if n, err := strconv.ParseInt(v.String(), 10, 64); err == nil {
				out[i] = qirana.NewInt(n)
			} else if f, err := v.Float64(); err == nil {
				out[i] = qirana.NewFloat(f)
			} else {
				return nil, fmt.Errorf("param %d: unrepresentable number %q", i+1, v.String())
			}
		case string:
			out[i] = qirana.NewString(v)
		case bool:
			out[i] = qirana.NewBool(v)
		default:
			return nil, fmt.Errorf("param %d: unsupported JSON type %T (want number, string or bool)", i+1, p)
		}
	}
	return out, nil
}

// lookupStmt resolves a /v1/prepare handle against the current broker.
func (s *Server) lookupStmt(id int64, b *qirana.Broker) (*qirana.Stmt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.stmts[id]
	if !ok {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeUnknownStmt,
			Message: fmt.Sprintf("unknown prepared statement %d (prepare it first via POST /prepare)", id)}
	}
	if ent.b != b {
		return nil, &Error{Status: http.StatusBadRequest, Code: CodeUnknownStmt,
			Message: fmt.Sprintf("prepared statement %d belongs to a previous leader (the server failed over); prepare it again", id)}
	}
	return ent.st, nil
}

// maxError resolves the effective max_error for a request: the
// ?max_error= query parameter when present, else the body field. A
// non-numeric, negative or >1 value is rejected with the stable
// invalid_max_error code so clients can branch on it.
func maxError(r *http.Request, qr *quoteRequest) (float64, error) {
	me := qr.MaxError
	if raw := r.URL.Query().Get("max_error"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, &Error{Status: http.StatusBadRequest, Code: CodeInvalidMaxError,
				Message: fmt.Sprintf("max_error %q is not a number", raw)}
		}
		me = v
	}
	if me < 0 || me > 1 {
		return 0, &Error{Status: http.StatusBadRequest, Code: CodeInvalidMaxError,
			Message: fmt.Sprintf("max_error %g is outside [0, 1]", me)}
	}
	return me, nil
}

func (qr *quoteRequest) toPriceRequest() (qirana.PriceRequest, error) {
	fn, err := funcByName(qr.Func)
	if err != nil {
		return qirana.PriceRequest{}, err
	}
	sqls := qr.SQLs
	if qr.SQL != "" {
		if len(sqls) > 0 {
			return qirana.PriceRequest{}, errors.New(`set "sql" or "sqls", not both`)
		}
		sqls = []string{qr.SQL}
	}
	if len(sqls) == 0 {
		return qirana.PriceRequest{}, errors.New(`request carries no queries (set "sql" or "sqls")`)
	}
	return qirana.PriceRequest{SQLs: sqls, Func: fn, Bundle: qr.Bundle}, nil
}

// maxBodyBytes bounds JSON request bodies. A megabyte is orders of
// magnitude beyond any real query text; anything bigger is a mistake or
// an attack, and MaxBytesReader also closes the connection so the client
// cannot keep streaming.
const maxBodyBytes = 1 << 20

// DecodeBody decodes a size-capped JSON body into v. On failure it has
// already written the error response (413 payload_too_large for an
// oversized body, 400 invalid_request otherwise) and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.UseNumber() // prepared-statement params need exact integers
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeTyped(w, &Error{Status: http.StatusRequestEntityTooLarge, Code: CodePayloadTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return false
		}
		writeTyped(w, invalidRequest("decode request: "+err.Error()))
		return false
	}
	return true
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	s.price(w, r, false)
}

func (s *Server) handleQuoteBatch(w http.ResponseWriter, r *http.Request) {
	s.price(w, r, true)
}

func (s *Server) price(w http.ResponseWriter, r *http.Request, batch bool) {
	var qr quoteRequest
	if !DecodeBody(w, r, &qr) {
		return
	}
	b := s.get()
	maxErr, err := maxError(r, &qr)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	if qr.Stmt != 0 {
		if batch {
			writeTyped(w, invalidRequest("prepared statements are priced on /quote, not /quote/batch"))
			return
		}
		if qr.SQL != "" || len(qr.SQLs) > 0 || qr.Bundle {
			writeTyped(w, invalidRequest(`"stmt" excludes "sql", "sqls" and "bundle"`))
			return
		}
		if maxErr > 0 {
			WriteRequestError(w, &Error{Status: http.StatusBadRequest, Code: CodeInvalidMaxError,
				Message: "max_error is not supported for prepared statements (prepared prices are exact)"})
			return
		}
		s.priceStmt(w, r, qr, b)
		return
	}
	if len(qr.Params) > 0 {
		writeTyped(w, invalidRequest(`"params" requires "stmt" (prepare the template via POST /prepare)`))
		return
	}
	req, err := qr.toPriceRequest()
	if err != nil {
		writeTyped(w, invalidRequest(err.Error()))
		return
	}
	req.MaxError = maxErr
	if !batch && len(req.SQLs) > 1 && !req.Bundle {
		writeTyped(w, invalidRequest("independent multi-query pricing belongs on /quote/batch (or set bundle:true)"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, err := b.Price(ctx, req)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	WriteJSON(w, resp)
}

// priceStmt prices one prepared-statement instance.
func (s *Server) priceStmt(w http.ResponseWriter, r *http.Request, qr quoteRequest, b *qirana.Broker) {
	st, err := s.lookupStmt(qr.Stmt, b)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	fn, err := funcByName(qr.Func)
	if err != nil {
		writeTyped(w, invalidRequest(err.Error()))
		return
	}
	params, err := toValues(qr.Params)
	if err != nil {
		writeTyped(w, invalidRequest(err.Error()))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var resp *qirana.PriceResponse
	if fn != nil {
		resp, err = st.PriceWith(ctx, *fn, params...)
	} else {
		resp, err = st.Price(ctx, params...)
	}
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	WriteJSON(w, resp)
}

type prepareRequest struct {
	SQL string `json:"sql"`
}

type prepareResponse struct {
	// Stmt is the handle /quote and /ask accept.
	Stmt int64 `json:"stmt"`
	// NumParams is the number of $N parameters the template takes.
	NumParams int `json:"num_params"`
	// Template is the literal-stripped canonical form — the fingerprint
	// under which all instances share quote-cache entries.
	Template string `json:"template"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var pr prepareRequest
	if !DecodeBody(w, r, &pr) {
		return
	}
	b := s.get()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	st, err := b.Prepare(ctx, pr.SQL)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	s.mu.Lock()
	if len(s.stmts) >= maxPreparedStmts {
		s.mu.Unlock()
		WriteRequestError(w, &Error{Status: http.StatusTooManyRequests, Code: CodeStmtLimit,
			Message: fmt.Sprintf("prepared statement limit reached (%d)", maxPreparedStmts)})
		return
	}
	s.nextID++
	id := s.nextID
	s.stmts[id] = stmtEntry{st: st, b: b}
	s.mu.Unlock()
	WriteJSON(w, prepareResponse{Stmt: id, NumParams: st.NumParams(), Template: st.Template()})
}

type askRequest struct {
	Buyer string `json:"buyer"`
	SQL   string `json:"sql"`
	// Stmt buys an instance of a statement prepared via /prepare, bound
	// to Params; excludes SQL.
	Stmt   int64 `json:"stmt,omitempty"`
	Params []any `json:"params,omitempty"`
	// Refund selects the charge-then-refund settlement model.
	Refund bool `json:"refund,omitempty"`
}

// askResponse is a Receipt plus the materialized answer (Receipt keeps
// Result off the wire by default; the daemon inlines it as strings).
type askResponse struct {
	*qirana.Receipt
	Cols []string   `json:"cols"`
	Rows [][]string `json:"rows"`
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var ar askRequest
	if !DecodeBody(w, r, &ar) {
		return
	}
	if ar.Buyer == "" {
		writeTyped(w, invalidRequest(`request carries no buyer (set "buyer")`))
		return
	}
	b := s.get()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var rec *qirana.Receipt
	var err error
	if ar.Stmt != 0 {
		if ar.SQL != "" {
			writeTyped(w, invalidRequest(`"stmt" excludes "sql"`))
			return
		}
		st, lerr := s.lookupStmt(ar.Stmt, b)
		if lerr != nil {
			WriteRequestError(w, lerr)
			return
		}
		params, perr := toValues(ar.Params)
		if perr != nil {
			writeTyped(w, invalidRequest(perr.Error()))
			return
		}
		if ar.Refund {
			rec, err = st.PurchaseWithRefund(ctx, ar.Buyer, params...)
		} else {
			rec, err = st.Purchase(ctx, ar.Buyer, params...)
		}
	} else {
		if len(ar.Params) > 0 {
			writeTyped(w, invalidRequest(`"params" requires "stmt" (prepare the template via POST /prepare)`))
			return
		}
		rec, err = b.Purchase(ctx, qirana.PurchaseRequest{Buyer: ar.Buyer, SQL: ar.SQL, Refund: ar.Refund})
	}
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	resp := askResponse{Receipt: rec, Cols: rec.Result.Cols, Rows: make([][]string, rec.Result.Len())}
	for i, row := range rec.Result.Rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.String()
		}
		resp.Rows[i] = out
	}
	WriteJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	b := s.get()
	// The approximate path's counters live in the obs registry; surface
	// them here so operators watching /stats see the sampled path and its
	// refiner without scraping /metrics.
	approx := map[string]uint64{}
	// The cluster block groups the fault-tolerance counters — fan-out
	// retries/hedges, breaker transitions, degraded quotes, shard-side
	// sweep counts — so an operator can see a partial outage (and the
	// router riding through it) at a glance.
	cluster := map[string]uint64{}
	for k, v := range b.Metrics().Counters {
		switch {
		case strings.HasPrefix(k, "approx_"):
			approx[k] = v
		case strings.HasPrefix(k, "router_") || strings.HasPrefix(k, "breaker_") || strings.HasPrefix(k, "shard_"):
			cluster[k] = v
		}
	}
	WriteJSON(w, map[string]any{
		"support_set_size": b.SupportSetSize(),
		"total_price":      b.TotalPrice(),
		"quote_cache":      b.QuoteCacheStats(),
		"quote_cache_len":  b.QuoteCacheLen(),
		"durability":       b.Durability(),
		"approx":           approx,
		"cluster":          cluster,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.get().Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := s.get()
	WriteJSON(w, map[string]any{
		"ok":          true,
		"support_gen": b.SupportGen(),
		"support_sum": b.SupportChecksum(),
	})
}

// WriteJSON writes v as indented JSON with the standard content type.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Stable machine-readable error codes. Clients branch on these, never on
// message text; messages may change between releases, codes may not.
const (
	CodeInvalidRequest   = "invalid_request"        // malformed body or arguments (400)
	CodeInvalidMaxError  = "invalid_max_error"      // max_error non-numeric, outside [0, 1], or unsupported (400)
	CodeUnknownStmt      = "unknown_stmt"           // prepared-statement handle not found or stale (400)
	CodeStmtLimit        = "stmt_limit"             // prepared-statement registry full (429)
	CodePayloadTooLarge  = "payload_too_large"      // request body over the size cap (413)
	CodeDeadlineExceeded = "deadline_exceeded"      // pricing deadline expired (504)
	CodeClientClosed     = "client_closed_request"  // client cancelled mid-request (499)
	CodeDurability       = "durability_unavailable" // ledger append failed; retryable (503)
	CodeShardUnavailable = "shard_unavailable"      // cluster shard unreachable; retryable (503)
	CodeReadOnly         = "read_only"              // standby not yet promoted; retryable (503)
	CodeSupportMismatch  = "support_mismatch"       // shard support sets diverged; rebuild (409)
)

// Error is the typed API error: one HTTP status, one stable code, one
// human-readable message. It serializes as the nested error envelope
//
//	{"error": {"code": "shard_unavailable", "message": ..., "retry_after": 1}}
//
// and implements error, so handlers can return one directly and
// WriteRequestError serves it verbatim.
type Error struct {
	// Status is the HTTP status to serve; not serialized (the status
	// line already carries it).
	Status int `json:"-"`
	// Code is the stable machine-readable identity of the failure.
	Code string `json:"code"`
	// Message is the human-readable explanation; subject to change.
	Message string `json:"message"`
	// RetryAfter, when nonzero, is served as a Retry-After header (in
	// seconds) and echoed in the body: the failure is transient and the
	// client should retry after this long.
	RetryAfter int `json:"retry_after,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// errorTable is the single mapping from broker/context error identities
// onto HTTP status + code + retryability. WriteRequestError walks it in
// order with errors.Is; the first match wins, anything unmatched is a
// 400 invalid_request (the broker's remaining errors are all input
// errors; internal invariants panic).
var errorTable = []struct {
	is         error
	status     int
	code       string
	retryAfter int
}{
	{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadlineExceeded, 0},
	// 499 is nginx's "client closed request"; the client is usually
	// gone, but write it anyway for proxies and tests.
	{context.Canceled, 499, CodeClientClosed, 0},
	{qirana.ErrDurability, http.StatusServiceUnavailable, CodeDurability, 1},
	{qirana.ErrShardUnavailable, http.StatusServiceUnavailable, CodeShardUnavailable, 1},
	{qirana.ErrReadOnly, http.StatusServiceUnavailable, CodeReadOnly, 1},
	{qirana.ErrSupportMismatch, http.StatusConflict, CodeSupportMismatch, 0},
}

// WriteRequestError maps a pricing error onto the typed error envelope
// via errorTable: an expired deadline is a 504, a client-side
// cancellation a 499, a retryable cluster fault (ledger append, shard
// unreachable, read-only standby) a 503 with Retry-After, a support-set
// mismatch a 409 (the cluster needs rebuilding — retrying won't help),
// anything else a 400 invalid_request. An *Error is served verbatim.
// When the error chain carries a real retry hint — a circuit breaker's
// remaining cooldown — it overrides the table's fixed 1s default, so
// clients back off for as long as the shard will actually be refused.
func WriteRequestError(w http.ResponseWriter, err error) {
	var ae *Error
	if errors.As(err, &ae) {
		writeTyped(w, ae)
		return
	}
	for _, row := range errorTable {
		if errors.Is(err, row.is) {
			retryAfter := row.retryAfter
			if hint, ok := qirana.RetryAfterHint(err); ok && retryAfter > 0 {
				retryAfter = int(math.Ceil(hint.Seconds()))
				if retryAfter < 1 {
					retryAfter = 1
				}
			}
			writeTyped(w, &Error{Status: row.status, Code: row.code, Message: err.Error(), RetryAfter: retryAfter})
			return
		}
	}
	writeTyped(w, &Error{Status: http.StatusBadRequest, Code: CodeInvalidRequest, Message: err.Error()})
}

// invalidRequest is the 400 invalid_request error for a malformed body
// or argument.
func invalidRequest(msg string) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeInvalidRequest, Message: msg}
}

// writeTyped serves one typed error envelope.
func writeTyped(w http.ResponseWriter, ae *Error) {
	w.Header().Set("Content-Type", "application/json")
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfter))
	}
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(map[string]*Error{"error": ae})
}
