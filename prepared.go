package qirana

import (
	"context"
	"fmt"
	"sync"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
)

// This file implements prepared query templates: Broker.Prepare parses,
// canonicalizes and analyzes a $N-parameterized statement ONCE, and
// Stmt.Price / Stmt.Purchase run only the parameter-sensitive residual
// work per call. A warm parameterized quote touches no lexer, parser or
// canonical printer: it renders the (tiny) parameter signature, finds
// the bound query cached under it, whose identity was computed once, and
// serves the entry — the same "td|"/"te|" entries the ad-hoc path writes
// for auto-detected template instances, so prepared and unprepared
// traffic share one warm cache.
//
// What is — and is not — shared across parameter vectors:
//
//   - Shared once per template: the parse tree, the name-resolution
//     analysis and the literal-stripped canonical form (ast.Template).
//   - Shared per parameter vector (bounded LRU): the bound *exec.Query
//     and with it its quote-cache identity (exec.Identity).
//     Keeping the pointer stable across calls ALSO keeps the engine's
//     per-query state warm — the §4.1/§4.2 disagreement checker (static
//     classification, contribution PK sets, tagged-query skeletons) and
//     the executor's version-stamped index cache are keyed by that
//     pointer, so repeat bindings skip reclassification entirely.
//   - Never shared across vectors: the checker's static classification
//     itself. Its contribution sets depend on the WHERE constants, so the
//     classification is parameter-DEPENDENT; sharing it across constants
//     would be unsound. Pricing work that survives a constant change is
//     instead shared through the template-keyed quote cache.
//
// Prepared prices are bit-identical to ad-hoc prices of the substituted
// SQL: Bind produces a statement structurally identical to parsing the
// substituted text, and everything downstream is the one shared engine
// path.

// maxBoundQueries bounds each Stmt's per-parameter-vector bound-query
// cache (FIFO eviction). Engine-side checker state is bounded separately
// (the checker map resets wholesale past its own cap), so this only
// limits per-Stmt memory.
const maxBoundQueries = 128

// Stmt is a prepared statement: a query template with $1-style
// placeholders, compiled once and priceable per parameter vector. Safe
// for concurrent use.
type Stmt struct {
	b    *Broker
	sql  string          // template text as given to Prepare
	stmt *ast.SelectStmt // parsed template; never mutated after Prepare
	tmpl *ast.Template   // literal-stripped canonical form + sites

	mu    sync.Mutex
	bound map[string]*exec.Query // param signature → bound compiled query
	order []string               // FIFO over bound's keys
}

// Prepare compiles a query template with $N placeholders (numbered
// contiguously from $1; a template may also have zero placeholders). The
// returned Stmt caches the parse tree, analysis and canonical template,
// so Stmt.Price runs only parameter-sensitive work. A template that
// negates a parameter (-$1) is rejected: see ast.ErrNotTemplatable.
func (b *Broker) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer b.obs.Timer("broker_prepare")()
	b.obs.Add("broker_prepare_requests", 1)
	q, err := exec.Compile(sql, b.db.Schema)
	if err != nil {
		return nil, err
	}
	tmpl, err := ast.NewTemplate(q.Stmt)
	if err != nil {
		return nil, fmt.Errorf("prepare %q: %w", sql, err)
	}
	return &Stmt{
		b:     b,
		sql:   sql,
		stmt:  q.Stmt,
		tmpl:  tmpl,
		bound: make(map[string]*exec.Query),
	}, nil
}

// SQL returns the template text the statement was prepared from.
func (s *Stmt) SQL() string { return s.sql }

// NumParams returns the number of $N parameters the template takes.
func (s *Stmt) NumParams() int { return s.tmpl.NumParams }

// Template returns the literal-stripped canonical form of the template —
// the fingerprint under which all its instances share quote-cache
// entries.
func (s *Stmt) Template() string { return s.tmpl.Canon }

// boundQuery returns the compiled query for a parameter vector, binding
// and analyzing on first use and caching by the exact parameter
// signature. The returned pointer is stable across calls with the same
// signature, which keeps engine-side per-query state warm.
func (s *Stmt) boundQuery(sig string, params []Value) (*exec.Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.bound[sig]; ok {
		return q, nil
	}
	q, err := s.bindFresh(params)
	if err != nil {
		return nil, err
	}
	if len(s.order) >= maxBoundQueries {
		delete(s.bound, s.order[0])
		s.order = s.order[1:]
	}
	s.bound[sig] = q
	s.order = append(s.order, sig)
	return q, nil
}

// bindFresh deep-clones the template with params substituted and
// analyzes the clone (analysis annotations are keyed by node pointer, so
// a clone always re-analyzes). The query's SQL is the substituted
// statement's rendering — what purchase ledgers and buyer histories
// record, never the template text.
func (s *Stmt) bindFresh(params []Value) (*exec.Query, error) {
	stmt, err := ast.Bind(s.stmt, params)
	if err != nil {
		return nil, err
	}
	return exec.CompileStmt(stmt, s.b.db.Schema)
}

// Price prices one instance of the template under the broker's default
// pricing function. The result is bit-identical to an ad-hoc Price of
// the constant-substituted SQL.
func (s *Stmt) Price(ctx context.Context, params ...Value) (*PriceResponse, error) {
	return s.PriceWith(ctx, s.b.fn, params...)
}

// PriceWith is Price under a specific pricing function.
func (s *Stmt) PriceWith(ctx context.Context, fn PricingFunc, params ...Value) (resp *PriceResponse, err error) {
	b := s.b
	b.obs.Add("broker_price_requests", 1)
	defer b.obs.Timer("broker_price")()
	defer func() { b.countOutcome(err) }()

	sig, err := s.tmpl.ParamKey(params)
	if err != nil {
		return nil, err
	}
	q, err := s.boundQuery(sig, params)
	if err != nil {
		return nil, err
	}

	if fn < WeightedCoverage || fn > QEntropy {
		return nil, fmt.Errorf("unknown pricing function %v", fn)
	}

	b.mu.RLock()
	defer b.mu.RUnlock()
	info, err := b.exact(ctx, quoteKey{fn: fn, qs: []*exec.Query{q}})
	if err != nil {
		return nil, err
	}
	return respond([]QuoteInfo{info}), nil
}

// Purchase runs one instance of the template for the buyer and applies
// the history-aware charge — Broker.Purchase with the binding work
// already done. The purchase ledger and the buyer's history record the
// substituted SQL (the template text is not a runnable query), so
// durability replay is oblivious to how the query was submitted.
//
// The query is bound fresh per purchase rather than served from the
// bound-query cache: purchases execute the query outside any sweep slot,
// and the executor's index cache on a shared query must not race a
// concurrent pricing sweep.
func (s *Stmt) Purchase(ctx context.Context, buyer string, params ...Value) (rec *Receipt, err error) {
	return s.purchase(ctx, buyer, false, params)
}

// PurchaseWithRefund is Purchase under the charge-then-refund settlement
// model (see PurchaseRequest.Refund).
func (s *Stmt) PurchaseWithRefund(ctx context.Context, buyer string, params ...Value) (rec *Receipt, err error) {
	return s.purchase(ctx, buyer, true, params)
}

func (s *Stmt) purchase(ctx context.Context, buyer string, refund bool, params []Value) (rec *Receipt, err error) {
	b := s.b
	b.obs.Add("broker_purchase_requests", 1)
	defer b.obs.Timer("broker_purchase")()
	defer func() { b.countOutcome(err) }()

	// ParamKey checks the arity, which Bind alone does not.
	if _, err := s.tmpl.ParamKey(params); err != nil {
		return nil, err
	}
	q, err := s.bindFresh(params)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	req := PurchaseRequest{Buyer: buyer, SQL: q.SQL, Refund: refund}
	return b.purchaseLocked(ctx, req, q, quoteKey{fn: WeightedCoverage, qs: []*exec.Query{q}})
}
