package qirana

import (
	"context"
	"errors"
	"fmt"

	"qirana/internal/sqlengine/exec"
)

// This file is the broker's serving API. Price and Purchase are the two
// entry points — context-aware, request/response shaped, and
// instrumented.
//
// Cancellation contract (holds for Price and Purchase alike):
//
//   - ctx flows through the engine into the worker pool; a cancelled
//     context or expired deadline aborts the support-set sweep mid-batch
//     and the call returns ctx.Err() promptly.
//   - A cancelled call has NO side effects: the buyer's history and
//     TotalPaid are untouched (the charge is applied only after the sweep
//     completes and ctx is re-checked), and the quote cache never stores
//     a partial result (errors are not cached).
//   - Singleflight followers never inherit a leader's cancellation: if
//     the computing caller is cancelled, a waiting caller with a live
//     context takes over and computes under its own context.

// PriceRequest asks for an up-front (history-oblivious) price.
type PriceRequest struct {
	// SQLs are the queries to price. At least one is required.
	SQLs []string
	// Func selects the pricing function; nil uses the broker's default.
	Func *PricingFunc
	// Bundle prices all SQLs as ONE bundle bought together (sub-additive:
	// shared information is charged once). False prices each query
	// independently in one shared support-set sweep.
	Bundle bool
	// MaxError > 0 requests the approximate fast path: the price is
	// computed from a deterministic sub-sample of the support set sized
	// so the point estimate's relative standard error is near MaxError,
	// and served as a sound UPPER bound on the exact price (arbitrage-
	// safe — see approx.go). The response's QuoteInfo.Estimate block
	// carries the provenance. Valid range [0, 1]; 0 (the default) prices
	// exactly, whatever the broker's load: this field is the only thing
	// that sends a quote down the sampled path. Purchases always settle
	// at the exact price.
	MaxError float64
}

// QuoteInfo is the provenance of one priced entry.
type QuoteInfo struct {
	// Price is the entry's price.
	Price float64 `json:"price"`
	// Stats reports how the price was computed. A cache hit reports the
	// stats of the cold computation that populated the entry.
	Stats Stats `json:"stats"`
	// Cached is true when the price was served (or coalesced) from the
	// quote cache rather than computed by this call.
	Cached bool `json:"cached"`
	// Estimate is the approximate-path provenance block: nil for exact
	// quotes; otherwise the price is a sampled upper bound (or, once
	// Refined, the exact price served through the approximate cache).
	Estimate *EstimateInfo `json:"estimate,omitempty"`
}

// PriceResponse carries the prices plus per-query provenance.
type PriceResponse struct {
	// Prices has one entry per request SQL. In bundle mode it has exactly
	// one entry: the bundle price.
	Prices []float64 `json:"prices"`
	// Total is the bundle price in bundle mode, the sum of Prices
	// otherwise.
	Total float64 `json:"total"`
	// PerQuery aligns with Prices (one entry for the whole bundle in
	// bundle mode).
	PerQuery []QuoteInfo `json:"per_query"`
	// Stats sums the per-entry stats.
	Stats Stats `json:"stats"`
}

// PurchaseRequest asks to buy a query's answer for a buyer account.
type PurchaseRequest struct {
	// Buyer is the purchasing account (created on first use).
	Buyer string
	// SQL is the query to run and charge for.
	SQL string
	// Refund selects the charge-then-refund settlement model (§2.2): the
	// receipt's Gross is the full history-oblivious price and Refund the
	// reimbursement for information already owned. Net is identical
	// either way.
	Refund bool
}

// Receipt is the outcome of a purchase: the answer plus the full money
// trail.
type Receipt struct {
	// Result is the query answer.
	Result *Result `json:"-"`
	// Gross is the amount charged before any refund. Under the default
	// (incremental) settlement it already equals Net.
	Gross float64 `json:"gross"`
	// Refund is the amount reimbursed for information the buyer already
	// owned (nonzero only under PurchaseRequest.Refund).
	Refund float64 `json:"refund"`
	// Net is what the buyer actually paid for this purchase.
	Net float64 `json:"net"`
	// Balance is the buyer's cumulative payment after this purchase.
	Balance float64 `json:"balance"`
	// Cached is true when the charge was derived from a cached
	// disagreement bitmap instead of a fresh sweep.
	Cached bool `json:"cached"`
	// Quoted is the approximate price previously quoted for this query
	// (0 when no approximate quote preceded the purchase). Purchases
	// ALWAYS settle at the exact price; Quoted and ReconcileDelta are
	// informational, so the money trail is bit-identical to a broker
	// that never served an estimate.
	Quoted float64 `json:"quoted,omitempty"`
	// ReconcileDelta is Quoted minus the exact quote price — how much
	// the sampled upper bound over-estimated (never negative; the
	// buyer was never at risk of overpaying).
	ReconcileDelta float64 `json:"reconcile_delta,omitempty"`
}

// isContextErr reports whether err is (or wraps) a cancellation/deadline
// error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// countOutcome records one request outcome in the obs registry.
func (b *Broker) countOutcome(err error) {
	if err == nil {
		return
	}
	if isContextErr(err) {
		b.obs.Add("broker_cancellations", 1)
	} else {
		b.obs.Add("broker_errors", 1)
	}
}

// Price is the broker's quoting entry point: it prices req.SQLs under
// req's pricing function and mode, honoring ctx end-to-end (see the
// cancellation contract above). With up-front pricing the quote can be
// disclosed before purchase (paper §2.2, price leakage discussion).
func (b *Broker) Price(ctx context.Context, req PriceRequest) (resp *PriceResponse, err error) {
	b.obs.Add("broker_price_requests", 1)
	defer b.obs.Timer("broker_price")()
	defer func() { b.countOutcome(err) }()
	if len(req.SQLs) == 0 {
		return nil, fmt.Errorf("price request carries no queries")
	}
	if req.MaxError < 0 || req.MaxError > 1 {
		return nil, fmt.Errorf("max error %g is outside [0, 1]", req.MaxError)
	}
	qs, err := b.compileAll(req.SQLs)
	if err != nil {
		return nil, err
	}
	fn := b.fn
	if req.Func != nil {
		fn = *req.Func
	}
	if fn < WeightedCoverage || fn > QEntropy {
		return nil, fmt.Errorf("unknown pricing function %v", fn)
	}

	b.mu.RLock()
	defer b.mu.RUnlock()
	if req.Bundle || len(qs) == 1 {
		info, err := b.quote(ctx, fn, qs, req.MaxError, false)
		if err != nil {
			return nil, err
		}
		return respond([]QuoteInfo{info}), nil
	}
	// Exact batches price every miss in one shared sweep. Approximate
	// batches, and exact ones whose shared sweep met a shard outage,
	// price each query through the solo path: each query needs its own
	// "a|" entry for refinement and purchase reconciliation, and a sampled
	// sweep is already a fraction of the full one.
	degraded := false
	if req.MaxError == 0 {
		resp, err := b.priceBatchLocked(ctx, fn, qs)
		if err == nil || !b.canDegrade(ctx, err) {
			return resp, err
		}
		degraded = true
	}
	infos := make([]QuoteInfo, len(qs))
	for j := range qs {
		if infos[j], err = b.quote(ctx, fn, qs[j:j+1], req.MaxError, degraded); err != nil {
			return nil, err
		}
	}
	return respond(infos), nil
}

// quote prices qs as one bundle under fn: exactly when maxErr is 0 (or
// its sample would cover the whole set), from a sample sized by maxErr
// otherwise (approx.go). With degraded set — or when the sweep fails on
// a shard outage — the slices a partial fan-out could not reach are
// priced at their upper bound instead (degraded.go). Callers hold
// mu.RLock.
func (b *Broker) quote(ctx context.Context, fn PricingFunc, qs []*exec.Query, maxErr float64, degraded bool) (QuoteInfo, error) {
	if degraded {
		return b.estimate(ctx, fn, qs, maxErr, 1, true)
	}
	n := b.engine.Set.Size()
	var info QuoteInfo
	var err error
	if frac := fracForMaxError(maxErr, n); frac < 1 {
		info, err = b.estimate(ctx, fn, qs, maxErr, frac, false)
	} else if info, err = b.exact(ctx, quoteKey{fn: fn, qs: qs}); err == nil && maxErr > 0 {
		// The requested precision needs (nearly) the whole set: the
		// exact path is both cheaper to cache and strictly better.
		info.Estimate = &EstimateInfo{Approx: true, Point: info.Price, SampleFrac: 1, SampleN: n, MaxError: maxErr, Refined: true}
	}
	if err != nil && b.canDegrade(ctx, err) {
		return b.quote(ctx, fn, qs, maxErr, true)
	}
	return info, err
}

// respond assembles a response from its priced entries.
func respond(infos []QuoteInfo) *PriceResponse {
	resp := &PriceResponse{Prices: make([]float64, len(infos)), PerQuery: infos}
	for j, info := range infos {
		resp.Prices[j] = info.Price
		resp.Total += info.Price
		resp.Stats.Add(info.Stats)
	}
	return resp
}

// Purchase runs the query for the buyer and applies the incremental
// history-aware charge (weighted coverage; Algorithm 3), honoring ctx
// end-to-end: the buyer never pays twice for the same information, and
// once they have paid the full dataset price every further query is free.
// The charge is applied only after the pricing sweep has fully completed
// and ctx has been re-checked, so a cancelled purchase never moves
// TotalPaid.
//
// The charge folds the bundle's cached (history-oblivious) disagreement
// bitmap into the buyer's history: an element's disagreement bit does not
// depend on who is asking, so one cached bitmap serves every buyer, and
// the masked cold computation decides every element identically — the
// charge is bit-identical to pricing against the history directly.
func (b *Broker) Purchase(ctx context.Context, req PurchaseRequest) (rec *Receipt, err error) {
	b.obs.Add("broker_purchase_requests", 1)
	defer b.obs.Timer("broker_purchase")()
	defer func() { b.countOutcome(err) }()
	q, err := b.Compile(req.SQL)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.purchaseLocked(ctx, req, q, quoteKey{fn: WeightedCoverage, qs: []*exec.Query{q}})
}

// purchaseLocked runs the compiled query, prices it under the given
// disagreement-bitmap key k (a coverage key: the charge folds the
// bitmap whatever the broker's pricing function), and commits the
// history-aware charge.
// It is the shared back half of Purchase and Stmt.Purchase (which enters
// with a bound query and a precomputed template key). Callers hold
// mu.RLock; q must be placeholder-free.
func (b *Broker) purchaseLocked(ctx context.Context, req PurchaseRequest, q *exec.Query, k quoteKey) (rec *Receipt, err error) {
	if b.readOnly {
		return nil, ErrReadOnly
	}
	res, err := q.Run(b.db)
	if err != nil {
		return nil, err
	}
	ent, cached, err := b.exactEntry(ctx, k)
	if err != nil {
		return nil, err
	}
	// The sweep is done; nothing below blocks. Re-check ctx once so a
	// cancellation that raced the sweep's completion still leaves the
	// buyer uncharged, then commit the charge atomically under the
	// buyer's lock.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Reconcile against any prior approximate quote: the exact sweep is
	// in hand, so the cached estimate is upgraded to the exact price
	// (refining it for later quotes) and the over-estimate is reported.
	// Only the bitmap-derivable functions have an exact quote derivable
	// here; entropy-priced brokers reconcile through the refiner alone.
	// The charge below is computed from ent.bits exactly as on a broker
	// that never served an estimate — Quoted/ReconcileDelta never touch
	// the money fold.
	var quoted, reconcileDelta float64
	if !hashed(b.fn) {
		if est, err := b.fold(b.fn, ent, nil); err == nil {
			exactQuote := est.Price
			if prior, wasApprox := b.markRefined(b.fn, k.qs, exactQuote); wasApprox {
				quoted = prior
				if d := prior - exactQuote; d > 0 {
					reconcileDelta = d
				}
				b.obs.Add("approx_reconciled_purchases", 1)
			}
		}
	}
	bs := b.buyerState(req.Buyer)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	// Write-ahead: with durability on, the purchase record (amounts
	// precomputed through the identical fold) is appended and fsynced
	// BEFORE buyer state moves. A failed append charges nobody and
	// surfaces a retryable ErrDurability; after the fsync the charge is
	// committed unconditionally — recovery replays it even if the
	// process dies before the next line runs.
	if b.dur != nil {
		if err := b.logPurchase(req, q, ent.bits, bs.h, quoted, reconcileDelta); err != nil {
			return nil, err
		}
	}
	rec = &Receipt{Result: res, Cached: cached, Quoted: quoted, ReconcileDelta: reconcileDelta}
	if req.Refund {
		rec.Gross, rec.Refund, err = b.engine.RefundFromDisagreements(bs.h, ent.bits, q.SQL)
	} else {
		rec.Gross, err = b.engine.ChargeFromDisagreements(bs.h, ent.bits, q.SQL)
	}
	if err != nil {
		return nil, err
	}
	rec.Net = rec.Gross - rec.Refund
	rec.Balance = bs.h.Paid
	return rec, nil
}

// compileAll parses and validates every SQL, timing the parse stage.
func (b *Broker) compileAll(sqls []string) ([]*exec.Query, error) {
	defer b.obs.Timer("stage_parse")()
	qs := make([]*exec.Query, len(sqls))
	for i, s := range sqls {
		q, err := b.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// priceBatchLocked prices k independent queries exactly, each entry
// from the cache when possible and every miss in one shared sweep.
// Callers hold mu.RLock.
func (b *Broker) priceBatchLocked(ctx context.Context, fn PricingFunc, qs []*exec.Query) (*PriceResponse, error) {
	entries, cached, err := batchEntries(ctx, b, qs,
		func(qs []*exec.Query) string { return b.key(quoteKey{fn: fn, qs: qs}) },
		func(ctx context.Context, miss []*exec.Query) ([]vector, error) {
			out, _, err := b.sweep(ctx, sweepReq{qs: miss, hashes: hashed(fn), spec: SweepSpec{SupportGen: b.supportGen}})
			for x := 0; err == nil && x < len(out); x++ {
				out[x], err = b.entry(fn, out[x])
			}
			return out, err
		})
	if err != nil {
		return nil, err
	}
	infos := make([]QuoteInfo, len(qs))
	for j := range qs {
		if infos[j], err = b.served(fn, entries[j], cached[j]); err != nil {
			return nil, err
		}
	}
	return respond(infos), nil
}
