package qirana

import (
	"context"
	"errors"
	"fmt"

	"qirana/internal/sqlengine/ast"
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
	// exactly. Load shedding (Options.ShedTargetP99) may raise the
	// effective value. Purchases always settle at the exact price.
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
	// Load shedding can only COARSEN the request: the effective error
	// target is the larger of what the caller asked for and the floor
	// the shed state machine currently enforces.
	maxErr := req.MaxError
	if floor := b.maybeShed(); floor > maxErr {
		maxErr = floor
	}

	b.mu.RLock()
	defer b.mu.RUnlock()

	if req.Bundle || len(qs) == 1 {
		var info QuoteInfo
		if maxErr > 0 {
			info, err = b.approxQuoteLocked(ctx, fn, qs, maxErr)
		} else {
			info.Price, info.Stats, info.Cached, err = b.quoteLocked(ctx, fn, qs)
		}
		if err != nil {
			// A shard outage past the retry budget degrades instead of
			// failing: the dead slices are priced at their upper bound
			// and the quote carries degraded provenance (degraded.go).
			if !b.canDegrade(ctx, err) {
				return nil, err
			}
			info, err = b.degradedQuoteLocked(ctx, fn, qs, maxErr)
			if err != nil {
				return nil, err
			}
		}
		return &PriceResponse{
			Prices:   []float64{info.Price},
			Total:    info.Price,
			Stats:    info.Stats,
			PerQuery: []QuoteInfo{info},
		}, nil
	}

	if maxErr > 0 {
		// Approximate batches price each query through the solo sampled
		// path: per-query "a|" entries must exist for refinement and
		// purchase reconciliation, and the sampled sweep is already a
		// fraction of the full one, so the shared-sweep saving matters
		// far less than on the exact path.
		resp = &PriceResponse{Prices: make([]float64, len(qs)), PerQuery: make([]QuoteInfo, len(qs))}
		for j := range qs {
			info, err := b.approxQuoteLocked(ctx, fn, qs[j:j+1], maxErr)
			if err != nil {
				if !b.canDegrade(ctx, err) {
					return nil, err
				}
				info, err = b.degradedQuoteLocked(ctx, fn, qs[j:j+1], maxErr)
				if err != nil {
					return nil, err
				}
			}
			resp.Prices[j] = info.Price
			resp.Total += info.Price
			resp.PerQuery[j] = info
			resp.Stats.Add(info.Stats)
		}
		return resp, nil
	}

	prices, stats, cached, err := b.priceBatchLocked(ctx, fn, qs)
	if err != nil {
		if !b.canDegrade(ctx, err) {
			return nil, err
		}
		// Degraded batches fall back to per-query quotes: each query
		// needs its own "a|" entry so each settles exact independently
		// at purchase, same as the approximate batch path above.
		resp = &PriceResponse{Prices: make([]float64, len(qs)), PerQuery: make([]QuoteInfo, len(qs))}
		for j := range qs {
			info, derr := b.degradedQuoteLocked(ctx, fn, qs[j:j+1], 0)
			if derr != nil {
				return nil, derr
			}
			resp.Prices[j] = info.Price
			resp.Total += info.Price
			resp.PerQuery[j] = info
			resp.Stats.Add(info.Stats)
		}
		return resp, nil
	}
	resp = &PriceResponse{Prices: prices, PerQuery: make([]QuoteInfo, len(qs))}
	for j := range qs {
		resp.Total += prices[j]
		resp.PerQuery[j] = QuoteInfo{Price: prices[j], Stats: stats[j], Cached: cached[j]}
		resp.Stats.Add(stats[j])
	}
	return resp, nil
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
	return b.purchaseLocked(ctx, req, q, b.disKey([]*exec.Query{q}))
}

// purchaseLocked runs the compiled query, prices it under the given
// disagreement-bitmap cache key, and commits the history-aware charge.
// It is the shared back half of Purchase and Stmt.Purchase (which enters
// with a bound query and a precomputed template key). Callers hold
// mu.RLock; q must be placeholder-free.
func (b *Broker) purchaseLocked(ctx context.Context, req PurchaseRequest, q *exec.Query, disK string) (rec *Receipt, err error) {
	if b.readOnly {
		return nil, ErrReadOnly
	}
	res, err := q.Run(b.db)
	if err != nil {
		return nil, err
	}
	ent, cached, err := b.disagreements(ctx, []*exec.Query{q}, disK)
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
	// The charge below is computed from ent.dis exactly as on a broker
	// that never served an estimate — Quoted/ReconcileDelta never touch
	// the money fold.
	var quoted, reconcileDelta float64
	if b.fn == WeightedCoverage || b.fn == UniformEntropyGain {
		if exactQuote, err := b.engine.PriceFromDisagreements(b.fn, ent.dis); err == nil {
			if prior, wasApprox := b.markRefined(b.fn, []*exec.Query{q}, exactQuote); wasApprox {
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
		if err := b.logPurchase(req, q, ent.dis, bs.h, quoted, reconcileDelta); err != nil {
			return nil, err
		}
	}
	rec = &Receipt{Result: res, Cached: cached, Quoted: quoted, ReconcileDelta: reconcileDelta}
	if req.Refund {
		rec.Gross, rec.Refund, err = b.engine.RefundFromDisagreements(bs.h, ent.dis, q.SQL)
	} else {
		rec.Gross, err = b.engine.ChargeFromDisagreements(bs.h, ent.dis, q.SQL)
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
		q, err := exec.Compile(s, b.db.Schema)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		if n := ast.MaxPlaceholder(q.Stmt); n > 0 {
			return nil, fmt.Errorf("query %d: contains placeholder $%d; prepare it with Broker.Prepare and bind parameters with Stmt.Price", i, n)
		}
		qs[i] = q
	}
	return qs, nil
}

// priceBatchLocked prices k independent queries in one shared sweep with
// per-entry cache provenance. Callers hold mu.RLock.
func (b *Broker) priceBatchLocked(ctx context.Context, fn PricingFunc, qs []*exec.Query) ([]float64, []Stats, []bool, error) {
	switch fn {
	case WeightedCoverage, UniformEntropyGain:
		entries, cached, err := batchEntries(ctx, b, qs, b.disKey,
			func(ctx context.Context, miss []*exec.Query) ([]disEntry, error) {
				var res [][]bool
				var stats []Stats
				var err error
				if rs := b.sweeper; rs != nil {
					res, stats, err = rs.SweepBits(ctx, sqlsOf(miss), SweepSpec{SupportGen: b.supportGen})
				} else {
					err = b.localSweep(ctx, func() (err error) {
						res, stats, err = b.engine.DisagreementsMultiLiveCtx(ctx, miss, nil)
						return err
					})
				}
				if err != nil {
					return nil, err
				}
				out := make([]disEntry, len(miss))
				for x := range miss {
					out[x] = disEntry{dis: res[x], stats: stats[x]}
				}
				return out, nil
			})
		if err != nil {
			return nil, nil, nil, err
		}
		prices := make([]float64, len(qs))
		stats := make([]Stats, len(qs))
		for j := range qs {
			p, err := b.engine.PriceFromDisagreements(fn, entries[j].dis)
			if err != nil {
				return nil, nil, nil, err
			}
			prices[j] = p
			stats[j] = entries[j].stats
		}
		return prices, stats, cached, nil

	case ShannonEntropy, QEntropy:
		entries, cached, err := batchEntries(ctx, b, qs,
			func(qs []*exec.Query) string { return b.entropyKey(fn, qs) },
			func(ctx context.Context, miss []*exec.Query) ([]priceEntry, error) {
				if rs := b.sweeper; rs != nil {
					elems, stats, err := rs.SweepHashes(ctx, sqlsOf(miss), SweepSpec{SupportGen: b.supportGen})
					if err != nil {
						return nil, err
					}
					out := make([]priceEntry, len(miss))
					for x := range miss {
						p, err := b.engine.EntropyPriceFromHashes(fn, elems[x])
						if err != nil {
							return nil, err
						}
						out[x] = priceEntry{price: p, stats: stats[x]}
					}
					return out, nil
				}
				var elems [][]uint64
				var stats []Stats
				if err := b.localSweep(ctx, func() (err error) {
					elems, _, stats, err = b.engine.OutputHashesMultiLiveCtx(ctx, miss, nil)
					return err
				}); err != nil {
					return nil, err
				}
				out := make([]priceEntry, len(miss))
				for x := range miss {
					// Identical to the solo path: the price is a function
					// of the element-hash partition alone.
					p, err := b.engine.EntropyPriceFromHashes(fn, elems[x])
					if err != nil {
						return nil, err
					}
					out[x] = priceEntry{price: p, stats: stats[x]}
				}
				return out, nil
			})
		if err != nil {
			return nil, nil, nil, err
		}
		prices := make([]float64, len(qs))
		stats := make([]Stats, len(qs))
		for j := range qs {
			prices[j] = entries[j].price
			stats[j] = entries[j].stats
		}
		return prices, stats, cached, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown pricing function %v", fn)
}
