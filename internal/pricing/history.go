package pricing

import (
	"context"
	"fmt"

	"qirana/internal/sqlengine/exec"
)

// History is the per-buyer bookkeeping of history-aware pricing
// (Algorithm 3): a bitmap over the support set recording which elements
// already contributed to the buyer's cumulative payment. Once element D_i
// has disagreed with D on some purchased query, the buyer has paid w_i and
// never pays for D_i again; when every element is charged the buyer owns
// the dataset and all further queries are free.
type History struct {
	Charged []bool
	Paid    float64
	Queries []string
}

// NewHistory starts an empty purchase history for a support set of the
// given size.
func NewHistory(size int) *History {
	return &History{Charged: make([]bool, size)}
}

// Remaining returns the number of not-yet-charged support elements.
func (h *History) Remaining() int {
	n := 0
	for _, c := range h.Charged {
		if !c {
			n++
		}
	}
	return n
}

// PriceWithRefund implements the alternative history mechanism the paper
// attributes to Upadhyaya et al. (§2.2): each query is charged its full
// history-oblivious price up front and the overlap with past purchases is
// returned as a refund. The net payment is provably identical to
// Algorithm 3's bookkeeping (both equal the bundle price of the history);
// the two mechanisms differ only in cash flow, which markets with
// delayed settlement care about. Returns (gross charge, refund).
func (e *Engine) PriceWithRefund(h *History, qs ...*exec.Query) (gross, refund float64, err error) {
	if len(h.Charged) != e.Set.Size() {
		return 0, 0, fmt.Errorf("history size %d does not match support set size %d", len(h.Charged), e.Set.Size())
	}
	dis, err := e.DisagreementsCtx(context.Background(), qs, nil) // full, history-oblivious
	if err != nil {
		return 0, 0, err
	}
	return e.RefundFromDisagreements(h, dis, sqlsOf(qs)...)
}

// ChargeFromDisagreements applies Algorithm 3's bookkeeping given the
// bundle's full (history-oblivious) disagreement bitmap — the form the
// broker's quote cache stores. For every support element the bitmap bit
// equals the bit the live-masked DisagreementsCtx call would compute (the
// mask only skips work, it never changes a decision), and the charge sums
// the same weights in the same index order as PriceHistoryAware, so the
// result is bit-identical to the cold path.
func (e *Engine) ChargeFromDisagreements(h *History, dis []bool, sqls ...string) (float64, error) {
	if err := e.checkSettle(h, dis); err != nil {
		return 0, err
	}
	charge, _ := Settle(e.Weights, h.Charged, dis, false)
	h.record(dis, charge, sqls)
	return charge, nil
}

// RefundFromDisagreements applies the charge-then-refund bookkeeping of
// PriceWithRefund given the bundle's full disagreement bitmap, with the
// same bit-identity guarantee as ChargeFromDisagreements.
func (e *Engine) RefundFromDisagreements(h *History, dis []bool, sqls ...string) (gross, refund float64, err error) {
	if err := e.checkSettle(h, dis); err != nil {
		return 0, 0, err
	}
	gross, refund = Settle(e.Weights, h.Charged, dis, true)
	h.record(dis, gross-refund, sqls)
	return gross, refund, nil
}

// Settle returns the amounts a purchase with disagreement bitmap dis
// settles at against the already-charged elements, mutating nothing.
// Incremental settlement (refund false) sums the weights of the
// disagreeing, not-yet-charged elements into gross — one sum, NOT the
// full price minus the refund, which rounds differently. Charge-then-
// refund sums every disagreeing element into gross and the charged ones
// into refund. Every sum runs in index order, so the ledger's precomputed
// amounts and the in-memory fold agree bit for bit.
func Settle(weights []float64, charged, dis []bool, refund bool) (gross, refunded float64) {
	for i, d := range dis {
		switch {
		case !d:
		case !charged[i]:
			gross += weights[i]
		case refund:
			gross += weights[i]
			refunded += weights[i]
		}
	}
	return gross, refunded
}

func (e *Engine) checkSettle(h *History, dis []bool) error {
	if len(h.Charged) != e.Set.Size() {
		return fmt.Errorf("history size %d does not match support set size %d", len(h.Charged), e.Set.Size())
	}
	if len(dis) != e.Set.Size() {
		return fmt.Errorf("got %d disagreement bits for support set of size %d", len(dis), e.Set.Size())
	}
	return nil
}

// record marks every disagreeing element charged and books net paid for
// the purchased queries.
func (h *History) record(dis []bool, net float64, sqls []string) {
	for i, d := range dis {
		if d {
			h.Charged[i] = true
		}
	}
	h.Paid += net
	h.Queries = append(h.Queries, sqls...)
}

// PriceHistoryAware charges the buyer for the new information in the
// bundle given their history, under weighted coverage (the paper presents
// history-awareness for p_wc; the same bookkeeping applies to any
// coverage-style function). It returns the incremental charge and updates
// the history.
func (e *Engine) PriceHistoryAware(h *History, qs ...*exec.Query) (float64, error) {
	if len(h.Charged) != e.Set.Size() {
		return 0, fmt.Errorf("history size %d does not match support set size %d", len(h.Charged), e.Set.Size())
	}
	live := make([]bool, len(h.Charged))
	any := false
	for i, c := range h.Charged {
		live[i] = !c
		any = any || live[i]
	}
	if !any {
		return 0, nil // the full dataset has been paid for
	}
	// The mask only skips work: ChargeFromDisagreements charges no
	// element the history already holds, whatever its bit.
	dis, err := e.DisagreementsCtx(context.Background(), qs, live)
	if err != nil {
		return 0, err
	}
	return e.ChargeFromDisagreements(h, dis, sqlsOf(qs)...)
}

// sqlsOf lists the bundle's SQL texts for the history's query log.
func sqlsOf(qs []*exec.Query) []string {
	sqls := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL
	}
	return sqls
}
