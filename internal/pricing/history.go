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
	if len(h.Charged) != e.Set.Size() {
		return 0, fmt.Errorf("history size %d does not match support set size %d", len(h.Charged), e.Set.Size())
	}
	if len(dis) != e.Set.Size() {
		return 0, fmt.Errorf("got %d disagreement bits for support set of size %d", len(dis), e.Set.Size())
	}
	charge := 0.0
	for i, d := range dis {
		if d && !h.Charged[i] {
			charge += e.Weights[i]
			h.Charged[i] = true
		}
	}
	h.Paid += charge
	h.Queries = append(h.Queries, sqls...)
	return charge, nil
}

// RefundFromDisagreements applies the charge-then-refund bookkeeping of
// PriceWithRefund given the bundle's full disagreement bitmap, with the
// same bit-identity guarantee as ChargeFromDisagreements.
func (e *Engine) RefundFromDisagreements(h *History, dis []bool, sqls ...string) (gross, refund float64, err error) {
	if len(h.Charged) != e.Set.Size() {
		return 0, 0, fmt.Errorf("history size %d does not match support set size %d", len(h.Charged), e.Set.Size())
	}
	if len(dis) != e.Set.Size() {
		return 0, 0, fmt.Errorf("got %d disagreement bits for support set of size %d", len(dis), e.Set.Size())
	}
	for i, d := range dis {
		if !d {
			continue
		}
		gross += e.Weights[i]
		if h.Charged[i] {
			refund += e.Weights[i]
		} else {
			h.Charged[i] = true
		}
	}
	h.Paid += gross - refund
	h.Queries = append(h.Queries, sqls...)
	return gross, refund, nil
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
