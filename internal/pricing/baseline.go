package pricing

import (
	"fmt"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
)

// Baseline pricing schemes from prior work, implemented for the
// comparisons the paper draws (§1, §2.2): both are simple and fast, and
// both violate the arbitrage guarantees — the baseline experiment and
// TestOutputSizeBaselineArbitrage exhibit concrete attacks.

// OutputSizePrice charges proportionally to the output cardinality, the
// scheme of usage-based markets and of [Upadhyaya et al., 2016]: the
// dataset price is split per tuple, and a query costs its row count. A
// buyer who wants the expensive unrolled form of a cheap aggregate (e.g.
// π_Continent from the continent histogram) can reconstruct it from the
// cheap query — information arbitrage.
func (e *Engine) OutputSizePrice(qs ...*exec.Query) (float64, error) {
	perTuple := e.Total / float64(e.DB.TotalRows())
	total := 0.0
	for _, q := range qs {
		res, err := q.Run(e.DB)
		if err != nil {
			return 0, err
		}
		total += perTuple * float64(res.Len())
	}
	if total > e.Total {
		total = e.Total
	}
	return total, nil
}

// ProvenancePrice charges proportionally to the number of input tuples
// that contribute to the answer (tuple-level provenance, as in
// provenance-based schemes the paper criticizes). It reads them off one
// join of the query, as the §4 fast path's checker does, and therefore
// supports the SPJ(+γ) class; other queries are rejected. Its failure
// mode is the opposite of output-size pricing: any aggregate touching the
// full relation — even SELECT count(*) — costs the full price while
// disclosing almost nothing.
func (e *Engine) ProvenancePrice(q *exec.Query) (float64, error) {
	if _, err := plan.Extract(q.A); err != nil {
		return 0, fmt.Errorf("provenance pricing requires an SPJ(+aggregation) query: %w", err)
	}
	j, err := q.Join(e.DB)
	if err != nil {
		return 0, err
	}
	contributing := 0
	for _, m := range j.Contributions() {
		contributing += len(m)
	}
	p := e.Total * float64(contributing) / float64(e.DB.TotalRows())
	if p > e.Total {
		p = e.Total
	}
	return p, nil
}
