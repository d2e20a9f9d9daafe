package pricing

import (
	"context"
	"fmt"

	"qirana/internal/maxent"
	"qirana/internal/sqlengine/exec"
)

// PricePoint is a seller-specified (query, price) pair: the weighted
// coverage price of Query must equal Price (paper §3.3). The paper
// restricts practical price points to selections and projections; any
// query the engine can price is accepted here.
type PricePoint struct {
	Query *exec.Query
	Price float64
}

// FitWeights solves the entropy-maximization program of §3.3, assigning
// support-set weights such that the full dataset prices at Total and every
// price point is met exactly, with the weights otherwise as uniform as
// possible. On maxent.ErrInfeasible the caller should resample or enlarge
// the support set, as the paper prescribes for SCS infeasibility
// certificates.
func (e *Engine) FitWeights(points []PricePoint) error {
	n := e.Set.Size()
	cons := make([]maxent.Constraint, 0, len(points)+1)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	cons = append(cons, maxent.Constraint{Members: all, Target: e.Total})
	for j, pt := range points {
		if pt.Price < 0 {
			return fmt.Errorf("price point %d: negative price %g", j, pt.Price)
		}
		dis, err := e.DisagreementsCtx(context.Background(), []*exec.Query{pt.Query}, nil)
		if err != nil {
			return fmt.Errorf("price point %d (%s): %w", j, pt.Query.SQL, err)
		}
		var members []int
		for i, d := range dis {
			if d {
				members = append(members, i)
			}
		}
		cons = append(cons, maxent.Constraint{Members: members, Target: pt.Price})
	}
	w, err := maxent.Solve(n, cons, maxent.DefaultOptions())
	if err != nil {
		return fmt.Errorf("fit price points: %w", err)
	}
	return e.SetWeights(w)
}
