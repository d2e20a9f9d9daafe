package pricing

import (
	"context"

	"qirana/internal/sqlengine/exec"
)

// DeterminesUnderD checks the data-dependent determinacy D ⊢ Q1 ↠ Q2
// restricted to S: every support element whose Q1-output agrees with D's
// must also agree on Q2. This is the relation under which the strongly
// arbitrage-free functions guarantee p(Q2) ≤ p(Q1).
func (e *Engine) DeterminesUnderD(q1 []*exec.Query, q2 []*exec.Query) (bool, error) {
	h1, b1, err := e.OutputHashesCtx(context.Background(), q1)
	if err != nil {
		return false, err
	}
	h2, b2, err := e.OutputHashesCtx(context.Background(), q2)
	if err != nil {
		return false, err
	}
	for i := range h1 {
		if h1[i] == b1 && h2[i] != b2 {
			return false, nil
		}
	}
	return true, nil
}
