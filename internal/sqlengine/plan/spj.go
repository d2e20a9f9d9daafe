// Package plan extracts the SPJ normal form π_A σ_C (R₁ × … × R_ℓ), plus
// the aggregation layer γ_{G, agg…}, from analyzed queries (paper §4,
// equation 5). The extraction decides fast-path eligibility for the
// disagreement algorithms and, for aggregates, builds the one derived
// statement they run: the unrolled query Q◦γ = π_{G, args} σ_C (…), which
// exposes group keys and aggregate inputs per contributing join row
// (§4.3). The contributing primary keys of the augmented query Q̂ (§4.1)
// need no statement of their own: every joined tuple of σ_C (R₁ × … × R_ℓ)
// carries each source's base row, so the checker reads them off the same
// join (exec.Join.Contributions).
package plan

import (
	"fmt"

	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// AggSpec describes one aggregate output of an aggregation query.
type AggSpec struct {
	Fn *ast.FuncCall
	// ArgCol is the column index of this aggregate's input value in the
	// unrolled query's output (group columns come first).
	ArgCol int
}

// SPJ is the normal form of a fast-path-eligible query.
type SPJ struct {
	A *analyze.Analyzed
	// RelOfSource names the base relation of each FROM source.
	RelOfSource []string
	// Conjuncts are the top-level AND conjuncts of C.
	Conjuncts []ast.Expr
	// SingleRel[i] are the conjuncts referencing only source i; they are
	// the conservative C[u⁺] satisfiability test of Algorithm 4.
	SingleRel [][]ast.Expr
	// ProjAttrs[i] is, per source, the set of attribute indexes appearing
	// in the projection A (for plain SPJ) — used for the B ∩ A test.
	ProjAttrs []map[int]bool
	// GroupAttrs[i] is, per source, the attribute set referenced by the
	// grouping expressions G — used for the B ∩ G test.
	GroupAttrs []map[int]bool
	// BareProj[i] is the subset of ProjAttrs[i] whose attributes appear as
	// entire output columns (bare column references). For those, changing
	// the attribute of a contributing tuple provably changes the output
	// (the B ∩ A shortcut of Algorithm 4, line 8); for attributes buried
	// inside computed expressions the shortcut is not exact, so the
	// checker falls back to the compare check.
	BareProj []map[int]bool
	// BareGroup is the analogous bare subset of GroupAttrs.
	BareGroup []map[int]bool
	// HasCountStar reports whether some displayed aggregate is COUNT(*).
	HasCountStar bool
	// Reads[i][c] reports whether the query reads attribute c of source
	// i anywhere: in the select list (stars expanded), WHERE, GROUP BY or
	// an aggregate argument. COUNT(*) reads nothing.
	Reads [][]bool

	// Distinct marks a (non-aggregating) SELECT DISTINCT query. The SPJ
	// core is extracted over bag semantics; set-level equality is decided
	// by the checker against a multiplicity view of the core rows.
	Distinct bool

	IsAgg     bool
	Aggs      []AggSpec
	NumGroups int // number of grouping expressions
	// GroupOut[i] is the output column of grouping expression i, so an
	// output row's group key is value.Key of those columns in order.
	GroupOut []int

	// UnrolledStmt is Q◦γ for aggregation queries (nil for plain SPJ).
	UnrolledStmt *ast.SelectStmt
}

// Extract builds the SPJ form, or returns an error describing why the
// query must take the naive pricing path.
func Extract(a *analyze.Analyzed) (*SPJ, error) {
	stmt := a.Stmt
	if stmt.Distinct && a.IsAgg {
		return nil, fmt.Errorf("DISTINCT over aggregation is outside the SPJ fast path")
	}
	if stmt.Limit >= 0 {
		return nil, fmt.Errorf("LIMIT is outside the SPJ fast path")
	}
	if len(stmt.OrderBy) > 0 {
		return nil, fmt.Errorf("ORDER BY is outside the SPJ fast path")
	}
	if stmt.Having != nil {
		return nil, fmt.Errorf("HAVING is outside the SPJ fast path")
	}
	if len(a.Subs) > 0 {
		return nil, fmt.Errorf("subqueries are outside the SPJ fast path")
	}
	if len(a.Sources) == 0 {
		return nil, fmt.Errorf("FROM-less query")
	}
	s := &SPJ{A: a, Distinct: stmt.Distinct}
	for _, src := range a.Sources {
		if src.Rel == nil {
			return nil, fmt.Errorf("derived tables are outside the SPJ fast path")
		}
		// Self-joins (the same relation appearing several times) are
		// admitted: residual checks run higher-order deltas over every
		// occurrence (exec.Query.RunTagged, tier DeltaPartial).
		s.RelOfSource = append(s.RelOfSource, src.Rel.Name)
	}
	for _, f := range a.Aggs {
		if f.Distinct {
			return nil, fmt.Errorf("DISTINCT aggregates are outside the SPJ fast path")
		}
		if !f.Star && len(f.Args) != 1 {
			return nil, fmt.Errorf("multi-argument aggregates are outside the SPJ fast path")
		}
	}
	s.IsAgg = a.IsAgg
	if s.IsAgg {
		// Every grouping expression must surface in the select list so the
		// output is exactly the (group key, aggregates) map; otherwise
		// distinct groups may collapse and the group-delta reasoning of
		// §4.3 is no longer exact.
		s.GroupOut = make([]int, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			if s.GroupOut[i] = groupOutCol(a, g); s.GroupOut[i] < 0 {
				return nil, fmt.Errorf("grouping expression %s not in select list", g.String())
			}
		}
		// Conversely, each non-aggregate output expression must be one of
		// the grouping expressions.
		for _, oc := range a.OutCols {
			if ast.HasAggregate(oc.Expr) {
				continue
			}
			if !isGroupExpr(a, oc.Expr) {
				return nil, fmt.Errorf("non-grouped output expression %s", oc.Expr.String())
			}
		}
	}

	s.Conjuncts = ast.SplitConjuncts(stmt.Where)
	s.SingleRel = make([][]ast.Expr, len(a.Sources))
	for _, c := range s.Conjuncts {
		srcs, pure := exprSources(a, c)
		if !pure {
			return nil, fmt.Errorf("condition %s is outside the SPJ fast path", c.String())
		}
		if len(srcs) == 1 {
			s.SingleRel[srcs[0]] = append(s.SingleRel[srcs[0]], c)
		}
	}

	// Attribute sets.
	s.ProjAttrs = make([]map[int]bool, len(a.Sources))
	s.GroupAttrs = make([]map[int]bool, len(a.Sources))
	s.BareProj = make([]map[int]bool, len(a.Sources))
	s.BareGroup = make([]map[int]bool, len(a.Sources))
	for i := range a.Sources {
		s.ProjAttrs[i] = map[int]bool{}
		s.GroupAttrs[i] = map[int]bool{}
		s.BareProj[i] = map[int]bool{}
		s.BareGroup[i] = map[int]bool{}
	}
	for _, oc := range a.OutCols {
		if s.IsAgg && ast.HasAggregate(oc.Expr) {
			continue
		}
		addAttrs(a, oc.Expr, s.ProjAttrs)
		addBare(a, oc.Expr, s.BareProj)
	}
	for _, g := range stmt.GroupBy {
		addAttrs(a, g, s.GroupAttrs)
		addBare(a, g, s.BareGroup)
	}
	for _, f := range a.Aggs {
		if f.Name == "COUNT" && f.Star {
			s.HasCountStar = true
		}
	}
	// Every column reference of the statement is bound at level 0: Extract
	// has rejected HAVING, ORDER BY and subqueries.
	s.Reads = make([][]bool, len(a.Sources))
	for i, src := range a.Sources {
		s.Reads[i] = make([]bool, src.Rel.Arity())
	}
	for _, cb := range a.Binds {
		s.Reads[cb.Table][cb.Col] = true
	}

	if s.IsAgg {
		s.buildUnrolled()
	}
	return s, nil
}

// Refolds reports whether the query is a single-source GROUP BY
// aggregate, whose output hash over a neighbouring instance u(D) follows
// from refolding only the groups u touches: each output row is a function
// of its group's rows in scan order, so folding the touched groups over
// their rows in base order gives their new output rows bit for bit.
func (s *SPJ) Refolds() bool {
	return s.IsAgg && s.NumGroups > 0 && len(s.RelOfSource) == 1
}

// exprSources returns the level-0 sources referenced by e and whether the
// expression is "pure" (no subqueries, no aggregates, no outer references).
func exprSources(a *analyze.Analyzed, e ast.Expr) ([]int, bool) {
	set := map[int]bool{}
	pure := true
	ast.Walk(e, func(n ast.Expr) {
		switch v := n.(type) {
		case *ast.ColumnRef:
			cb, ok := a.Binds[v]
			if !ok || cb.Level != 0 {
				pure = false
				return
			}
			set[cb.Table] = true
		case *ast.SubqueryExpr, *ast.ExistsExpr:
			pure = false
		case *ast.InExpr:
			if v.Sub != nil {
				pure = false
			}
		case *ast.FuncCall:
			if v.IsAggregate() {
				pure = false
			}
		}
	})
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out, pure
}

func addAttrs(a *analyze.Analyzed, e ast.Expr, into []map[int]bool) {
	ast.Walk(e, func(n ast.Expr) {
		if cr, ok := n.(*ast.ColumnRef); ok {
			if cb, bound := a.Binds[cr]; bound && cb.Level == 0 {
				into[cb.Table][cb.Col] = true
			}
		}
	})
}

// addBare records e's column when e is a bare column reference.
func addBare(a *analyze.Analyzed, e ast.Expr, into []map[int]bool) {
	if cr, ok := e.(*ast.ColumnRef); ok {
		if cb, bound := a.Binds[cr]; bound && cb.Level == 0 {
			into[cb.Table][cb.Col] = true
		}
	}
}

// groupOutCol returns the index of an output column that is the grouping
// expression g, or -1.
func groupOutCol(a *analyze.Analyzed, g ast.Expr) int {
	gs := g.String()
	for i, oc := range a.OutCols {
		if sameRef(a, oc.Expr, g) || oc.Expr.String() == gs {
			return i
		}
	}
	return -1
}

func isGroupExpr(a *analyze.Analyzed, e ast.Expr) bool {
	es := e.String()
	for _, g := range a.Stmt.GroupBy {
		if sameRef(a, e, g) || g.String() == es {
			return true
		}
	}
	return false
}

// sameRef reports whether two expressions are column references bound to
// the same column (qualified and unqualified spellings compare equal).
func sameRef(a *analyze.Analyzed, x, y ast.Expr) bool {
	cx, okx := x.(*ast.ColumnRef)
	cy, oky := y.(*ast.ColumnRef)
	if !okx || !oky {
		return false
	}
	bx, okx := a.Binds[cx]
	by, oky := a.Binds[cy]
	return okx && oky && bx == by
}

// buildUnrolled constructs Q◦γ = π_{G, arg₁…arg_k} σ_C (R₁ × … × R_ℓ).
// COUNT(*) contributes the constant 1 as its argument column.
func (s *SPJ) buildUnrolled() {
	a := s.A
	stmt := &ast.SelectStmt{From: a.Stmt.From, Where: a.Stmt.Where, Limit: -1}
	for _, g := range a.Stmt.GroupBy {
		stmt.Items = append(stmt.Items, ast.SelectItem{Expr: g})
	}
	s.NumGroups = len(a.Stmt.GroupBy)
	col := s.NumGroups
	for _, f := range a.Aggs {
		spec := AggSpec{Fn: f, ArgCol: col}
		if f.Star {
			stmt.Items = append(stmt.Items, ast.SelectItem{Expr: one()})
		} else {
			stmt.Items = append(stmt.Items, ast.SelectItem{Expr: f.Args[0]})
		}
		s.Aggs = append(s.Aggs, spec)
		col++
	}
	s.UnrolledStmt = stmt
}

func one() ast.Expr {
	return &ast.Literal{Val: value.NewInt(1)}
}
