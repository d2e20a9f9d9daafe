package ast

import (
	"fmt"

	"qirana/internal/value"
)

// This file implements deep cloning and parameter binding. Bind is the
// bridge from a prepared template to the ordinary engine path: it clones the
// template statement with every $N placeholder replaced by the literal
// args[N-1], producing a statement structurally identical to parsing the
// constant-substituted SQL — so bound statements compile, classify, and
// price through exactly the same code as ad-hoc ones, bit-identically. A
// minus over a numeric argument therefore folds into a negative literal,
// as the parser folds one over a number.

// Bind returns a deep copy of s with placeholders substituted by args
// (args[0] fills $1). Nodes are never shared with s, so the clone can be
// analyzed independently (analysis annotations are keyed by node pointer).
func Bind(s *SelectStmt, args []value.Value) (*SelectStmt, error) {
	var err error
	out := cloneStmt(s, func(p *Placeholder) Expr {
		if p.Idx < 1 || p.Idx > len(args) {
			if err == nil {
				err = fmt.Errorf("placeholder $%d out of range: %d argument(s) bound", p.Idx, len(args))
			}
			return &Placeholder{Idx: p.Idx}
		}
		return &Literal{Val: args[p.Idx-1]}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaxPlaceholder returns the highest $N placeholder index appearing
// anywhere in the statement, including subqueries; 0 when there are none.
func MaxPlaceholder(s *SelectStmt) int {
	max := 0
	WalkStmt(s, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Idx > max {
			max = p.Idx
		}
	})
	return max
}

// WalkStmt calls fn on every expression in the statement, descending into
// derived tables and subquery expressions at any depth.
func WalkStmt(s *SelectStmt, fn func(Expr)) {
	if s == nil {
		return
	}
	walkSub := func(e Expr) {
		Walk(e, func(x Expr) {
			fn(x)
			switch sub := x.(type) {
			case *SubqueryExpr:
				WalkStmt(sub.Sub, fn)
			case *ExistsExpr:
				WalkStmt(sub.Sub, fn)
			case *InExpr:
				WalkStmt(sub.Sub, fn)
			}
		})
	}
	for _, it := range s.Items {
		if !it.Star {
			walkSub(it.Expr)
		}
	}
	for _, t := range s.From {
		WalkStmt(t.Sub, fn)
	}
	walkSub(s.Where)
	for _, g := range s.GroupBy {
		walkSub(g)
	}
	walkSub(s.Having)
	for _, o := range s.OrderBy {
		walkSub(o.Expr)
	}
}

func cloneStmt(s *SelectStmt, ph func(*Placeholder) Expr) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{
		Distinct: s.Distinct,
		Limit:    s.Limit,
		Offset:   s.Offset,
	}
	if s.Items != nil {
		out.Items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			out.Items[i] = SelectItem{Star: it.Star, StarTable: it.StarTable, Alias: it.Alias, Expr: cloneExpr(it.Expr, ph)}
		}
	}
	if s.From != nil {
		out.From = make([]TableRef, len(s.From))
		for i, t := range s.From {
			out.From[i] = TableRef{Name: t.Name, Alias: t.Alias, Sub: cloneStmt(t.Sub, ph)}
		}
	}
	out.Where = cloneExpr(s.Where, ph)
	if s.GroupBy != nil {
		out.GroupBy = make([]Expr, len(s.GroupBy))
		for i, g := range s.GroupBy {
			out.GroupBy[i] = cloneExpr(g, ph)
		}
	}
	out.Having = cloneExpr(s.Having, ph)
	if s.OrderBy != nil {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: cloneExpr(o.Expr, ph), Desc: o.Desc}
		}
	}
	return out
}

func cloneExpr(e Expr, ph func(*Placeholder) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		return &ColumnRef{Table: x.Table, Name: x.Name}
	case *Literal:
		return &Literal{Val: x.Val}
	case *Placeholder:
		return ph(x)
	case *Interval:
		return &Interval{N: x.N, Unit: x.Unit}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: cloneExpr(x.L, ph), R: cloneExpr(x.R, ph)}
	case *UnaryExpr:
		if x.Op == "-" {
			return Neg(cloneExpr(x.X, ph))
		}
		return &UnaryExpr{Op: x.Op, X: cloneExpr(x.X, ph)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		if x.Args != nil {
			out.Args = make([]Expr, len(x.Args))
			for i, a := range x.Args {
				out.Args[i] = cloneExpr(a, ph)
			}
		}
		return out
	case *LikeExpr:
		return &LikeExpr{X: cloneExpr(x.X, ph), Pattern: cloneExpr(x.Pattern, ph), Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{X: cloneExpr(x.X, ph), Lo: cloneExpr(x.Lo, ph), Hi: cloneExpr(x.Hi, ph), Not: x.Not}
	case *InExpr:
		out := &InExpr{X: cloneExpr(x.X, ph), Not: x.Not, Sub: cloneStmt(x.Sub, ph)}
		if x.List != nil {
			out.List = make([]Expr, len(x.List))
			for i, a := range x.List {
				out.List[i] = cloneExpr(a, ph)
			}
		}
		return out
	case *ExistsExpr:
		return &ExistsExpr{Sub: cloneStmt(x.Sub, ph), Not: x.Not}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: cloneStmt(x.Sub, ph)}
	case *IsNullExpr:
		return &IsNullExpr{X: cloneExpr(x.X, ph), Not: x.Not}
	case *CaseExpr:
		out := &CaseExpr{Operand: cloneExpr(x.Operand, ph), Else: cloneExpr(x.Else, ph)}
		if x.Whens != nil {
			out.Whens = make([]WhenClause, len(x.Whens))
			for i, w := range x.Whens {
				out.Whens[i] = WhenClause{Cond: cloneExpr(w.Cond, ph), Result: cloneExpr(w.Result, ph)}
			}
		}
		return out
	}
	panic(fmt.Sprintf("ast: cloneExpr: unhandled node %T", e))
}
