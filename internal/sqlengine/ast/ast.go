// Package ast defines the abstract syntax tree for qirana's SQL dialect.
//
// The dialect covers the query classes QIRANA prices (paper §4): select-
// project-join queries under bag semantics, aggregation with grouping and
// HAVING, DISTINCT, ORDER BY/LIMIT, CASE, and scalar/IN/EXISTS subqueries
// (including correlated ones, which take the naive pricing path).
package ast

import (
	"fmt"
	"strings"

	"qirana/internal/sqlengine/token"
	"qirana/internal/value"
)

// Ident renders an identifier, quoting it whenever the bare form would not
// lex back to the same identifier: empty names, names with characters
// outside [A-Za-z0-9_], names starting with a digit, and reserved keywords.
// Double quotes are preferred; a name that itself contains a double quote
// uses backticks (the lexer has no escape inside quoted identifiers, so a
// name containing both quote characters is not lexable and cannot have come
// from parsed input).
func Ident(name string) string {
	if !identNeedsQuoting(name) {
		return name
	}
	if strings.ContainsRune(name, '"') {
		return "`" + name + "`"
	}
	return `"` + name + `"`
}

func identNeedsQuoting(name string) bool {
	if name == "" {
		return true
	}
	for i, c := range name {
		switch {
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9':
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return token.Keywords[strings.ToUpper(name)]
}

// Expr is any SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNeq: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether the operator is a comparison predicate.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Table string // qualifier, "" if unqualified
	Name  string
}

func (e *ColumnRef) exprNode() {}
func (e *ColumnRef) String() string {
	if e.Table != "" {
		return Ident(e.Table) + "." + Ident(e.Name)
	}
	return Ident(e.Name)
}

// SourceCol reads column Col of the row bound at the statement's FROM
// source Source, by position. The parser never produces it: the executor
// builds it to join rows on a hidden column no name resolves to, such as
// the trailing upid column of a tagged delta run.
type SourceCol struct{ Source, Col int }

func (e *SourceCol) exprNode()      {}
func (e *SourceCol) String() string { return fmt.Sprintf("#%d.%d", e.Source, e.Col) }

// Literal is a constant value.
type Literal struct{ Val value.Value }

func (e *Literal) exprNode()      {}
func (e *Literal) String() string { return e.Val.SQL() }

// Placeholder is a $N positional parameter in a prepared-statement template.
// Idx is 1-based (the N in $N). Placeholders are valid anywhere a literal is;
// they must be bound (see Bind) before a statement can be executed.
type Placeholder struct{ Idx int }

func (e *Placeholder) exprNode()      {}
func (e *Placeholder) String() string { return fmt.Sprintf("$%d", e.Idx) }

// Interval is an INTERVAL 'n' UNIT literal used in date arithmetic.
type Interval struct {
	N    int64
	Unit string // "DAY", "MONTH" or "YEAR"
}

func (e *Interval) exprNode() {}
func (e *Interval) String() string {
	return fmt.Sprintf("interval '%d' %s", e.N, strings.ToLower(e.Unit))
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

func (e *BinaryExpr) exprNode() {}
func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// UnaryExpr is unary minus or NOT.
type UnaryExpr struct {
	Op string // "-" or "NOT"
	X  Expr
}

// Neg is unary minus over x. Over a numeric literal it is the negated
// literal: the parser reads "-5" as one, and Bind folds a minus over a
// bound number the same way, so both print and fingerprint alike.
func Neg(x Expr) Expr {
	if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
		if lit.Val.K == value.KindInt {
			return &Literal{Val: value.NewInt(-lit.Val.I)}
		}
		return &Literal{Val: value.NewFloat(-lit.Val.F)}
	}
	return &UnaryExpr{Op: "-", X: x}
}

func (e *UnaryExpr) exprNode() {}
func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(" + e.Op + e.X.String() + ")"
}

// FuncCall is a function application. The aggregates COUNT/SUM/AVG/MIN/MAX
// are recognized by name; Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

func (e *FuncCall) exprNode() {}
func (e *FuncCall) String() string {
	if e.Star {
		return Ident(e.Name) + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return Ident(e.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// IsAggregate reports whether the function is one of the SQL aggregates.
func (e *FuncCall) IsAggregate() bool {
	switch e.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	Not     bool
	X       Expr
	Pattern Expr
}

func (e *LikeExpr) exprNode() {}
func (e *LikeExpr) String() string {
	n := ""
	if e.Not {
		n = " NOT"
	}
	return "(" + e.X.String() + n + " LIKE " + e.Pattern.String() + ")"
}

// BetweenExpr is X [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Not    bool
	X      Expr
	Lo, Hi Expr
}

func (e *BetweenExpr) exprNode() {}
func (e *BetweenExpr) String() string {
	n := ""
	if e.Not {
		n = " NOT"
	}
	return "(" + e.X.String() + n + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// InExpr is X [NOT] IN (list) or X [NOT] IN (subquery).
type InExpr struct {
	Not  bool
	X    Expr
	List []Expr
	Sub  *SelectStmt // nil if List form
}

func (e *InExpr) exprNode() {}
func (e *InExpr) String() string {
	n := ""
	if e.Not {
		n = " NOT"
	}
	if e.Sub != nil {
		return "(" + e.X.String() + n + " IN (" + e.Sub.String() + "))"
	}
	items := make([]string, len(e.List))
	for i, a := range e.List {
		items[i] = a.String()
	}
	return "(" + e.X.String() + n + " IN (" + strings.Join(items, ", ") + "))"
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not bool
	Sub *SelectStmt
}

func (e *ExistsExpr) exprNode() {}
func (e *ExistsExpr) String() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + n + "EXISTS (" + e.Sub.String() + "))"
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct{ Sub *SelectStmt }

func (e *SubqueryExpr) exprNode()      {}
func (e *SubqueryExpr) String() string { return "(" + e.Sub.String() + ")" }

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	Not bool
	X   Expr
}

func (e *IsNullExpr) exprNode() {}
func (e *IsNullExpr) String() string {
	n := ""
	if e.Not {
		n = " NOT"
	}
	return "(" + e.X.String() + " IS" + n + " NULL)"
}

// WhenClause is one WHEN cond THEN result arm of a CASE.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is a searched or simple CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // nil means ELSE NULL
}

func (e *CaseExpr) exprNode() {}
func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SelectItem is one entry of the select list. Star items expand to all
// columns of one table (qualified) or all tables (unqualified).
type SelectItem struct {
	Star      bool
	StarTable string // qualifier of qualified star; "" for bare *
	Expr      Expr
	Alias     string
}

// String renders the item.
func (it SelectItem) String() string {
	if it.Star {
		if it.StarTable != "" {
			return Ident(it.StarTable) + ".*"
		}
		return "*"
	}
	if it.Alias != "" {
		return it.Expr.String() + " AS " + Ident(it.Alias)
	}
	return it.Expr.String()
}

// TableRef is one FROM item: a base table or a derived table (subquery).
// Explicit INNER JOIN ... ON chains are folded by the parser into the
// table list plus WHERE conjuncts, which is semantics-preserving for inner
// joins.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt // non-nil for derived tables
}

// EffectiveName returns the name the table is referenced by.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Sub != nil {
		s := "(" + t.Sub.String() + ")"
		if t.Alias != "" {
			s += " AS " + Ident(t.Alias)
		}
		return s
	}
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return Ident(t.Name) + " " + Ident(t.Alias)
	}
	return Ident(t.Name)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 if absent
	Offset   int64 // 0 if absent
}

// String renders the statement as SQL.
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
		if s.Offset > 0 {
			fmt.Fprintf(&sb, " OFFSET %d", s.Offset)
		}
	}
	return sb.String()
}

// Walk calls fn for e and every sub-expression of e (pre-order). It does
// not descend into subquery statements; use WalkQuery for that.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *LikeExpr:
		Walk(x.X, fn)
		Walk(x.Pattern, fn)
	case *BetweenExpr:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *InExpr:
		Walk(x.X, fn)
		for _, a := range x.List {
			Walk(a, fn)
		}
	case *IsNullExpr:
		Walk(x.X, fn)
	case *SubqueryExpr, *ExistsExpr, *ColumnRef, *SourceCol, *Literal, *Interval, *Placeholder:
	case *CaseExpr:
		Walk(x.Operand, fn)
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Result, fn)
		}
		Walk(x.Else, fn)
	}
}

// Subqueries returns the immediate subquery statements inside an expression.
func Subqueries(e Expr) []*SelectStmt {
	var out []*SelectStmt
	Walk(e, func(x Expr) {
		switch s := x.(type) {
		case *SubqueryExpr:
			out = append(out, s.Sub)
		case *ExistsExpr:
			out = append(out, s.Sub)
		case *InExpr:
			if s.Sub != nil {
				out = append(out, s.Sub)
			}
		}
	})
	return out
}

// HasAggregate reports whether the expression contains an aggregate call
// (not counting aggregates inside subqueries, which aggregate separately).
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
		}
	})
	return found
}

// SplitConjuncts flattens a predicate into its top-level AND conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjoin rebuilds a predicate from conjuncts (nil for empty).
func Conjoin(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}
