package ast

import (
	"slices"
	"strings"
)

// This file implements the canonical query printer behind the broker's
// cross-query quote cache. Fingerprint renders a statement into a
// normal form such that two statements with equal fingerprints are
// semantically identical queries — same result multiset over every
// database instance — so a price computed for one can be served for the
// other. The normalizations are deliberately conservative: only
// transformations that provably preserve bag semantics (including SQL
// three-valued logic and IEEE float commutativity) are applied; anything
// order-sensitive (select-list order, FROM order under SELECT *, ORDER BY
// priority, CASE arm order) is kept verbatim. Distinct fingerprints for
// equivalent queries only cost a cache miss; equal fingerprints for
// inequivalent queries would serve a wrong price, so when in doubt the
// printer does not normalize.
//
// One walk serves every identity. It renders fragments — a piece of
// canonical text plus the constants printed in it — and its mode decides
// only how a constant prints: keep mode (Fingerprint) prints the value,
// lift mode (NewTemplate) prints '?' and records the constant as a site
// of its fragment. Sorted fragments carry their sites with them, so the
// sites of the finished text are in textual order by construction. The
// walk also collects the base tables the statement reads.

// LowerName lower-cases ASCII letters of an identifier without touching
// other bytes — the one identifier normalization the whole system shares
// (storage keys, source resolution, the canonical printer). It returns
// the input string unchanged (no allocation) when already lower-case.
func LowerName(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			var buf [64]byte
			return string(AppendLowerName(buf[:0], s))
		}
	}
	return s
}

// AppendLowerName appends LowerName(s) to dst, so a lookup can lower-case
// a name into a buffer of its own without allocating a string.
func AppendLowerName(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// Fingerprint renders the canonical form of a statement. Applied
// normalizations:
//
//   - identifier case (LowerName) and quoting (Ident on the lowered name);
//   - AND/OR chains flattened and their operands sorted (associative and
//     commutative as three-valued truth functions);
//   - the direct operands of the commutative operators =, <>, + and *
//     ordered canonically (+/* are swapped pairwise only — float addition
//     is commutative but not associative, so chains keep their shape);
//   - a > b and a >= b rewritten as b < a and b <= a;
//   - IN-list members sorted (an OR of equalities);
//   - GROUP BY keys sorted (grouping is by key set);
//   - select-item aliases dropped (output column names never affect the
//     result multiset the pricing hash compares).
func Fingerprint(s *SelectStmt) string {
	return (&canoner{}).stmt(s).text
}

// frag is one rendered piece of a statement: its canonical text and, in
// lift mode, the constants printed as '?' in it, in textual order.
type frag struct {
	text  string
	sites []Expr // *Literal / *Placeholder nodes
}

// canoner carries the mode and what the walk collects.
type canoner struct {
	lift   bool
	tables []string     // base tables met in FROM clauses, in walk order
	neg    *Placeholder // first -$n met
	// arena backs the one-site slices of lifted constants, so a constant
	// costs no allocation of its own.
	arena []Expr
}

// site lifts one constant.
func (c *canoner) site(e Expr) frag {
	c.arena = append(c.arena, e)
	n := len(c.arena)
	return frag{text: "?", sites: c.arena[n-1 : n : n]}
}

// relations returns the collected base tables sorted and deduplicated.
func (c *canoner) relations() []string {
	slices.Sort(c.tables)
	return slices.Compact(c.tables)
}

// merge concatenates the sites of parts in print order. A lone
// non-empty list is shared as is: site lists are never written after
// they are built.
func merge(parts ...frag) []Expr {
	var one []Expr
	n := 0
	for _, p := range parts {
		if len(p.sites) > 0 {
			n += len(p.sites)
			one = p.sites
		}
	}
	if n == len(one) {
		return one
	}
	out := make([]Expr, 0, n)
	for _, p := range parts {
		out = append(out, p.sites...)
	}
	return out
}

// join renders parts separated by sep.
func join(parts []frag, sep string) frag {
	if len(parts) == 0 {
		return frag{}
	}
	n := len(sep) * (len(parts) - 1)
	for _, p := range parts {
		n += len(p.text)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(p.text)
	}
	return frag{text: sb.String(), sites: merge(parts...)}
}

// sort orders fragments canonically: a stable sort by text. In lift mode
// a '?' sorts below every other byte: where a constant meets other text
// it sorts first, and two constants tie, so the value a constant holds
// never moves it. Equal texts keep render order, which is deterministic
// and — because sorting only ever happens under commutative operators —
// any tie order denotes the same query.
func (c *canoner) sort(parts []frag) {
	slices.SortStableFunc(parts, func(a, b frag) int { return c.compare(a.text, b.text) })
}

func (c *canoner) compare(a, b string) int {
	if !c.lift {
		return strings.Compare(a, b)
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if x, y := a[i], b[i]; x != y {
			switch {
			case x == '?':
				return -1
			case y == '?':
				return 1
			case x < y:
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func (c *canoner) stmt(s *SelectStmt) frag {
	var sb strings.Builder
	var sites []Expr
	write := func(f frag) {
		sb.WriteString(f.text)
		sites = append(sites, f.sites...)
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		write(c.item(it))
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			write(c.tableRef(t))
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		write(c.expr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		keys := c.exprs(s.GroupBy)
		c.sort(keys)
		sb.WriteString(" GROUP BY ")
		write(join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		write(c.expr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			write(c.expr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		writeInt(&sb, s.Limit)
		if s.Offset > 0 {
			sb.WriteString(" OFFSET ")
			writeInt(&sb, s.Offset)
		}
	}
	return frag{text: sb.String(), sites: sites}
}

func writeInt(sb *strings.Builder, n int64) {
	if n == 0 {
		sb.WriteByte('0')
		return
	}
	var d [20]byte
	i := len(d)
	for n > 0 {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
	}
	sb.Write(d[i:])
}

func (c *canoner) item(it SelectItem) frag {
	switch {
	case !it.Star:
		return c.expr(it.Expr)
	case it.StarTable != "":
		return frag{text: canonIdent(it.StarTable) + ".*"}
	}
	return frag{text: "*"}
}

func (c *canoner) tableRef(t TableRef) frag {
	if t.Sub != nil {
		sub := c.stmt(t.Sub)
		if t.Alias != "" {
			return frag{"(" + sub.text + ") AS " + canonIdent(t.Alias), sub.sites}
		}
		return frag{"(" + sub.text + ")", sub.sites}
	}
	name := LowerName(t.Name)
	c.tables = append(c.tables, name)
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return frag{text: Ident(name) + " " + canonIdent(t.Alias)}
	}
	return frag{text: Ident(name)}
}

func canonIdent(name string) string { return Ident(LowerName(name)) }

func (c *canoner) exprs(es []Expr) []frag {
	out := make([]frag, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

// expr renders one expression canonically.
func (c *canoner) expr(e Expr) frag {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			return frag{text: canonIdent(x.Table) + "." + canonIdent(x.Name)}
		}
		return frag{text: canonIdent(x.Name)}
	case *Literal:
		if c.lift {
			return c.site(x)
		}
		return frag{text: x.Val.SQL()}
	case *Placeholder:
		if c.lift {
			return c.site(x)
		}
		return frag{text: x.String()}
	case *Interval:
		return frag{text: x.String()}
	case *BinaryExpr:
		return c.binary(x)
	case *UnaryExpr:
		in := c.expr(x.X)
		if x.Op == "NOT" {
			return frag{"(NOT " + in.text + ")", in.sites}
		}
		if p, ok := x.X.(*Placeholder); ok && x.Op == "-" && c.neg == nil {
			c.neg = p
		}
		return frag{"(" + x.Op + in.text + ")", in.sites}
	case *FuncCall:
		if x.Star {
			return frag{text: x.Name + "(*)"}
		}
		args := join(c.exprs(x.Args), ", ")
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return frag{x.Name + "(" + d + args.text + ")", args.sites}
	case *LikeExpr:
		l, p := c.expr(x.X), c.expr(x.Pattern)
		return frag{"(" + l.text + not(x.Not) + " LIKE " + p.text + ")", merge(l, p)}
	case *BetweenExpr:
		v, lo, hi := c.expr(x.X), c.expr(x.Lo), c.expr(x.Hi)
		return frag{"(" + v.text + not(x.Not) + " BETWEEN " + lo.text + " AND " + hi.text + ")", merge(v, lo, hi)}
	case *InExpr:
		v := c.expr(x.X)
		var in frag
		if x.Sub != nil {
			in = c.stmt(x.Sub)
		} else {
			items := c.exprs(x.List)
			c.sort(items)
			in = join(items, ", ")
		}
		return frag{"(" + v.text + not(x.Not) + " IN (" + in.text + "))", merge(v, in)}
	case *ExistsExpr:
		sub := c.stmt(x.Sub)
		if x.Not {
			return frag{"(NOT EXISTS (" + sub.text + "))", sub.sites}
		}
		return frag{"(EXISTS (" + sub.text + "))", sub.sites}
	case *SubqueryExpr:
		sub := c.stmt(x.Sub)
		return frag{"(" + sub.text + ")", sub.sites}
	case *IsNullExpr:
		v := c.expr(x.X)
		return frag{"(" + v.text + " IS" + not(x.Not) + " NULL)", v.sites}
	case *CaseExpr:
		var parts []frag
		if x.Operand != nil {
			parts = append(parts, c.expr(x.Operand))
		}
		for _, w := range x.Whens {
			parts = append(parts, frag{text: "WHEN"}, c.expr(w.Cond), frag{text: "THEN"}, c.expr(w.Result))
		}
		if x.Else != nil {
			parts = append(parts, frag{text: "ELSE"}, c.expr(x.Else))
		}
		body := join(parts, " ")
		return frag{"CASE " + body.text + " END", body.sites}
	}
	return frag{text: e.String()}
}

func not(n bool) string {
	if n {
		return " NOT"
	}
	return ""
}

func (c *canoner) binary(x *BinaryExpr) frag {
	switch x.Op {
	case OpAnd, OpOr:
		parts := make([]frag, 0, 4)
		c.flatten(x, x.Op, &parts)
		c.sort(parts)
		in := join(parts, " "+x.Op.String()+" ")
		return frag{"(" + in.text + ")", in.sites}
	case OpGt:
		r, l := c.expr(x.R), c.expr(x.L)
		return frag{"(" + r.text + " < " + l.text + ")", merge(r, l)}
	case OpGe:
		r, l := c.expr(x.R), c.expr(x.L)
		return frag{"(" + r.text + " <= " + l.text + ")", merge(r, l)}
	}
	l, r := c.expr(x.L), c.expr(x.R)
	switch x.Op {
	case OpEq, OpNeq, OpAdd, OpMul:
		if c.compare(r.text, l.text) < 0 {
			l, r = r, l
		}
	}
	return frag{"(" + l.text + " " + x.Op.String() + " " + r.text + ")", merge(l, r)}
}

// flatten collects the canonical renderings of a same-operator
// AND/OR chain (associative, so the tree shape is normalized away).
func (c *canoner) flatten(e Expr, op BinOp, out *[]frag) {
	if b, ok := e.(*BinaryExpr); ok && b.Op == op {
		c.flatten(b.L, op, out)
		c.flatten(b.R, op, out)
		return
	}
	*out = append(*out, c.expr(e))
}
