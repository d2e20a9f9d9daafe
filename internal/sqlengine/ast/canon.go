package ast

import (
	"sort"
	"strconv"
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
// The same printer also runs in "strip" mode for template fingerprints
// (see template.go): constants (Literal and Placeholder nodes) render as
// numbered markers that survive the canonical sorts, so a post-pass can
// recover the constant positions of the sorted output in textual order.

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
	var sb strings.Builder
	(&canoner{}).stmt(&sb, s)
	return sb.String()
}

// canoner carries the printing mode through the recursive canonical
// renderer. In strip mode every constant renders as
// markerStart+<visit-index>+markerEnd and the node is recorded in sites;
// the marker bytes cannot be produced by any non-constant token except a
// pathological quoted identifier, which the template post-pass detects.
type canoner struct {
	strip bool
	sites []Expr // *Literal / *Placeholder nodes in visit order
}

const (
	markerStart = '\x00'
	markerEnd   = '\x01'
)

// markerTable pre-builds the markers for the first sites; templates
// beyond it fall back to allocating (a query with 64+ constants is
// already far off the hot path).
var markerTable = func() (t [64]string) {
	for i := range t {
		t[i] = string(markerStart) + strconv.Itoa(i) + string(markerEnd)
	}
	return t
}()

func (c *canoner) marker(e Expr) string {
	idx := len(c.sites)
	c.sites = append(c.sites, e)
	if idx < len(markerTable) {
		return markerTable[idx]
	}
	return string(markerStart) + strconv.Itoa(idx) + string(markerEnd)
}

// maskedCompare compares two rendered fragments with strip-marker
// indices masked out: every `\x00<digits>\x01` run compares as if it
// were `\x00\x01`, so the visit index of a constant never influences
// the canonical operand order — `a = 5 AND b = 3` and `b = 3 AND a = 5`
// must sort to one template. Allocation-free; non-marker bytes compare
// verbatim.
func maskedCompare(a, b string) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
		j++
		if ca == markerStart {
			i = skipDigits(a, i)
			j = skipDigits(b, j)
		}
	}
	switch {
	case i < len(a):
		return 1
	case j < len(b):
		return -1
	}
	return 0
}

func skipDigits(s string, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// sortStrings orders rendered fragments canonically. In strip mode the
// order masks marker indices (see maskedCompare) with stable ties:
// identically-rendered operands keep render order, which is
// deterministic and — because sorting only ever happens under
// commutative operators — any tie order denotes the same query.
func (c *canoner) sortStrings(parts []string) {
	if !c.strip {
		sort.Strings(parts)
		return
	}
	sort.SliceStable(parts, func(i, j int) bool { return maskedCompare(parts[i], parts[j]) < 0 })
}

func (c *canoner) stmt(sb *strings.Builder, s *SelectStmt) {
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		c.item(sb, it)
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			c.tableRef(sb, t)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(c.expr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = c.expr(g)
		}
		c.sortStrings(keys)
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(c.expr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.expr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		writeInt(sb, s.Limit)
		if s.Offset > 0 {
			sb.WriteString(" OFFSET ")
			writeInt(sb, s.Offset)
		}
	}
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

func (c *canoner) item(sb *strings.Builder, it SelectItem) {
	if it.Star {
		if it.StarTable != "" {
			sb.WriteString(canonIdent(it.StarTable))
			sb.WriteString(".*")
			return
		}
		sb.WriteByte('*')
		return
	}
	sb.WriteString(c.expr(it.Expr))
}

func (c *canoner) tableRef(sb *strings.Builder, t TableRef) {
	if t.Sub != nil {
		sb.WriteByte('(')
		c.stmt(sb, t.Sub)
		sb.WriteByte(')')
		if t.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(canonIdent(t.Alias))
		}
		return
	}
	sb.WriteString(canonIdent(t.Name))
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		sb.WriteByte(' ')
		sb.WriteString(canonIdent(t.Alias))
	}
}

func canonIdent(name string) string { return Ident(LowerName(name)) }

// expr renders one expression canonically.
func (c *canoner) expr(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			return canonIdent(x.Table) + "." + canonIdent(x.Name)
		}
		return canonIdent(x.Name)
	case *Literal:
		if c.strip {
			return c.marker(x)
		}
		return x.Val.SQL()
	case *Placeholder:
		if c.strip {
			return c.marker(x)
		}
		return x.String()
	case *Interval:
		return x.String()
	case *BinaryExpr:
		return c.binary(x)
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "(NOT " + c.expr(x.X) + ")"
		}
		return "(" + x.Op + c.expr(x.X) + ")"
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.expr(a)
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return x.Name + "(" + d + strings.Join(args, ", ") + ")"
	case *LikeExpr:
		return "(" + c.expr(x.X) + not(x.Not) + " LIKE " + c.expr(x.Pattern) + ")"
	case *BetweenExpr:
		return "(" + c.expr(x.X) + not(x.Not) + " BETWEEN " + c.expr(x.Lo) + " AND " + c.expr(x.Hi) + ")"
	case *InExpr:
		if x.Sub != nil {
			var sb strings.Builder
			sb.WriteByte('(')
			sb.WriteString(c.expr(x.X))
			sb.WriteString(not(x.Not))
			sb.WriteString(" IN (")
			c.stmt(&sb, x.Sub)
			sb.WriteString("))")
			return sb.String()
		}
		items := make([]string, len(x.List))
		for i, a := range x.List {
			items[i] = c.expr(a)
		}
		c.sortStrings(items)
		return "(" + c.expr(x.X) + not(x.Not) + " IN (" + strings.Join(items, ", ") + "))"
	case *ExistsExpr:
		var sb strings.Builder
		sb.WriteByte('(')
		if x.Not {
			sb.WriteString("NOT ")
		}
		sb.WriteString("EXISTS (")
		c.stmt(&sb, x.Sub)
		sb.WriteString("))")
		return sb.String()
	case *SubqueryExpr:
		var sb strings.Builder
		sb.WriteByte('(')
		c.stmt(&sb, x.Sub)
		sb.WriteByte(')')
		return sb.String()
	case *IsNullExpr:
		return "(" + c.expr(x.X) + " IS" + not(x.Not) + " NULL)"
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteByte(' ')
			sb.WriteString(c.expr(x.Operand))
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + c.expr(w.Cond) + " THEN " + c.expr(w.Result))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + c.expr(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	}
	return e.String()
}

func not(n bool) string {
	if n {
		return " NOT"
	}
	return ""
}

func (c *canoner) binary(x *BinaryExpr) string {
	switch x.Op {
	case OpAnd, OpOr:
		var parts []string
		c.flatten(x, x.Op, &parts)
		c.sortStrings(parts)
		return "(" + strings.Join(parts, " "+x.Op.String()+" ") + ")"
	case OpEq, OpNeq, OpAdd, OpMul:
		l, r := c.expr(x.L), c.expr(x.R)
		if c.strip {
			if maskedCompare(r, l) < 0 {
				l, r = r, l
			}
		} else if r < l {
			l, r = r, l
		}
		return "(" + l + " " + x.Op.String() + " " + r + ")"
	case OpGt:
		return "(" + c.expr(x.R) + " < " + c.expr(x.L) + ")"
	case OpGe:
		return "(" + c.expr(x.R) + " <= " + c.expr(x.L) + ")"
	}
	return "(" + c.expr(x.L) + " " + x.Op.String() + " " + c.expr(x.R) + ")"
}

// flatten collects the canonical renderings of a same-operator
// AND/OR chain (associative, so the tree shape is normalized away).
func (c *canoner) flatten(e Expr, op BinOp, out *[]string) {
	if b, ok := e.(*BinaryExpr); ok && b.Op == op {
		c.flatten(b.L, op, out)
		c.flatten(b.R, op, out)
		return
	}
	*out = append(*out, c.expr(e))
}

// ReferencedTables returns the lower-cased names of every base table the
// statement references, in any FROM clause at any nesting depth, sorted
// and deduplicated. Derived-table aliases are not included. The quote
// cache keys on the version counters of exactly these relations.
func ReferencedTables(s *SelectStmt) []string {
	seen := make(map[string]bool)
	collectTables(s, seen)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func collectTables(s *SelectStmt, seen map[string]bool) {
	for _, t := range s.From {
		if t.Sub != nil {
			collectTables(t.Sub, seen)
			continue
		}
		seen[LowerName(t.Name)] = true
	}
	var exprs []Expr
	for _, it := range s.Items {
		if !it.Star {
			exprs = append(exprs, it.Expr)
		}
	}
	exprs = append(exprs, s.Where, s.Having)
	exprs = append(exprs, s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, sub := range Subqueries(e) {
			collectTables(sub, seen)
		}
	}
}
