package ast

import (
	"strings"
	"testing"

	"qirana/internal/value"
)

// parse-free helpers beyond ast_test.go's col/lit: these tests build ASTs
// by hand so the package has no dependency on the parser.

func cmp(op BinOp, l, r Expr) *BinaryExpr { return &BinaryExpr{Op: op, L: l, R: r} }

func sel(where Expr) *SelectStmt {
	return &SelectStmt{
		Items: []SelectItem{{Expr: col("name")}},
		From:  []TableRef{{Name: "t"}},
		Where: where,
		Limit: -1,
	}
}

func mustTemplate(t *testing.T, s *SelectStmt) *Template {
	t.Helper()
	tm, err := NewTemplate(s)
	if err != nil {
		t.Fatalf("NewTemplate: %v", err)
	}
	return tm
}

func mustKey(t *testing.T, tm *Template, args []value.Value) string {
	t.Helper()
	k, err := tm.ParamKey(args)
	if err != nil {
		t.Fatalf("ParamKey: %v", err)
	}
	return k
}

// Different constants, one template: the core property behind template
// sharing.
func TestTemplateSharedAcrossConstants(t *testing.T) {
	a := mustTemplate(t, sel(cmp(OpGt, col("price"), lit(5))))
	b := mustTemplate(t, sel(cmp(OpGt, col("price"), lit(9))))
	if a.Canon != b.Canon {
		t.Fatalf("templates differ:\n%q\n%q", a.Canon, b.Canon)
	}
	if !strings.Contains(a.Canon, "?") {
		t.Fatalf("no site marker in template %q", a.Canon)
	}
	if ka, kb := mustKey(t, a, nil), mustKey(t, b, nil); ka == kb {
		t.Fatalf("distinct constants got one param key %q", ka)
	}
}

// A placeholder template and its constant instance share Canon, and the
// placeholder's ParamKey(args) equals the instance's ParamKey(nil) — the
// equality that makes prepared and ad-hoc quotes share cache entries.
func TestTemplatePlaceholderMatchesConstantInstance(t *testing.T) {
	ph := mustTemplate(t, sel(cmp(OpGt, col("price"), &Placeholder{Idx: 1})))
	if ph.NumParams != 1 {
		t.Fatalf("NumParams = %d, want 1", ph.NumParams)
	}
	inst := mustTemplate(t, sel(cmp(OpGt, col("price"), lit(5))))
	if ph.Canon != inst.Canon {
		t.Fatalf("canon mismatch:\n%q\n%q", ph.Canon, inst.Canon)
	}
	kp := mustKey(t, ph, []value.Value{value.NewInt(5)})
	ki := mustKey(t, inst, nil)
	if kp != ki {
		t.Fatalf("param keys differ: %q vs %q", kp, ki)
	}
}

// The canonical AND sort must not scramble which value lands at which
// site: a = 5 AND b = 3 written in either conjunct order produces one
// (Canon, ParamKey) pair.
func TestTemplateSiteOrderSurvivesCanonicalSorts(t *testing.T) {
	ab := sel(cmp(OpAnd,
		cmp(OpEq, col("a"), lit(5)),
		cmp(OpEq, col("b"), lit(3))))
	ba := sel(cmp(OpAnd,
		cmp(OpEq, col("b"), lit(3)),
		cmp(OpEq, col("a"), lit(5))))
	ta, tb := mustTemplate(t, ab), mustTemplate(t, ba)
	if ta.Canon != tb.Canon {
		t.Fatalf("canon differs under conjunct order:\n%q\n%q", ta.Canon, tb.Canon)
	}
	if ka, kb := mustKey(t, ta, nil), mustKey(t, tb, nil); ka != kb {
		t.Fatalf("param key differs under conjunct order: %q vs %q", ka, kb)
	}
	// Swapping the VALUES must move the key: a = 3 AND b = 5 is a
	// different query than a = 5 AND b = 3.
	swapped := mustTemplate(t, sel(cmp(OpAnd,
		cmp(OpEq, col("a"), lit(3)),
		cmp(OpEq, col("b"), lit(5)))))
	if swapped.Canon != ta.Canon {
		t.Fatalf("swapped-values canon differs: %q vs %q", swapped.Canon, ta.Canon)
	}
	if mustKey(t, swapped, nil) == mustKey(t, ta, nil) {
		t.Fatal("swapped values produced an identical param key — would serve the wrong price")
	}
}

// IN-list members sort canonically; the sites must follow the sort.
func TestTemplateInListSites(t *testing.T) {
	in := func(vals ...int64) *SelectStmt {
		list := make([]Expr, len(vals))
		for i, v := range vals {
			list[i] = lit(v)
		}
		return sel(&InExpr{X: col("a"), List: list})
	}
	t1 := mustTemplate(t, in(7, 2))
	t2 := mustTemplate(t, in(2, 7))
	if t1.Canon != t2.Canon {
		t.Fatalf("IN canon differs:\n%q\n%q", t1.Canon, t2.Canon)
	}
	// Same multiset of members → equivalent queries; identical keys are
	// desirable here (IN is an OR of equalities) but keys are allowed to
	// differ (a miss, never a wrong price). Only assert no cross-collision
	// with a different member set.
	t3 := mustTemplate(t, in(7, 3))
	if t3.Canon == t1.Canon && mustKey(t, t3, nil) == mustKey(t, t1, nil) {
		t.Fatal("IN (7,3) and IN (7,2) share a cache identity")
	}
}

// Parameter numbering must be contiguous from $1.
func TestTemplateNonContiguousParams(t *testing.T) {
	_, err := NewTemplate(sel(cmp(OpGt, col("price"), &Placeholder{Idx: 2})))
	if err == nil || !strings.Contains(err.Error(), "$1") {
		t.Fatalf("want missing-$1 error, got %v", err)
	}
}

// A huge placeholder number is rejected by the first missing number, in
// space proportional to the sites, not to the number.
func TestTemplateHugeParamIndex(t *testing.T) {
	_, err := NewTemplate(sel(cmp(OpGt, col("price"), &Placeholder{Idx: 1 << 40})))
	if err == nil || !strings.Contains(err.Error(), "$1 is missing") {
		t.Fatalf("want missing-$1 error, got %v", err)
	}
}

// ParamKey arity errors.
func TestTemplateParamKeyArity(t *testing.T) {
	tm := mustTemplate(t, sel(cmp(OpGt, col("price"), &Placeholder{Idx: 1})))
	if _, err := tm.ParamKey(nil); err == nil {
		t.Fatal("want arity error for 0 args")
	}
	if _, err := tm.ParamKey([]value.Value{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Fatal("want arity error for 2 args")
	}
}

// Int 5 and Float 5.0 are distinct SQL values and must not share a key.
// value.SQL keeps them apart too ("5" and "5.0"), but the key encoding
// does not lean on it: every kind is tagged.
func TestTemplateParamKeyKindExact(t *testing.T) {
	tm := mustTemplate(t, sel(cmp(OpGt, col("price"), &Placeholder{Idx: 1})))
	ki := mustKey(t, tm, []value.Value{value.NewInt(5)})
	kf := mustKey(t, tm, []value.Value{value.NewFloat(5)})
	if ki == kf {
		t.Fatal("Int 5 and Float 5.0 share a param key")
	}
	// Strings embedding the scalar encodings must not collide either.
	ks := mustKey(t, tm, []value.Value{value.NewString("i5;")})
	if ks == ki {
		t.Fatal("string \"i5;\" collides with Int 5")
	}
}

// One parameter may feed many sites.
func TestTemplateRepeatedParam(t *testing.T) {
	tm := mustTemplate(t, sel(cmp(OpOr,
		cmp(OpEq, col("a"), &Placeholder{Idx: 1}),
		cmp(OpEq, col("b"), &Placeholder{Idx: 1}))))
	if tm.NumParams != 1 {
		t.Fatalf("NumParams = %d, want 1", tm.NumParams)
	}
	if len(tm.Sites) != 2 {
		t.Fatalf("len(Sites) = %d, want 2", len(tm.Sites))
	}
	k1 := mustKey(t, tm, []value.Value{value.NewInt(1)})
	k2 := mustKey(t, tm, []value.Value{value.NewInt(2)})
	if k1 == k2 {
		t.Fatal("distinct bindings share a key")
	}
}

// A quoted identifier may hold any byte, \x00 and \x01 included: it
// templates like any other, keeps its bytes in Canon, and two statements
// that differ only in those bytes get different templates.
func TestTemplateControlBytesInIdentifier(t *testing.T) {
	a := mustTemplate(t, sel(cmp(OpGt, col("a\x000\x01b"), lit(5))))
	b := mustTemplate(t, sel(cmp(OpGt, col("a\x001\x01b"), lit(5))))
	if !strings.Contains(a.Canon, "a\x000\x01b") || len(a.Sites) != 1 {
		t.Fatalf("identifier bytes lost or site miscounted: %q, %d sites", a.Canon, len(a.Sites))
	}
	if a.Canon == b.Canon {
		t.Fatalf("identifiers differing in control bytes share a template %q", a.Canon)
	}
}

// Bind substitutes placeholders into a structurally independent clone.
func TestBind(t *testing.T) {
	tpl := sel(cmp(OpGt, col("price"), &Placeholder{Idx: 1}))
	bound, err := Bind(tpl, []value.Value{value.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(bound), Fingerprint(sel(cmp(OpGt, col("price"), lit(42)))); got != want {
		t.Fatalf("bound fingerprint %q, want %q", got, want)
	}
	// The template itself is untouched.
	if MaxPlaceholder(tpl) != 1 {
		t.Fatal("Bind mutated the template")
	}
	if _, err := Bind(tpl, nil); err == nil {
		t.Fatal("want out-of-range error binding 0 args")
	}
}

// Bind's clone shares no nodes with the template: mutating every node
// of a bound statement never reaches the template it came from.
func TestCloneStmtIndependent(t *testing.T) {
	tpl := sel(&BinaryExpr{Op: OpAnd,
		L: cmp(OpGt, col("price"), lit(1)),
		R: &ExistsExpr{Sub: sel(cmp(OpLt, col("qty"), &Placeholder{Idx: 1}))}})
	before := tpl.String()
	bound, err := Bind(tpl, []value.Value{value.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	and := bound.Where.(*BinaryExpr)
	and.L.(*BinaryExpr).R.(*Literal).Val = value.NewInt(99)
	and.L.(*BinaryExpr).L.(*ColumnRef).Name = "cost"
	inner := and.R.(*ExistsExpr).Sub
	inner.Where.(*BinaryExpr).R.(*Literal).Val = value.NewInt(-1)
	inner.From[0].Name = "u"
	bound.Items[0].Expr.(*ColumnRef).Name = "id"
	bound.From[0].Name = "v"
	if got := tpl.String(); got != before {
		t.Fatalf("mutating the bound statement reached the template:\n%q\nwas\n%q", got, before)
	}
	if MaxPlaceholder(tpl) != 1 {
		t.Fatal("template lost its placeholder")
	}
}

// WalkStmt reaches expressions inside derived tables and subqueries.
func TestWalkStmtDepth(t *testing.T) {
	inner := sel(cmp(OpEq, col("x"), &Placeholder{Idx: 3}))
	outer := &SelectStmt{
		Items: []SelectItem{{Expr: col("name")}},
		From:  []TableRef{{Sub: inner, Alias: "v"}},
		Where: &ExistsExpr{Sub: sel(cmp(OpEq, col("y"), &Placeholder{Idx: 2}))},
		Limit: -1,
	}
	if got := MaxPlaceholder(outer); got != 3 {
		t.Fatalf("MaxPlaceholder = %d, want 3", got)
	}
}
