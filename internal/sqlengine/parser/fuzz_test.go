package parser

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
	"qirana/internal/workload"
)

// FuzzParse drives the lexer and parser with arbitrary input, seeded from
// the paper's workload query corpus. Two properties are enforced: the
// parser never panics (the fuzzer catches that on its own), and printing is
// a fixpoint — any statement that parses must re-parse from its printed
// form to the same printed form, since the engine round-trips SQL through
// String() when compiling rewritten statements (unrolled queries).
func FuzzParse(f *testing.F) {
	for _, q := range workload.World() {
		f.Add(q.SQL)
	}
	for _, q := range workload.CarCrash() {
		f.Add(q.SQL)
	}
	f.Add(workload.SigmaU(13).SQL)
	f.Add(workload.PiU(7).SQL)
	f.Add(workload.JoinU(0.5).SQL)
	f.Add(workload.GammaU(10).SQL)
	// Syntax corners the corpus does not cover.
	f.Add("select * from t where a in (select b from s where s.x = t.y)")
	f.Add("select -x, not a and b or c from t order by 1 desc limit 3 offset 4")
	f.Add("select a from t where b is not null and c like '%\\_%' having sum(d) > 0")
	f.Add("select 'it''s', \"quoted col\", 1.5e-3, x'ff' from t")
	f.Add("select ((1)) from (select a from u) v where exists (select 1 from w)")
	// Placeholder corners: prepared-statement templates flow through the
	// same parser, and a printed placeholder must re-parse ($N is part of
	// the printing fixpoint).
	f.Add("select a from t where b > $1")
	f.Add("select a from t where b = $1 and c = $2 or d in ($1, $3, 5)")
	f.Add("select a from t where b between $1 and $2 and c like $3")
	f.Add("select $1, a from t group by a having count(*) > $2")
	f.Add("select a from t where b > $01 and c > $10")
	f.Add("select a from t where b > $")  // missing digits: reject, no panic
	f.Add("select a from t where b > $0") // $0: parameters start at $1

	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its printed form %q: %v", sql, printed, err)
		}
		if p2 := again.String(); p2 != printed {
			t.Fatalf("printing is not a fixpoint: %q -> %q -> %q", sql, printed, p2)
		}
	})
}

// FuzzPrepare is the prepared-template ground truth, checked at the
// syntax layer where no database is needed: for any statement that
// parses, binding parameter values into its placeholders (the prepared
// path) and parsing the textually substituted SQL (the ad-hoc path) must
// agree on the canonical fingerprint, the template fingerprint AND the
// parameter key — the three identities the broker's template-keyed quote
// cache relies on for bit-identical prepared prices. The bound
// statement's own identity (its template canon, constant vector and
// tables, what a bound query keys by) must equal the prepared template's
// Canon and ParamKey(args). A statement NewTemplate refuses
// (ErrNotTemplatable) is never prepared, but its bound and substituted
// forms must still share one fingerprint.
func FuzzPrepare(f *testing.F) {
	f.Add("select a from t where b > $1 and c = $2", int64(5), "x")
	f.Add("select a from t where b in ($1, $2, 9) or c like $2", int64(0), "pat%")
	f.Add("select a from t where b between $1 and $2", int64(3), "")
	f.Add("select a, count(*) from t where b = $1 group by a having min(c) > $2", int64(7), "g")
	f.Add("select a from t where b > 5", int64(1), "no placeholders at all")

	f.Fuzz(func(t *testing.T, sql string, n int64, s string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		tmpl, err := ast.NewTemplate(stmt)
		templated := err == nil
		if !templated && !errors.Is(err, ast.ErrNotTemplatable) {
			return // non-contiguous parameters: Prepare rejects them
		}
		// Bind non-negative ints and tame strings: a negative literal
		// parses as unary minus (a different AST than Bind produces) and
		// exotic strings may not survive SQL quoting — both are documented
		// no-sharing cases, not bugs.
		if n < 0 {
			n = -(n + 1)
		}
		s = sanitize(s)
		args := make([]value.Value, ast.MaxPlaceholder(stmt))
		for i := range args {
			if i%2 == 0 {
				args[i] = value.NewInt(n)
			} else {
				args[i] = value.NewString(s)
			}
		}
		bound, err := ast.Bind(stmt, args)
		if err != nil {
			t.Fatalf("Bind with exact arity failed: %v", err)
		}
		substituted, err := Parse(bound.String())
		if err != nil {
			t.Fatalf("substituted SQL %q does not parse: %v", bound.String(), err)
		}
		if got, want := ast.Fingerprint(substituted), ast.Fingerprint(bound); got != want {
			t.Fatalf("fingerprint mismatch:\nbound:       %q\nsubstituted: %q", want, got)
		}
		if !templated {
			return // a negated parameter: Prepare rejects it
		}
		reTmpl, err := ast.NewTemplate(substituted)
		if err != nil {
			t.Fatalf("substituted SQL lost templatability: %v", err)
		}
		if reTmpl.Canon != tmpl.Canon {
			t.Fatalf("template canon mismatch:\nprepared: %q\nad-hoc:   %q", tmpl.Canon, reTmpl.Canon)
		}
		kp, err := tmpl.ParamKey(args)
		if err != nil {
			t.Fatalf("prepared ParamKey: %v", err)
		}
		ka, err := reTmpl.ParamKey(nil)
		if err != nil {
			t.Fatalf("ad-hoc ParamKey: %v", err)
		}
		if kp != ka {
			t.Fatalf("param key mismatch: prepared %q vs ad-hoc %q", kp, ka)
		}
		bt, err := ast.NewTemplate(bound)
		if err != nil {
			t.Fatalf("bound statement does not template: %v", err)
		}
		kb, err := bt.ParamKey(nil)
		if err != nil {
			t.Fatalf("bound ParamKey: %v", err)
		}
		if bt.Canon+"\x02"+kb != tmpl.Canon+"\x02"+kp || !slices.Equal(bt.Tables, tmpl.Tables) {
			t.Fatalf("bound identity %q %v != prepared %q %v", bt.Canon+"\x02"+kb, bt.Tables, tmpl.Canon+"\x02"+kp, tmpl.Tables)
		}
	})
}

// sanitize maps a fuzzed string onto the printable single-quote-free
// subset that survives SQL string quoting untouched.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= ' ' && r < 0x7f && r != '\'' && r != '\\' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
