package ast_test

import (
	"testing"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/parser"
)

func fp(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return ast.Fingerprint(stmt)
}

// normalizeGroups are statements that must share one fingerprint per
// group; the identity corpus (identity_test.go) pins every one of them.
var normalizeGroups = [][]string{
	{ // identifier case and quoting
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"select name from country where continent = 'Asia'",
		`SELECT "Name" FROM "Country" WHERE "Continent" = 'Asia'`,
	},
	{ // commutative predicate order
		"SELECT Name FROM Country WHERE Continent = 'Asia' AND Population > 100",
		"SELECT Name FROM Country WHERE Population > 100 AND Continent = 'Asia'",
		"SELECT Name FROM Country WHERE 100 < Population AND 'Asia' = Continent",
	},
	{ // flattened AND tree shapes
		"SELECT Name FROM Country WHERE (a = 1 AND b = 2) AND c = 3",
		"SELECT Name FROM Country WHERE a = 1 AND (b = 2 AND c = 3)",
		"SELECT Name FROM Country WHERE c = 3 AND a = 1 AND b = 2",
	},
	{ // IN-list order
		"SELECT Name FROM Country WHERE Code IN ('A', 'B', 'C')",
		"SELECT Name FROM Country WHERE Code IN ('C', 'A', 'B')",
	},
	{ // commutative arithmetic operands, GROUP BY order
		"SELECT a + b, COUNT(*) FROM t GROUP BY a + b, c",
		"SELECT b + a, count(*) FROM T GROUP BY c, b + a",
	},
	{ // >= flips to <=
		"SELECT Name FROM Country WHERE Population >= 10",
		"SELECT Name FROM Country WHERE 10 <= Population",
	},
	{ // select-item aliases never change the result multiset
		"SELECT Name AS n FROM Country",
		"SELECT Name FROM Country",
	},
}

func TestFingerprintNormalizes(t *testing.T) {
	for _, group := range normalizeGroups {
		want := fp(t, group[0])
		for _, sql := range group[1:] {
			if got := fp(t, sql); got != want {
				t.Errorf("fingerprints differ:\n  %q -> %q\n  %q -> %q", group[0], want, sql, got)
			}
		}
	}
}

// distinctPairs are inequivalent statements that must never share a
// fingerprint.
var distinctPairs = [][2]string{
	// string literal case is data, not an identifier
	{"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT Name FROM Country WHERE Continent = 'asia'"},
	// + chains are not reassociated (float addition is not associative)
	{"SELECT (a + b) + c FROM t", "SELECT a + (b + c) FROM t"},
	// non-commutative operators keep operand order
	{"SELECT a - b FROM t", "SELECT b - a FROM t"},
	// select-list order is output order
	{"SELECT a, b FROM t", "SELECT b, a FROM t"},
	// ORDER BY priority and direction
	{"SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"},
	// LIMIT differs
	{"SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 4"},
	// DISTINCT changes the multiset
	{"SELECT a FROM t", "SELECT DISTINCT a FROM t"},
}

func TestFingerprintDistinguishes(t *testing.T) {
	for _, pair := range distinctPairs {
		if fp(t, pair[0]) == fp(t, pair[1]) {
			t.Errorf("inequivalent queries share a fingerprint:\n  %q\n  %q", pair[0], pair[1])
		}
	}
}

// A call without arguments renders in both modes.
func TestCanonEmptyCall(t *testing.T) {
	stmt, err := parser.Parse("SELECT now() FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ast.Fingerprint(stmt), "SELECT NOW() FROM t WHERE (1 = a)"; got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
	tm, err := ast.NewTemplate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT NOW() FROM t WHERE (? = a)"; tm.Canon != want {
		t.Errorf("Canon = %q, want %q", tm.Canon, want)
	}
}

func TestLowerName(t *testing.T) {
	cases := map[string]string{"Country": "country", "ABC_9": "abc_9", "already": "already", "": ""}
	for in, want := range cases {
		if got := ast.LowerName(in); got != want {
			t.Errorf("LowerName(%q) = %q, want %q", in, got, want)
		}
	}
	// No-allocation fast path must return the identical string.
	s := "lower_case"
	if got := ast.LowerName(s); got != s {
		t.Errorf("LowerName did not return the input unchanged")
	}
}

const referencedTablesSQL = "SELECT c.Name FROM Country c, (SELECT * FROM City) x " +
	"WHERE c.Code IN (SELECT CountryCode FROM CountryLanguage) AND EXISTS (SELECT 1 FROM Country)"

func TestReferencedTables(t *testing.T) {
	stmt, err := parser.Parse(referencedTablesSQL)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := ast.NewTemplate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	got := tm.Tables
	want := []string{"city", "country", "countrylanguage"}
	if len(got) != len(want) {
		t.Fatalf("Tables = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables = %v, want %v", got, want)
		}
	}
}
