package ast_test

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/parser"
	"qirana/internal/value"
	"qirana/internal/workload"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/identity.txt from the current printer")

const identityFile = "testdata/identity.txt"

// identityCase is one statement of the identity corpus.
type identityCase struct {
	name string
	stmt *ast.SelectStmt
}

// identityCorpus gathers every statement the canonical printer is pinned
// on: the workload queries, the pricing golden corpus, the canon and
// template test cases, ordering corners where a constant meets a byte
// that sorts below '?', and the FuzzPrepare seeds with their bound and
// re-parsed forms.
func identityCorpus(t *testing.T) []identityCase {
	t.Helper()
	var out []identityCase
	add := func(name, sql string) {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", name, sql, err)
		}
		out = append(out, identityCase{name, stmt})
	}
	addAll := func(prefix string, qs []workload.Query) {
		for _, q := range qs {
			add(prefix+"/"+q.Name, q.SQL)
		}
	}
	addAll("world", workload.World())
	addAll("carcrash", workload.CarCrash())
	addAll("ssb", workload.SSB())
	addAll("tpch", workload.TPCH())
	addAll("dblp", workload.DBLP(datagen.DBLP(1, 0.002)))
	addAll("param", []workload.Query{workload.SigmaU(13), workload.PiU(7), workload.JoinU(0.5), workload.GammaU(10)})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		q := workload.SSBQ11Variant(rng)
		add(fmt.Sprintf("ssbq11/%d", i), q.SQL)
	}

	f, err := os.Open("../../pricing/testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, sqls, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), ": ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		for i, sql := range strings.Split(sqls, " ; ") {
			add(fmt.Sprintf("golden/%s/%d", name, i), sql)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for i, group := range normalizeGroups {
		for j, sql := range group {
			add(fmt.Sprintf("canon/same%d/%d", i, j), sql)
		}
	}
	for i, pair := range distinctPairs {
		add(fmt.Sprintf("canon/distinct%d/0", i), pair[0])
		add(fmt.Sprintf("canon/distinct%d/1", i), pair[1])
	}
	add("canon/tables", referencedTablesSQL)

	// template_test.go's hand-built statements, written out as SQL.
	for i, sql := range []string{
		"SELECT name FROM t WHERE price > 5",
		"SELECT name FROM t WHERE price > 9",
		"SELECT name FROM t WHERE price > $1",
		"SELECT name FROM t WHERE a = 5 AND b = 3",
		"SELECT name FROM t WHERE b = 3 AND a = 5",
		"SELECT name FROM t WHERE a = 3 AND b = 5",
		"SELECT name FROM t WHERE a IN (7, 2)",
		"SELECT name FROM t WHERE a IN (2, 7)",
		"SELECT name FROM t WHERE a IN (7, 3)",
		"SELECT name FROM t WHERE price > $2",
		"SELECT name FROM t WHERE a = $1 OR b = $1",
		"SELECT name FROM t WHERE price > 1 AND EXISTS (SELECT name FROM t WHERE qty < $1)",
		"SELECT name FROM (SELECT name FROM t WHERE x = $3) v WHERE EXISTS (SELECT name FROM t WHERE y = $2)",
	} {
		add(fmt.Sprintf("template/%d", i), sql)
	}

	// Sort corners: a constant against '(' , '"', ' ' or a digit, where
	// the site must keep sorting first; every value kind; a negated
	// parameter.
	for i, sql := range []string{
		"SELECT Name FROM Country WHERE Population > (SELECT avg(Population) FROM Country) AND Continent = 'Asia'",
		"SELECT a FROM t WHERE a + b = 5",
		`SELECT a FROM t WHERE "a b" = 5 OR "a b" = x`,
		"SELECT a FROM t WHERE b IN (1, c + 1, 'x', (d))",
		"SELECT a FROM t WHERE (a = 1 OR a = 2) AND (b = 3 OR b = 4) AND c = 5",
		"SELECT a + 1, count(*) FROM t GROUP BY a + 1, a, 2",
		"SELECT a FROM t WHERE x = 5 AND x = y + 1 AND x = (y * 2)",
		"SELECT a FROM t WHERE b = 5.0 AND c = 5 AND d = 'it''s' AND e = NULL AND f = TRUE AND g = date '2011-01-01'",
		"SELECT a FROM t WHERE d < date '2011-01-01' + interval '6' month AND -a = -5",
		"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t WHERE b LIKE 'A%' AND c NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE x > -$1",
		"SELECT a FROM t WHERE b IS NOT NULL AND a NOT IN (SELECT b FROM u WHERE u.c = 3) ORDER BY a DESC LIMIT 3 OFFSET 4",
	} {
		add(fmt.Sprintf("corner/%d", i), sql)
	}

	// FuzzPrepare's seeds, their bound statements (the prepared path) and
	// the re-parsed substitutions (the ad-hoc path), with the arguments
	// FuzzPrepare binds.
	for i, seed := range []struct {
		sql string
		n   int64
		s   string
	}{
		{"select a from t where b > $1 and c = $2", 5, "x"},
		{"select a from t where b in ($1, $2, 9) or c like $2", 0, "pat%"},
		{"select a from t where b between $1 and $2", 3, ""},
		{"select a, count(*) from t where b = $1 group by a having min(c) > $2", 7, "g"},
		{"select a from t where b > 5", 1, "no placeholders at all"},
	} {
		name := fmt.Sprintf("prepare/%d", i)
		add(name, seed.sql)
		tpl := out[len(out)-1].stmt
		args := make([]value.Value, ast.MaxPlaceholder(tpl))
		for j := range args {
			if j%2 == 0 {
				args[j] = value.NewInt(seed.n)
			} else {
				args[j] = value.NewString(seed.s)
			}
		}
		bound, err := ast.Bind(tpl, args)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, identityCase{name + "/bound", bound})
		add(name+"/substituted", bound.String())
	}
	return out
}

// identityLine renders one statement's identity: the fingerprint, the
// template canon, the site key and the referenced tables. A template
// with parameters renders its sites through ParamKey over string
// arguments "$1", "$2", …, so the line pins which parameter feeds each
// site.
func identityLine(c identityCase) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s fp=%q", c.name, ast.Fingerprint(c.stmt))
	tm, err := ast.NewTemplate(c.stmt)
	if err != nil {
		fmt.Fprintf(&sb, " template-error=%q", err.Error())
	} else {
		args := make([]value.Value, tm.NumParams)
		for i := range args {
			args[i] = value.NewString(fmt.Sprintf("$%d", i+1))
		}
		key, err := tm.ParamKey(args)
		if err != nil {
			key = "error: " + err.Error()
		}
		fmt.Fprintf(&sb, " canon=%q params=%d key=%q", tm.Canon, tm.NumParams, key)
	}
	fmt.Fprintf(&sb, " tables=%s", strings.Join(referencedTables(c.stmt), ","))
	return sb.String()
}

// referencedTables returns the template's Tables. A statement that does
// not template is bound first: binding changes no relation.
func referencedTables(s *ast.SelectStmt) []string {
	args := make([]value.Value, ast.MaxPlaceholder(s))
	for i := range args {
		args[i] = value.NewInt(int64(i))
	}
	bound, err := ast.Bind(s, args)
	if err != nil {
		panic(err)
	}
	tm, err := ast.NewTemplate(bound)
	if err != nil {
		panic(err)
	}
	return tm.Tables
}

// TestIdentityCorpus compares every corpus statement's identity line with
// testdata/identity.txt: a change to the canonical printer that moves a
// fingerprint, a template, a site order or a relation list shows as a
// line diff. go test -run IdentityCorpus -update rewrites the file.
func TestIdentityCorpus(t *testing.T) {
	var lines []string
	for _, c := range identityCorpus(t) {
		lines = append(lines, identityLine(c))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateIdentity {
		if err := os.WriteFile(identityFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(identityFile)
	if err != nil {
		t.Fatalf("%v (run go test -run IdentityCorpus -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("corpus has %d lines, %s has %d", len(lines), identityFile, len(wantLines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, lines[i], wantLines[i])
		}
	}
}
