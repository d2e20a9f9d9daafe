package disagree

import (
	"strings"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
	"qirana/internal/workload"
)

// pkQuery writes SELECT <every source's primary-key columns> FROM … WHERE …
// for q, and returns it with each source's column offset in its output.
func pkQuery(q *exec.Query) (sql string, offs []int) {
	var cols, from []string
	for _, src := range q.A.Sources {
		offs = append(offs, len(cols))
		name := ast.Ident(src.Ref.EffectiveName())
		for _, k := range src.Rel.Key {
			cols = append(cols, name+"."+ast.Ident(src.Rel.Attributes[k].Name))
		}
		if src.Ref.Alias == "" {
			from = append(from, name)
		} else {
			from = append(from, ast.Ident(src.Ref.Name)+" "+name)
		}
	}
	sql = "SELECT " + strings.Join(cols, ", ") + " FROM " + strings.Join(from, ", ")
	if q.Stmt.Where != nil {
		sql += " WHERE " + q.Stmt.Where.String()
	}
	return sql, offs
}

// checkContributions compares the checker's contribution sets for sql
// with the per-source primary-key sets of the explicit key query.
func checkContributions(t *testing.T, db *storage.Database, sql string) {
	t.Helper()
	q := exec.MustCompile(sql, db.Schema)
	c, err := New(q, db)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	keySQL, offs := pkQuery(q)
	res, err := exec.MustCompile(keySQL, db.Schema).Run(db)
	if err != nil {
		t.Fatalf("%s: %v", keySQL, err)
	}
	for i, src := range q.A.Sources {
		want := make(map[string]bool)
		w := len(src.Rel.Key)
		for _, row := range res.Rows {
			want[value.Key(row[offs[i]:offs[i]+w])] = true
		}
		got := c.contrib[i]
		if len(got) != len(want) {
			t.Fatalf("%s: source %d (%s): %d contributing keys, key query has %d", sql, i, src.Ref.EffectiveName(), len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: source %d (%s) lacks a key the key query returns", sql, i, src.Ref.EffectiveName())
			}
		}
	}
}

// TestContributionsMatchKeyQuery pins the contribution sets the checker
// reads off its one construction join against an explicit key query, for
// the differential catalog, the five generator schemas' tiered queries
// and the 13 SSB flights. Self-joins keep one set per occurrence: the key
// query returns each occurrence's key columns apart.
func TestContributionsMatchKeyQuery(t *testing.T) {
	t.Run("catalog", func(t *testing.T) {
		db := testDB(5, 30, 90)
		for _, sql := range fastPathQueries {
			checkContributions(t, db, sql)
		}
	})
	schemas := []struct {
		name string
		db   *storage.Database
		sqls []string
	}{
		{"world", datagen.World(1), []string{
			"SELECT Continent, max(Population) FROM Country GROUP BY Continent",
			"SELECT min(Percentage), max(Percentage) FROM CountryLanguage",
			"SELECT DISTINCT Continent FROM Country",
			"SELECT a.Name FROM Country a, Country b WHERE a.Continent = b.Continent AND b.Population > 100000000",
			"SELECT DISTINCT C.Continent FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage > 90",
		}},
		{"carcrash", datagen.CarCrash(2, 300), []string{
			"SELECT State, min(Age) FROM crash GROUP BY State",
			"SELECT DISTINCT State FROM crash WHERE Age > 60",
		}},
		{"ssb", datagen.SSB(3, 0.001), []string{
			"SELECT DISTINCT c_nation FROM customer",
			"SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey GROUP BY c_city",
		}},
		{"tpch", datagen.TPCH(4, 0.002), []string{
			"SELECT n_name, max(s_acctbal) FROM nation, supplier WHERE n_nationkey = s_nationkey GROUP BY n_name",
			"SELECT a.s_name FROM supplier a, supplier b WHERE a.s_nationkey = b.s_nationkey AND b.s_acctbal > 5000",
		}},
		{"dblp", datagen.DBLP(5, 0.02), []string{
			"SELECT DISTINCT FromNodeId FROM dblp WHERE ToNodeId < 500",
			"SELECT min(ToNodeId), max(ToNodeId) FROM dblp",
		}},
	}
	for _, sc := range schemas {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, sql := range sc.sqls {
				checkContributions(t, sc.db, sql)
			}
		})
	}
	t.Run("ssb-flights", func(t *testing.T) {
		db := datagen.SSB(1, 0.002)
		for _, wq := range workload.SSB() {
			checkContributions(t, db, wq.SQL)
		}
	})
}

// TestCheckerBuildOnePass pins that a checker is built from one join: a
// fresh SSB aggregate checker filters each source once, in the cache of
// the query its residual checks run, and its first batch sweep serves
// every source from there without filtering one again.
func TestCheckerBuildOnePass(t *testing.T) {
	db := datagen.SSB(1, 0.002)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, wq := range workload.SSB() {
		if wq.Name != "Q2.1" && wq.Name != "Q4.1" {
			continue
		}
		q := exec.MustCompile(wq.SQL, db.Schema)
		c, err := New(q, db)
		if err != nil {
			t.Fatal(err)
		}
		built := c.cacheSnapshot()
		if n := uint64(len(q.A.Sources)); built.SourceBuilds != n || c.unrolledQ.CacheStats().SourceBuilds != n {
			t.Fatalf("%s: construction filtered %d sources (%d in the unrolled query's cache), want each of %d once",
				wq.Name, built.SourceBuilds, c.unrolledQ.CacheStats().SourceBuilds, n)
		}
		_, s, err := batch1(c, set.Updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Batched == 0 {
			t.Fatalf("%s: the sweep ran no tagged job: %+v", wq.Name, s)
		}
		if d := delta(built, c.cacheSnapshot()); d.SourceBuilds != 0 {
			t.Fatalf("%s: the first sweep filtered %d sources again: %+v", wq.Name, d.SourceBuilds, s)
		}
	}
}
