package plan

import (
	"strings"
	"testing"

	"qirana/internal/schema"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/parser"
	"qirana/internal/value"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustSchema(
		schema.MustRelation("orders", []schema.Attribute{
			{Name: "oid", Type: value.KindInt},
			{Name: "cust", Type: value.KindInt},
			{Name: "total", Type: value.KindInt},
			{Name: "status", Type: value.KindString},
		}, []int{0}),
		schema.MustRelation("items", []schema.Attribute{
			{Name: "oid", Type: value.KindInt},
			{Name: "line", Type: value.KindInt},
			{Name: "qty", Type: value.KindInt},
			{Name: "price", Type: value.KindInt},
		}, []int{0, 1}),
	)
}

func extract(t *testing.T, sql string) (*SPJ, error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyze.Analyze(stmt, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return Extract(a)
}

func mustExtract(t *testing.T, sql string) *SPJ {
	t.Helper()
	s, err := extract(t, sql)
	if err != nil {
		t.Fatalf("extract %q: %v", sql, err)
	}
	return s
}

func TestPlainSPJ(t *testing.T) {
	s := mustExtract(t, "SELECT o.status, i.qty FROM orders o, items i WHERE o.oid = i.oid AND o.total > 10")
	if s.IsAgg {
		t.Fatal("not an aggregate")
	}
	if len(s.RelOfSource) != 2 || s.RelOfSource[0] != "orders" {
		t.Fatalf("rels: %v", s.RelOfSource)
	}
	if len(s.Conjuncts) != 2 {
		t.Fatalf("conjuncts: %d", len(s.Conjuncts))
	}
	// o.total > 10 is single-relation on source 0.
	if len(s.SingleRel[0]) != 1 || len(s.SingleRel[1]) != 0 {
		t.Fatalf("single-rel split: %v", s.SingleRel)
	}
	// Projections: status (attr 3 of orders), qty (attr 2 of items) — bare.
	if !s.ProjAttrs[0][3] || !s.ProjAttrs[1][2] {
		t.Fatalf("proj attrs: %v", s.ProjAttrs)
	}
	if !s.BareProj[0][3] || !s.BareProj[1][2] {
		t.Fatalf("bare proj: %v", s.BareProj)
	}
}

func TestComputedProjectionNotBare(t *testing.T) {
	s := mustExtract(t, "SELECT qty * price FROM items")
	if !s.ProjAttrs[0][2] || !s.ProjAttrs[0][3] {
		t.Fatal("computed expr attrs missing from ProjAttrs")
	}
	if len(s.BareProj[0]) != 0 {
		t.Fatal("computed expr must not be bare")
	}
}

func TestAggregateExtraction(t *testing.T) {
	s := mustExtract(t, "SELECT status, count(*), sum(total) FROM orders GROUP BY status")
	if !s.IsAgg || s.NumGroups != 1 || len(s.Aggs) != 2 {
		t.Fatalf("agg shape: %+v", s)
	}
	if !s.HasCountStar {
		t.Fatal("count(*) flag")
	}
	// Unrolled query: group col + 2 agg args.
	if len(s.UnrolledStmt.Items) != 3 {
		t.Fatalf("unrolled items: %v", s.UnrolledStmt.Items)
	}
	if s.Aggs[0].ArgCol != 1 || s.Aggs[1].ArgCol != 2 {
		t.Fatalf("arg cols: %+v", s.Aggs)
	}
	if !s.GroupAttrs[0][3] || !s.BareGroup[0][3] {
		t.Fatal("group attrs")
	}
}

func TestIneligible(t *testing.T) {
	cases := map[string]string{
		"SELECT status FROM orders LIMIT 5":                                       "LIMIT",
		"SELECT status FROM orders ORDER BY status":                               "ORDER BY",
		"SELECT status, count(*) FROM orders GROUP BY status HAVING count(*) > 1": "HAVING",
		"SELECT cust FROM orders WHERE total > (SELECT avg(total) FROM orders)":   "subquer",
		"SELECT DISTINCT status, count(*) FROM orders GROUP BY status":            "DISTINCT over aggregation",
		"SELECT count(DISTINCT status) FROM orders":                               "DISTINCT aggregate",
		"SELECT x FROM (SELECT cust AS x FROM orders) AS d":                       "derived",
		"SELECT 1": "FROM-less",
		"SELECT cust FROM orders GROUP BY cust, status":              "not in select list",
		"SELECT status, total, count(*) FROM orders GROUP BY status": "non-grouped",
	}
	for sql, frag := range cases {
		_, err := extract(t, sql)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("%q: got %v, want %q", sql, err, frag)
		}
	}
}

func TestDistinctAccepted(t *testing.T) {
	s := mustExtract(t, "SELECT DISTINCT status FROM orders")
	if !s.Distinct {
		t.Fatal("Distinct flag not set")
	}
	if s.IsAgg {
		t.Fatal("plain DISTINCT is not an aggregate")
	}
	if mustExtract(t, "SELECT status FROM orders").Distinct {
		t.Fatal("Distinct flag set on a non-DISTINCT query")
	}
}

func TestSelfJoinAccepted(t *testing.T) {
	s := mustExtract(t, "SELECT a.oid FROM orders a, orders b WHERE a.cust = b.cust")
	if len(s.RelOfSource) != 2 || s.RelOfSource[0] != "orders" || s.RelOfSource[1] != "orders" {
		t.Fatalf("rels: %v", s.RelOfSource)
	}
	// Each occurrence keeps its own contribution set: see
	// exec.TestJoinContributionsSelfJoin.
}

func TestGroupByQualifiedSpellings(t *testing.T) {
	// Group expression spelled differently in SELECT and GROUP BY still
	// matches by binding.
	s := mustExtract(t, "SELECT o.status, count(*) FROM orders o GROUP BY status")
	if s.NumGroups != 1 {
		t.Fatal("qualified/unqualified group match")
	}
}

func TestOrConditionsStaySingleRel(t *testing.T) {
	s := mustExtract(t, "SELECT status FROM orders WHERE total > 10 OR cust = 3")
	if len(s.SingleRel[0]) != 1 {
		t.Fatalf("OR condition is still single-relation: %v", s.SingleRel)
	}
}
