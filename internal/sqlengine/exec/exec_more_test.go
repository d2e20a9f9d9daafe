package exec

import (
	"math/rand"
	"testing"

	"qirana/internal/schema"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// ordersDB builds a two-table database with dates for richer engine tests.
func ordersDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	cust := schema.MustRelation("cust", []schema.Attribute{
		{Name: "cid", Type: value.KindInt},
		{Name: "region", Type: value.KindString},
	}, []int{0})
	ord := schema.MustRelation("ord", []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "cid", Type: value.KindInt},
		{Name: "amount", Type: value.KindInt},
		{Name: "placed", Type: value.KindDate},
	}, []int{0})
	db := storage.NewDatabase(schema.MustSchema(cust, ord))
	regions := []string{"east", "west"}
	for i := 0; i < n/4+1; i++ {
		db.Table("cust").MustAppend([]value.Value{
			value.NewInt(int64(i)), value.NewString(regions[i%2]),
		})
	}
	for i := 0; i < n; i++ {
		db.Table("ord").MustAppend([]value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(rng.Intn(n/4 + 1))),
			value.NewInt(int64(rng.Intn(500))),
			value.NewDate(2011, 1, 1+i%300),
		})
	}
	return db
}

func TestDateComparisonsAndIntervals(t *testing.T) {
	db := ordersDB(t, 100)
	all := runSQL(t, db, "SELECT count(*) FROM ord")[0][0].AsInt()
	early := runSQL(t, db,
		"SELECT count(*) FROM ord WHERE placed < date '2011-01-01' + interval '1' month")[0][0].AsInt()
	if early <= 0 || early >= all {
		t.Fatalf("january window: %d of %d", early, all)
	}
	y := runSQL(t, db, "SELECT YEAR(placed), MONTH(placed), DAY(placed) FROM ord WHERE oid = 0")
	if y[0][0].AsInt() != 2011 || y[0][1].AsInt() != 1 || y[0][2].AsInt() != 1 {
		t.Fatalf("date parts: %v", y[0])
	}
	sum := runSQL(t, db,
		"SELECT count(*) FROM ord WHERE placed BETWEEN date '2011-02-01' AND date '2011-03-01'")
	if sum[0][0].AsInt() <= 0 {
		t.Fatal("between dates")
	}
}

// TestCorrelatedPartitionIndexEquivalence verifies the correlated-filter
// partition index returns exactly what a scan would: a correlated EXISTS
// computed by the engine matches a manual Go-side computation.
func TestCorrelatedPartitionIndexEquivalence(t *testing.T) {
	db := ordersDB(t, 200)
	rows := runSQL(t, db, `SELECT c.cid FROM cust c WHERE EXISTS (
		SELECT 1 FROM ord o WHERE o.cid = c.cid AND o.amount > 450)`)
	got := map[int64]bool{}
	for _, r := range rows {
		got[r[0].AsInt()] = true
	}
	want := map[int64]bool{}
	for _, o := range db.Table("ord").Rows {
		if o[2].AsInt() > 450 {
			want[o[1].AsInt()] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("exists sets differ: %d vs %d", len(got), len(want))
	}
	for cid := range want {
		if !got[cid] {
			t.Fatalf("cid %d missing", cid)
		}
	}
}

// TestPartitionIndexRespectsOverrides: an overridden relation must not be
// served from the partition cache of the base table.
func TestPartitionIndexRespectsOverrides(t *testing.T) {
	db := ordersDB(t, 50)
	q := MustCompile(`SELECT count(*) FROM cust c WHERE EXISTS (
		SELECT 1 FROM ord o WHERE o.cid = c.cid)`, db.Schema)
	// Replace ord with a single row referencing cid 0 only.
	ov := Overrides{"ord": {{value.NewInt(999), value.NewInt(0), value.NewInt(1), value.NewDate(2011, 1, 1)}}}
	res, err := q.RunOverride(db, ov)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("override ignored: %v", res.Rows)
	}
}

func TestCorrelatedAggregateSubquery(t *testing.T) {
	db := ordersDB(t, 120)
	// Customers whose max order beats their region-mates' average.
	rows := runSQL(t, db, `SELECT c.cid FROM cust c WHERE
		(SELECT max(amount) FROM ord o WHERE o.cid = c.cid) >
		(SELECT avg(amount) FROM ord)`)
	if len(rows) == 0 {
		t.Fatal("expected some customers above average")
	}
	// Cross-check one row manually.
	globalAvg := runSQL(t, db, "SELECT avg(amount) FROM ord")[0][0].AsFloat()
	cid := rows[0][0].AsInt()
	maxRow := runSQL(t, db, "SELECT max(amount) FROM ord WHERE cid = "+itoa(cid))
	if maxRow[0][0].AsFloat() <= globalAvg {
		t.Fatalf("cid %d should not qualify", cid)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestCrossJoinWithoutEdges(t *testing.T) {
	db := twitterDB(t)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User, Tweet"), 16)
}

func TestInSubquery3VL(t *testing.T) {
	db := ordersDB(t, 30)
	// Inject a NULL cid into ord.
	db.Table("ord").Set(0, 1, value.Null)
	// NOT IN against a set containing NULL filters everything (unknown).
	rows := runSQL(t, db, "SELECT count(*) FROM cust WHERE cid NOT IN (SELECT cid FROM ord)")
	if rows[0][0].AsInt() != 0 {
		t.Fatalf("NOT IN with NULL in set must be empty, got %v", rows)
	}
	// IN still returns the matching ones.
	in := runSQL(t, db, "SELECT count(*) FROM cust WHERE cid IN (SELECT cid FROM ord)")
	if in[0][0].AsInt() == 0 {
		t.Fatal("IN with NULLs should still match non-null members")
	}
}

func TestOrderByNullsFirstAndAlias(t *testing.T) {
	db := twitterDB(t)
	db.Table("User").Set(2, 3, value.Null) // Bob's age
	rows := runSQL(t, db, "SELECT name, age AS a FROM User ORDER BY a")
	if rows[0][0].S != "Bob" {
		t.Fatalf("NULLs sort first: %v", rows)
	}
	if rows[1][1].AsInt() != 13 {
		t.Fatalf("ascending after nulls: %v", rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := ordersDB(t, 100)
	rows := runSQL(t, db, "SELECT amount / 100, count(*) FROM ord GROUP BY amount / 100")
	if len(rows) < 2 {
		t.Fatalf("expression groups: %v", rows)
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].AsInt()
	}
	if total != 100 {
		t.Fatalf("group counts sum to %d", total)
	}
}

func TestMySQLPermissiveGrouping(t *testing.T) {
	db := twitterDB(t)
	// Selecting a non-grouped column takes a representative value.
	rows := runSQL(t, db, "SELECT name, count(*) FROM User GROUP BY gender")
	if len(rows) != 2 {
		t.Fatalf("permissive grouping: %v", rows)
	}
}

func TestLimitZeroAndBeyond(t *testing.T) {
	db := twitterDB(t)
	if got := runSQL(t, db, "SELECT * FROM User LIMIT 0"); len(got) != 0 {
		t.Fatal("limit 0")
	}
	if got := runSQL(t, db, "SELECT * FROM User LIMIT 100"); len(got) != 4 {
		t.Fatal("limit beyond size")
	}
	if got := runSQL(t, db, "SELECT * FROM User ORDER BY uid LIMIT 2 OFFSET 10"); len(got) != 0 {
		t.Fatal("offset beyond size")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT 1 + 2")
	if rows[0][0].AsInt() != 3 {
		t.Fatal("constant select")
	}
}

func TestCompileErrors(t *testing.T) {
	db := twitterDB(t)
	for _, sql := range []string{
		"SELECT * FROM ghost",
		"SELECT ghost FROM User",
		"SELECT * FROM User WHERE",
	} {
		if _, err := Compile(sql, db.Schema); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestRunTaggedRejectsNonSPJ(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT gender, count(*) FROM User GROUP BY gender", db.Schema)
	if _, _, err := q.RunTagged(db, "User", nil, nil); err == nil {
		t.Fatal("aggregate query accepted for tagged run")
	}
	q2 := MustCompile("SELECT name FROM User", db.Schema)
	if _, _, err := q2.RunTagged(db, "Tweet", nil, nil); err == nil {
		t.Fatal("relation outside the query accepted")
	}
}

// TestDeterministicExecution: repeated runs produce identical row orders
// (the pricing framework relies on engine determinism).
func TestDeterministicExecution(t *testing.T) {
	db := ordersDB(t, 150)
	q := MustCompile(`SELECT region, count(*), sum(amount) FROM cust, ord
		WHERE cust.cid = ord.cid GROUP BY region`, db.Schema)
	first, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := q.Run(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != len(first.Rows) {
			t.Fatal("row count changed")
		}
		for j := range again.Rows {
			if value.Key(again.Rows[j]) != value.Key(first.Rows[j]) {
				t.Fatal("row order changed across runs")
			}
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := twitterDB(t)
	// The global group passes the HAVING filter...
	rows := runSQL(t, db, "SELECT count(*) FROM User HAVING count(*) > 2")
	if len(rows) != 1 || rows[0][0].AsInt() != 4 {
		t.Fatalf("global having: %v", rows)
	}
	// ...or is filtered out entirely.
	rows = runSQL(t, db, "SELECT count(*) FROM User HAVING count(*) > 100")
	if len(rows) != 0 {
		t.Fatalf("failed having should yield no rows: %v", rows)
	}
}

func TestQueriesOverEmptyTables(t *testing.T) {
	db := twitterDB(t)
	db.Table("Tweet").Rows = nil
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM Tweet"), 0)
	if rows := runSQL(t, db, "SELECT * FROM User, Tweet WHERE User.uid = Tweet.uid"); len(rows) != 0 {
		t.Fatalf("join with empty side: %v", rows)
	}
	if rows := runSQL(t, db, "SELECT location, count(*) FROM Tweet GROUP BY location"); len(rows) != 0 {
		t.Fatalf("grouping empty: %v", rows)
	}
	rows := runSQL(t, db, "SELECT MAX(uid) FROM Tweet")
	if !rows[0][0].IsNull() {
		t.Fatalf("max of empty: %v", rows)
	}
}

func TestNotInEmptySubquery(t *testing.T) {
	db := twitterDB(t)
	db.Table("Tweet").Rows = nil
	// NOT IN over an empty set keeps everything.
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE uid NOT IN (SELECT uid FROM Tweet)"), 4)
}
