package exec

import (
	"testing"

	"qirana/internal/schema"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// twitterDB builds the running-example database of the paper (Figure 1).
func twitterDB(t testing.TB) *storage.Database {
	t.Helper()
	user := schema.MustRelation("User", []schema.Attribute{
		{Name: "uid", Type: value.KindInt},
		{Name: "name", Type: value.KindString},
		{Name: "gender", Type: value.KindString},
		{Name: "age", Type: value.KindInt},
	}, []int{0})
	tweet := schema.MustRelation("Tweet", []schema.Attribute{
		{Name: "tid", Type: value.KindInt},
		{Name: "uid", Type: value.KindInt},
		{Name: "time", Type: value.KindString},
		{Name: "location", Type: value.KindString},
	}, []int{0})
	db := storage.NewDatabase(schema.MustSchema(user, tweet))
	for _, r := range [][]value.Value{
		{value.NewInt(1), value.NewString("John"), value.NewString("m"), value.NewInt(25)},
		{value.NewInt(2), value.NewString("Alice"), value.NewString("f"), value.NewInt(13)},
		{value.NewInt(3), value.NewString("Bob"), value.NewString("m"), value.NewInt(45)},
		{value.NewInt(4), value.NewString("Anna"), value.NewString("f"), value.NewInt(19)},
	} {
		db.Table("User").MustAppend(r)
	}
	for _, r := range [][]value.Value{
		{value.NewInt(1), value.NewInt(3), value.NewString("23:29"), value.NewString("CA")},
		{value.NewInt(2), value.NewInt(3), value.NewString("23:29"), value.NewString("WA")},
		{value.NewInt(3), value.NewInt(1), value.NewString("23:30"), value.NewString("OR")},
		{value.NewInt(4), value.NewInt(2), value.NewString("23:31"), value.NewString("CA")},
	} {
		db.Table("Tweet").MustAppend(r)
	}
	return db
}

func runSQL(t testing.TB, db *storage.Database, sql string) [][]value.Value {
	t.Helper()
	q, err := Compile(sql, db.Schema)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	res, err := q.Run(db)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res.Rows
}

func wantInt(t *testing.T, rows [][]value.Value, want int64) {
	t.Helper()
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("want single cell, got %v", rows)
	}
	if rows[0][0].AsInt() != want {
		t.Fatalf("got %v, want %d", rows[0][0], want)
	}
}

func TestSelectAll(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT * FROM User")
	if len(rows) != 4 || len(rows[0]) != 4 {
		t.Fatalf("got %d rows x %d cols", len(rows), len(rows[0]))
	}
}

func TestCountWhere(t *testing.T) {
	db := twitterDB(t)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE gender = 'f'"), 2)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age > 18 AND gender = 'm'"), 2)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age > 100"), 0)
}

func TestGroupBy(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT gender, count(*) FROM User GROUP BY gender")
	if len(rows) != 2 {
		t.Fatalf("want 2 groups, got %v", rows)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r[0].S] = r[1].AsInt()
	}
	if got["m"] != 2 || got["f"] != 2 {
		t.Fatalf("bad group counts: %v", got)
	}
}

func TestAggregates(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT AVG(age), SUM(age), MIN(age), MAX(age), COUNT(age) FROM User")
	r := rows[0]
	if r[0].AsFloat() != 25.5 || r[1].AsInt() != 102 || r[2].AsInt() != 13 || r[3].AsInt() != 45 || r[4].AsInt() != 4 {
		t.Fatalf("bad aggregates: %v", r)
	}
}

func TestEmptyAggregate(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT COUNT(*), SUM(age) FROM User WHERE age > 100")
	if rows[0][0].AsInt() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty aggregate: %v", rows[0])
	}
	// Grouped aggregation over empty input yields no rows.
	rows = runSQL(t, db, "SELECT gender, COUNT(*) FROM User WHERE age > 100 GROUP BY gender")
	if len(rows) != 0 {
		t.Fatalf("want no groups, got %v", rows)
	}
}

func TestJoin(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT name, location FROM User, Tweet WHERE User.uid = Tweet.uid")
	if len(rows) != 4 {
		t.Fatalf("want 4 join rows, got %v", rows)
	}
	wantInt(t, runSQL(t, db,
		"SELECT count(*) FROM User U, Tweet T WHERE U.uid = T.uid AND U.gender = 'm'"), 3)
	// Explicit JOIN ... ON syntax.
	wantInt(t, runSQL(t, db,
		"SELECT count(*) FROM User U JOIN Tweet T ON U.uid = T.uid WHERE T.location = 'CA'"), 2)
}

func TestHavingWithAlias(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db,
		"SELECT uid, count(*) AS cnt FROM Tweet GROUP BY uid HAVING cnt > 1")
	if len(rows) != 1 || rows[0][0].AsInt() != 3 || rows[0][1].AsInt() != 2 {
		t.Fatalf("having: %v", rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT name FROM User ORDER BY age DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].S != "Bob" || rows[1][0].S != "John" {
		t.Fatalf("order/limit: %v", rows)
	}
	rows = runSQL(t, db, "SELECT name FROM User ORDER BY age LIMIT 1 OFFSET 1")
	if len(rows) != 1 || rows[0][0].S != "Anna" {
		t.Fatalf("offset: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT DISTINCT location FROM Tweet")
	if len(rows) != 3 {
		t.Fatalf("distinct: %v", rows)
	}
	wantInt(t, runSQL(t, db, "SELECT COUNT(DISTINCT location) FROM Tweet"), 3)
}

func TestLikeBetweenIn(t *testing.T) {
	db := twitterDB(t)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE name LIKE 'A%'"), 2)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age BETWEEN 13 AND 25"), 3)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE gender IN ('f')"), 2)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE name NOT LIKE '%n%'"), 2)
}

func TestSubqueries(t *testing.T) {
	db := twitterDB(t)
	// IN subquery.
	wantInt(t, runSQL(t, db,
		"SELECT count(*) FROM User WHERE uid IN (SELECT uid FROM Tweet WHERE location = 'CA')"), 2)
	// Scalar subquery.
	wantInt(t, runSQL(t, db,
		"SELECT count(*) FROM User WHERE age > (SELECT AVG(age) FROM User)"), 1)
	// Correlated EXISTS.
	wantInt(t, runSQL(t, db,
		"SELECT count(*) FROM User U WHERE EXISTS (SELECT 1 FROM Tweet T WHERE T.uid = U.uid AND T.location = 'WA')"), 1)
	// Correlated scalar subquery.
	rows := runSQL(t, db,
		"SELECT name, (SELECT count(*) FROM Tweet T WHERE T.uid = U.uid) FROM User U ORDER BY uid")
	if len(rows) != 4 || rows[2][1].AsInt() != 2 || rows[3][1].AsInt() != 0 {
		t.Fatalf("correlated scalar: %v", rows)
	}
}

func TestDerivedTable(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db,
		"SELECT avg(cnt) FROM (SELECT uid, count(*) AS cnt FROM Tweet GROUP BY uid) AS rc")
	if len(rows) != 1 || rows[0][0].AsFloat() != 4.0/3.0 {
		t.Fatalf("derived: %v", rows)
	}
}

func TestCase(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db,
		"SELECT SUM(CASE WHEN gender = 'f' THEN 1 ELSE 0 END) FROM User")
	wantInt(t, rows, 2)
}

func TestArithmeticAndComparison(t *testing.T) {
	db := twitterDB(t)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age * 2 >= 50"), 2)
	rows := runSQL(t, db, "SELECT age + 1 FROM User WHERE uid = 1")
	wantInt(t, rows, 26)
	rows = runSQL(t, db, "SELECT age / 2 FROM User WHERE uid = 3")
	if rows[0][0].AsFloat() != 22.5 {
		t.Fatalf("division: %v", rows)
	}
}

func TestOverride(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT count(*) FROM User WHERE gender = 'f'", db.Schema)
	// Replace User with a single male user: count should be 0.
	ov := Overrides{"user": {{value.NewInt(9), value.NewString("Zed"), value.NewString("m"), value.NewInt(50)}}}
	res, err := q.RunOverride(db, ov)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("override: %v", res.Rows)
	}
	// Original database untouched.
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE gender = 'f'"), 2)
}

func TestRunTagged(t *testing.T) {
	db := twitterDB(t)
	q := MustCompile("SELECT name FROM User, Tweet WHERE User.uid = Tweet.uid AND location = 'CA'", db.Schema)
	mk := func(uid int64, name, g string, age, upid int64) []value.Value {
		return []value.Value{value.NewInt(uid), value.NewString(name), value.NewString(g), value.NewInt(age), value.NewInt(upid)}
	}
	tagged := [][]value.Value{
		mk(3, "Bob", "m", 45, 7),   // joins tweet tid=1 (CA) -> output under upid 7
		mk(2, "Alice", "f", 13, 8), // joins tweet tid=4 (CA) -> output under upid 8
		mk(5, "Nobody", "m", 30, 9),
	}
	_, out, err := q.RunTagged(db, "User", nil, tagged)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[7]) != 1 || out[7][0][0].S != "Bob" {
		t.Fatalf("upid 7: %v", out[7])
	}
	if len(out[8]) != 1 || out[8][0][0].S != "Alice" {
		t.Fatalf("upid 8: %v", out[8])
	}
	if len(out[9]) != 0 {
		t.Fatalf("upid 9 should be empty: %v", out[9])
	}
}

func TestQualifiedStar(t *testing.T) {
	db := twitterDB(t)
	rows := runSQL(t, db, "SELECT U.* FROM User U, Tweet T WHERE U.uid = T.uid AND T.tid = 1")
	if len(rows) != 1 || len(rows[0]) != 4 || rows[0][1].S != "Bob" {
		t.Fatalf("qualified star: %v", rows)
	}
}

func TestNullSemantics(t *testing.T) {
	db := twitterDB(t)
	// Add a NULL age through direct storage manipulation.
	db.Table("User").Set(0, 3, value.Null)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age > 0"), 3)
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE age IS NULL"), 1)
	wantInt(t, runSQL(t, db, "SELECT count(age) FROM User"), 3)
	rows := runSQL(t, db, "SELECT SUM(age) FROM User")
	wantInt(t, rows, 77)
	// NOT of unknown stays unknown -> row filtered out.
	wantInt(t, runSQL(t, db, "SELECT count(*) FROM User WHERE NOT (age > 0)"), 0)
}
