// Property test for the group refold: for a single-source GROUP BY query,
// GroupTable.Fold over any sequence of the relation's base rows, in base
// order and with some rows replaced by fresh tuples (evaluated through
// GroupTable.Eval), must return exactly the rows RunOverride returns with
// the relation replaced by that sequence: the same rows in the same
// order, the same values of the same kinds, floats bit for bit. This is
// the contract the entropy sweep's group refold (disagree.CheckBatch) rests
// on, checked with testing/quick over a catalog of aggregate shapes.
package exec_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qirana/internal/schema"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// refoldQueries covers COUNT(*) and COUNT(col) over NULLs, COUNT(DISTINCT),
// integer and float SUM and AVG, MIN/MAX over strings and floats, an
// expression over aggregates, a GROUP BY expression, WHERE predicates
// that are NULL on some rows and source-free WHERE conjuncts.
var refoldQueries = []string{
	"SELECT grp, count(*), count(n), count(f) FROM T GROUP BY grp",
	"SELECT grp, count(DISTINCT cat), count(DISTINCT s) FROM T GROUP BY grp",
	"SELECT cat, sum(n), sum(f), avg(n), avg(f) FROM T GROUP BY cat",
	"SELECT cat, min(s), max(s), min(f), max(f) FROM T GROUP BY cat",
	"SELECT grp, sum(n) / count(*), max(f) - min(f), count(*) + 1 FROM T GROUP BY grp",
	"SELECT cat * 2, count(*), sum(f) FROM T GROUP BY cat * 2",
	"SELECT n % 3, grp, avg(f) FROM T GROUP BY n % 3, grp",
	"SELECT grp, count(*), avg(f) FROM T WHERE n > 10 GROUP BY grp",
	"SELECT cat, sum(n), min(s) FROM T WHERE f < 0.5 AND s <> 'b' GROUP BY cat",
	"SELECT grp, count(*) FROM T WHERE 1 = 1 AND n < 20 GROUP BY grp",
	"SELECT grp, count(*), sum(f) FROM T WHERE n > 3 AND 1 = 0 GROUP BY grp",
}

// refoldDB builds T: mixed-case group strings (value.Key folds case, so
// "a" and "A" share a group whose representative is the first one seen),
// and nullable int, float and string columns with floats whose sums
// depend on the addition order.
func refoldDB(t testing.TB) *storage.Database {
	t.Helper()
	rel := schema.MustRelation("T", []schema.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "grp", Type: value.KindString},
		{Name: "cat", Type: value.KindInt},
		{Name: "n", Type: value.KindInt},
		{Name: "f", Type: value.KindFloat},
		{Name: "s", Type: value.KindString},
	}, []int{0})
	db := storage.NewDatabase(schema.MustSchema(rel))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 48; i++ {
		db.Table("T").MustAppend(refoldRow(rng, int64(i)))
	}
	return db
}

// refoldRow draws one row of T; groups and categories include values the
// first rows rarely or never have, so replacements open new groups.
func refoldRow(rng *rand.Rand, id int64) []value.Value {
	grps := []string{"a", "A", "b", "c", "zz"}
	floats := []float64{0.1, 0.2, 0.3, 1e16, -1e16, 2.5, 0.7}
	strs := []string{"b", "B", "apple", "pear", ""}
	nullable := func(v value.Value) value.Value {
		if rng.Intn(6) == 0 {
			return value.Null
		}
		return v
	}
	ng := len(grps) - 1 // "zz" only from the last base rows on
	if id >= 40 {
		ng++
	}
	return []value.Value{
		value.NewInt(id),
		value.NewString(grps[rng.Intn(ng)]),
		value.NewInt(int64(rng.Intn(4))),
		nullable(value.NewInt(int64(rng.Intn(30)))),
		nullable(value.NewFloat(floats[rng.Intn(len(floats))])),
		nullable(value.NewString(strs[rng.Intn(len(strs))])),
	}
}

func sameValue(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func TestGroupFoldMatchesRunOverride(t *testing.T) {
	db := refoldDB(t)
	base := db.Table("T").Rows
	for _, sql := range refoldQueries {
		q := exec.MustCompile(sql, db.Schema)
		tbl, err := q.NewGroupTable(db)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		// A random subset of the base rows in base order; one or two of its
		// rows (repl, repl+shift) are replaced by fresh tuples from vseed.
		prop := func(sel uint64, repl, shift uint8, two bool, vseed int64) bool {
			var idx []int
			for ri := range base {
				if sel&(1<<(ri%64)) != 0 {
					idx = append(idx, ri)
				}
			}
			if len(idx) == 0 {
				return true
			}
			pos := []int{int(repl) % len(idx)}
			if p2 := (pos[0] + 1 + int(shift)) % len(idx); two && p2 != pos[0] {
				pos = append(pos, p2)
			}
			rng := rand.New(rand.NewSource(vseed))
			rows := make([][]value.Value, len(idx))
			in := make([]*exec.FoldRow, len(idx))
			for x, ri := range idx {
				rows[x], in[x] = base[ri], tbl.Row(ri)
			}
			for _, p := range pos {
				rows[p] = refoldRow(rng, int64(1000+p))
				fr, err := tbl.Eval(rows[p])
				if err != nil {
					t.Errorf("%q: eval %v: %v", sql, rows[p], err)
					return false
				}
				in[p] = &fr
			}
			want, err := q.RunOverride(db, exec.Overrides{"t": rows})
			if err != nil {
				t.Errorf("%q: RunOverride: %v", sql, err)
				return false
			}
			got, err := tbl.Fold(in)
			if err != nil {
				t.Errorf("%q: Fold: %v", sql, err)
				return false
			}
			if len(got) != len(want.Rows) {
				t.Errorf("%q: fold gives %d rows, RunOverride %d", sql, len(got), len(want.Rows))
				return false
			}
			for x := range got {
				if len(got[x]) != len(want.Rows[x]) {
					return false
				}
				for y := range got[x] {
					if !sameValue(got[x][y], want.Rows[x][y]) {
						t.Errorf("%q row %d: fold %v, RunOverride %v", sql, x, got[x], want.Rows[x])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
	}
}

// TestGroupTableDomain pins the shapes NewGroupTable refuses: everything
// but a GROUP BY aggregate over one base relation with no HAVING, ORDER
// BY, LIMIT or subquery.
func TestGroupTableDomain(t *testing.T) {
	db := refoldDB(t)
	for _, sql := range []string{
		"SELECT grp, n FROM T",
		"SELECT count(*) FROM T",
		"SELECT a.grp, count(*) FROM T a, T b WHERE a.id = b.cat GROUP BY a.grp",
		"SELECT grp, count(*) FROM T GROUP BY grp HAVING count(*) > 1",
		"SELECT grp, count(*) FROM T GROUP BY grp ORDER BY grp",
		"SELECT grp, count(*) FROM T GROUP BY grp LIMIT 2",
		"SELECT grp, count(*) FROM T WHERE n > (SELECT avg(n) FROM T) GROUP BY grp",
	} {
		if _, err := exec.MustCompile(sql, db.Schema).NewGroupTable(db); err == nil {
			t.Errorf("%q: NewGroupTable accepted a query outside its domain", sql)
		}
	}
}
