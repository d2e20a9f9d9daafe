package disagree

import (
	"math/rand"
	"testing"

	"qirana/internal/schema"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// compositeDB builds a schema with a composite-key fact table (like SSB's
// lineorder or TPC-H's lineitem) joined to a dimension, to exercise the
// checker's multi-column primary-key handling.
func compositeDB(seed int64, nOrders, nParts int) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	part := schema.MustRelation("part", []schema.Attribute{
		{Name: "pid", Type: value.KindInt},
		{Name: "cat", Type: value.KindString},
		{Name: "size", Type: value.KindInt},
	}, []int{0})
	line := schema.MustRelation("line", []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "lno", Type: value.KindInt},
		{Name: "pid", Type: value.KindInt},
		{Name: "qty", Type: value.KindInt},
		{Name: "price", Type: value.KindInt},
	}, []int{0, 1})
	db := storage.NewDatabase(schema.MustSchema(part, line))
	cats := []string{"a", "b", "c"}
	for p := 1; p <= nParts; p++ {
		db.Table("part").MustAppend([]value.Value{
			value.NewInt(int64(p)), value.NewString(cats[rng.Intn(3)]), value.NewInt(int64(rng.Intn(20))),
		})
	}
	for o := 1; o <= nOrders; o++ {
		lines := 1 + rng.Intn(4)
		for l := 1; l <= lines; l++ {
			db.Table("line").MustAppend([]value.Value{
				value.NewInt(int64(o)), value.NewInt(int64(l)),
				value.NewInt(int64(1 + rng.Intn(nParts))),
				value.NewInt(int64(1 + rng.Intn(40))),
				value.NewInt(int64(100 * (1 + rng.Intn(50)))),
			})
		}
	}
	return db
}

var compositeQueries = []string{
	"SELECT qty, price FROM line WHERE qty > 20",
	"SELECT p.cat, l.price FROM part p, line l WHERE p.pid = l.pid AND p.size > 10",
	"SELECT count(*) FROM line WHERE price > 3000",
	"SELECT cat, sum(l.price * l.qty) FROM part p, line l WHERE p.pid = l.pid GROUP BY cat",
	"SELECT oid, sum(price) FROM line GROUP BY oid",
	"SELECT cat, min(price), max(qty) FROM part, line WHERE part.pid = line.pid GROUP BY cat",
	"SELECT l.oid, l.lno FROM line l, part p WHERE l.pid = p.pid AND p.cat = 'a'",
}

func TestDifferentialCompositeKeys(t *testing.T) {
	db := compositeDB(41, 40, 15)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(250, 19))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range compositeQueries {
		sql := sql
		t.Run(sql, func(t *testing.T) {
			q := exec.MustCompile(sql, db.Schema)
			c, err := New(q, db)
			if err != nil {
				t.Fatalf("ineligible: %v", err)
			}
			batch, _, err := batch1(c, set.Updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range set.Updates {
				want := naiveDisagree(t, q, db, u)
				if batch[i] != want {
					t.Fatalf("update %+v: fast %v naive %v", u, batch[i], want)
				}
			}
		})
	}
}

// TestCompositeContribKeys pins that contribution sets key on the full
// composite primary key — two lines of different orders sharing a line
// number must not collide.
func TestCompositeContribKeys(t *testing.T) {
	db := compositeDB(7, 10, 5)
	q := exec.MustCompile("SELECT qty FROM line WHERE price > 0", db.Schema)
	c, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Every line contributes (price always > 0): the contribution set's
	// size must equal the table's cardinality, which collapses if keys
	// collide on a prefix.
	if got := len(c.contrib[c.srcsOf["line"][0]]); got != db.Table("line").Len() {
		t.Fatalf("contribution set has %d keys for %d rows", got, db.Table("line").Len())
	}
}
