package exec

import (
	"testing"

	"qirana/internal/schema"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// itemsDB builds orders (key oid) and items (composite key oid, line):
// every order has lines 0 and 1, so a line number alone never identifies
// an item.
func itemsDB(t testing.TB) *storage.Database {
	t.Helper()
	orders := schema.MustRelation("orders", []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "cust", Type: value.KindInt},
		{Name: "total", Type: value.KindInt},
		{Name: "status", Type: value.KindString},
	}, []int{0})
	items := schema.MustRelation("items", []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "line", Type: value.KindInt},
		{Name: "qty", Type: value.KindInt},
	}, []int{0, 1})
	db := storage.NewDatabase(schema.MustSchema(orders, items))
	for oid := int64(0); oid < 6; oid++ {
		db.Table("orders").MustAppend([]value.Value{value.NewInt(oid), value.NewInt(oid % 2),
			value.NewInt(10 * oid), value.NewString("open")})
		for line := int64(0); line < 2; line++ {
			db.Table("items").MustAppend([]value.Value{value.NewInt(oid), value.NewInt(line),
				value.NewInt(oid + line)})
		}
	}
	return db
}

// keyOf renders a primary-key tuple as Join.Contributions keys it.
func keyOf(vals ...int64) string {
	vs := make([]value.Value, len(vals))
	for i, v := range vals {
		vs[i] = value.NewInt(v)
	}
	return value.Key(vs)
}

func sameSet(got map[string]bool, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for _, k := range want {
		if !got[k] {
			return false
		}
	}
	return true
}

// TestJoinContributions pins the contribution sets a join yields: one set
// per FROM source, keyed by the relation's whole primary key (one column
// for orders, two for items), holding exactly the rows that survive the
// WHERE condition.
func TestJoinContributions(t *testing.T) {
	db := itemsDB(t)
	q := MustCompile("SELECT status FROM orders o, items i WHERE o.oid = i.oid AND i.qty > 4", db.Schema)
	j, err := q.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	// qty = oid + line > 4: items (4,1), (5,0), (5,1).
	got := j.Contributions()
	if len(got) != 2 {
		t.Fatalf("%d contribution sets for 2 sources", len(got))
	}
	if !sameSet(got[0], keyOf(4), keyOf(5)) {
		t.Fatalf("orders: %d keys, want orders 4 and 5", len(got[0]))
	}
	if !sameSet(got[1], keyOf(4, 1), keyOf(5, 0), keyOf(5, 1)) {
		t.Fatalf("items: %d keys, want (4,1), (5,0), (5,1)", len(got[1]))
	}

	// The sets come from the tuples, not from the cache: a second join
	// over the now-primed cache yields the same ones.
	j2, err := q.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	again := j2.Contributions()
	for i := range got {
		if len(again[i]) != len(got[i]) {
			t.Fatalf("source %d: %d keys over a primed cache, %d cold", i, len(again[i]), len(got[i]))
		}
	}
}

// TestJoinContributionsSelfJoin pins that each occurrence of a self-joined
// relation keeps its own set: a's rows are the orders some same-customer
// order out-totals, b's the orders that out-total one.
func TestJoinContributionsSelfJoin(t *testing.T) {
	db := itemsDB(t)
	q := MustCompile("SELECT a.oid FROM orders a, orders b WHERE a.cust = b.cust AND a.total < b.total", db.Schema)
	j, err := q.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Contributions()
	// cust 0 holds orders 0, 2, 4; cust 1 holds 1, 3, 5; totals grow with oid.
	if !sameSet(got[0], keyOf(0), keyOf(1), keyOf(2), keyOf(3)) {
		t.Fatalf("occurrence a: %d keys, want orders 0-3", len(got[0]))
	}
	if !sameSet(got[1], keyOf(2), keyOf(3), keyOf(4), keyOf(5)) {
		t.Fatalf("occurrence b: %d keys, want orders 2-5", len(got[1]))
	}
}

// TestJoinViews pins the views a join folds: per group the row count, the
// sum and the extremum of its aggregate inputs and the MIN/MAX candidate
// multiset; per core row of a DISTINCT query its multiplicity.
func TestJoinViews(t *testing.T) {
	db := itemsDB(t)
	q := MustCompile("SELECT o.cust, i.qty FROM orders o, items i WHERE o.oid = i.oid AND i.line = 1", db.Schema)
	j, err := q.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	spec := GroupViewSpec{NumGroups: 1, Aggs: []ViewAgg{{Fn: "SUM", ArgCol: 1}, {Fn: "MAX", ArgCol: 1}}}
	gv, err := j.GroupView(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Line 1 of order oid has qty oid+1: cust 0 holds orders 0, 2, 4
	// (qty 1, 3, 5), cust 1 orders 1, 3, 5 (qty 2, 4, 6).
	for cust, want := range map[int64][3]int64{0: {3, 9, 5}, 1: {3, 12, 6}} {
		st := gv.Groups[keyOf(cust)]
		if st == nil || st.Rows != want[0] || st.Sum[0] != float64(want[1]) || st.Max[1].I != want[2] {
			t.Fatalf("cust %d: %+v, want rows %d, sum %d, max %d", cust, st, want[0], want[1], want[2])
		}
		if len(st.Cand[1]) != 3 || st.Cand[0] != nil {
			t.Fatalf("cust %d: candidates %v, want three for MAX and none for SUM", cust, st.Cand)
		}
	}
	if len(gv.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(gv.Groups))
	}

	dq := MustCompile("SELECT DISTINCT o.cust FROM orders o, items i WHERE o.oid = i.oid AND i.qty > 2", db.Schema)
	dj, err := dq.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := dj.MultiplicityView()
	if err != nil {
		t.Fatal(err)
	}
	// qty = oid + line > 2: cust 0 keeps (2,1), (4,0), (4,1); cust 1 keeps
	// (3,0), (3,1), (5,0), (5,1).
	if len(mv.Counts) != 2 || mv.Counts[keyOf(0)] != 3 || mv.Counts[keyOf(1)] != 4 {
		t.Fatalf("multiplicities %v, want cust 0: 3, cust 1: 4", mv.Counts)
	}
}
