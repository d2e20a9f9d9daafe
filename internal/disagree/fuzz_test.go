package disagree

import (
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
	"qirana/internal/value"
)

// FuzzDeltaTiers is the coverage-guided twin of the differential tests: it
// synthesizes single-row ± updates from fuzz input (relation, row, column,
// new value) and checks that the tiered checker — first-order deltas,
// multiplicity views, candidate views, higher-order self-join expansion —
// answers identically to the full re-run ground truth on a query catalog
// spanning every tier. The fuzzer owns the input space, so it explores
// update shapes the generated support sets never produce (no-op writes,
// value collisions, repeated extremum duplicates).
func FuzzDeltaTiers(f *testing.F) {
	db := testDB(99, 25, 60)
	queries := []string{
		"SELECT city, tier FROM Cust WHERE score > 25",
		"SELECT C.city, O.amount FROM Cust C, Ord O WHERE C.cid = O.cid",
		"SELECT DISTINCT city FROM Cust",
		"SELECT DISTINCT O.status FROM Cust C, Ord O WHERE C.cid = O.cid",
		"SELECT a.cid FROM Cust a, Cust b WHERE a.score = b.score",
		"SELECT city, min(score), max(score) FROM Cust GROUP BY city",
		"SELECT min(score), max(score) FROM Cust",
		"SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
	}
	checkers := make([]*Checker, len(queries))
	qs := make([]*exec.Query, len(queries))
	for i, sql := range queries {
		qs[i] = exec.MustCompile(sql, db.Schema)
		c, err := New(qs[i], db)
		if err != nil {
			f.Fatalf("checker for %q: %v", sql, err)
		}
		checkers[i] = c
	}
	cities := []string{"ny", "sf", "la", "chi", "zz"}
	statuses := []string{"open", "shipped", "lost", "new"}

	f.Add(uint8(0), false, uint16(0), uint8(1), int64(7))
	f.Add(uint8(2), false, uint16(3), uint8(1), int64(0))
	f.Add(uint8(4), false, uint16(9), uint8(3), int64(49))
	f.Add(uint8(5), true, uint16(2), uint8(2), int64(12))
	f.Add(uint8(7), false, uint16(17), uint8(3), int64(-3))

	f.Fuzz(func(t *testing.T, qPick uint8, onOrd bool, row uint16, attr uint8, nv int64) {
		rel := "Cust"
		if onOrd {
			rel = "Ord"
		}
		tbl := db.Table(rel)
		ri := int(row) % tbl.Len()
		ai := 1 + int(attr)%3 // never touch the PK column
		var newVal value.Value
		switch {
		case rel == "Cust" && ai == 1:
			newVal = value.NewString(cities[int(uint64(nv)%uint64(len(cities)))])
		case rel == "Ord" && ai == 3:
			newVal = value.NewString(statuses[int(uint64(nv)%uint64(len(statuses)))])
		case rel == "Ord" && ai == 1:
			newVal = value.NewInt(nv % 25) // keep cid joinable
		default:
			newVal = value.NewInt(nv % 100)
		}
		u := &support.Update{Rel: rel, Row1: ri, Attrs: []int{ai},
			Old1: []value.Value{tbl.Get(ri, ai)},
			New1: []value.Value{newVal}}
		k := int(qPick) % len(checkers)
		got, _, err := checkers[k].Check(u)
		if err != nil {
			t.Fatalf("%q / %+v: %v", queries[k], u, err)
		}
		if want := naiveDisagree(t, qs[k], db, u); got != want {
			t.Fatalf("%q / %+v: tiered says %v, full re-run says %v", queries[k], u, got, want)
		}
	})
}
