package disagree

import (
	"context"
	"testing"

	"qirana/internal/result"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// fuzzBals are Cust.bal's values in FuzzDeltaTiers: binary fractions
// whose float sums depend on the order they are added in.
var fuzzBals = []float64{0.1, 0.2, 0.3, 0.7, 1.1, 2.5}

// FuzzDeltaTiers is the coverage-guided twin of the differential tests: it
// synthesizes single-row ± updates and two-row swaps from fuzz input
// (relation, rows, columns, new value) and checks that the tiered checker
// — first-order deltas, multiplicity views, candidate views, higher-order
// self-join expansion — answers identically to the full re-run ground
// truth on a query catalog spanning every tier, float SUM/AVG included —
// once alone through Check, and once through CheckBatch in a batch with a
// fixed set of generated updates on the same relations, where the tagged
// jobs, self-join terms included, join the fuzzed update's rows with
// theirs under distinct upids; every bit of the batch must match its
// re-run. The same batch through CheckBatch's hash form must give every
// update the re-run's Result.Hash bit for bit: entropy pricing partitions
// by these hashes, and hands an element the base hash whenever a stage
// says Agree. The fuzzer owns the input space, so it explores update
// shapes the generated support sets never produce (no-op writes, value
// collisions, repeated extremum duplicates, swaps that reorder float
// contributions). The catalog ends with foldOnly queries: single-source
// group-bys plan.Extract rejects (COUNT(DISTINCT)), so they have no
// checker; for them, and for every single-source group-by with one, the
// fuzzer checks exec's group fold directly: the relation's rows refolded
// with the update's new tuples at their positions must hash as the re-run
// does.
func FuzzDeltaTiers(f *testing.F) {
	db := custOrdDB(99, 25, 60, fuzzBals)
	queries := []string{
		"SELECT city, tier FROM Cust WHERE score > 25",
		"SELECT C.city, O.amount FROM Cust C, Ord O WHERE C.cid = O.cid",
		"SELECT DISTINCT city FROM Cust",
		"SELECT DISTINCT O.status FROM Cust C, Ord O WHERE C.cid = O.cid",
		"SELECT a.cid FROM Cust a, Cust b WHERE a.score = b.score",
		"SELECT city, min(score), max(score) FROM Cust GROUP BY city",
		"SELECT min(score), max(score) FROM Cust",
		"SELECT a.city, max(b.score) FROM Cust a, Cust b WHERE a.tier = b.tier GROUP BY a.city",
		"SELECT city, count(*), avg(bal) FROM Cust WHERE score > 10 GROUP BY city",
		"SELECT tier, sum(bal) FROM Cust GROUP BY tier",
		"SELECT C.city, sum(C.bal), avg(O.amount) FROM Cust C, Ord O WHERE C.cid = O.cid GROUP BY C.city",
		"SELECT score / 10, count(*), sum(bal), min(city) FROM Cust WHERE score > 5 GROUP BY score / 10",
	}
	foldOnly := []string{
		"SELECT tier, count(DISTINCT city), avg(bal) FROM Cust WHERE score < 40 GROUP BY tier",
	}
	checkers := make([]*Checker, len(queries))
	qs := make([]*exec.Query, len(queries)+len(foldOnly))
	for i, sql := range queries {
		qs[i] = exec.MustCompile(sql, db.Schema)
		c, err := New(qs[i], db)
		if err != nil {
			f.Fatalf("checker for %q: %v", sql, err)
		}
		checkers[i] = c
	}
	for i, sql := range foldOnly {
		qs[len(queries)+i] = exec.MustCompile(sql, db.Schema)
	}
	queries = append(queries, foldOnly...)
	gen, err := support.GenerateNeighborhood(db, support.DefaultConfig(40, 3))
	if err != nil {
		f.Fatal(err)
	}
	fixed := gen.Updates
	bases := make([]*result.Result, len(checkers))
	fixedWant := make([][]bool, len(checkers))     // per checker: each fixed update's re-run bit
	fixedHashes := make([][]uint64, len(checkers)) // and its re-run hash
	for k, q := range qs[:len(checkers)] {
		base, err := q.Run(db)
		if err != nil {
			f.Fatal(err)
		}
		bases[k] = base
		for _, u := range fixed {
			u.Apply(db)
			after, err := q.Run(db)
			u.Undo(db)
			if err != nil {
				f.Fatal(err)
			}
			fixedWant[k] = append(fixedWant[k], !base.Equal(after))
			fixedHashes[k] = append(fixedHashes[k], after.Hash())
		}
	}
	cities := []string{"ny", "sf", "la", "chi", "zz"}
	statuses := []string{"open", "shipped", "lost", "new"}

	f.Add(uint8(0), false, uint16(0), uint8(1), int64(7), false, uint16(0))
	f.Add(uint8(2), false, uint16(3), uint8(1), int64(0), false, uint16(0))
	f.Add(uint8(4), false, uint16(9), uint8(3), int64(49), false, uint16(0))
	f.Add(uint8(5), true, uint16(2), uint8(2), int64(12), false, uint16(0))
	f.Add(uint8(7), false, uint16(17), uint8(3), int64(-3), false, uint16(0))
	// Swaps of (city, bal) between two contributing rows: each group keeps
	// its multiset of bal values in a new row order, and the float SUM/AVG
	// re-sums to a different last bit (the delta tiers once said Agree).
	f.Add(uint8(8), false, uint16(0), uint8(0x9), int64(0), true, uint16(22))
	f.Add(uint8(9), false, uint16(0), uint8(0x9), int64(0), true, uint16(15))
	f.Add(uint8(10), false, uint16(10), uint8(0x9), int64(0), true, uint16(21))
	f.Add(uint8(1), true, uint16(5), uint8(0x3), int64(0), true, uint16(40))

	f.Fuzz(func(t *testing.T, qPick uint8, onOrd bool, row uint16, attr uint8, nv int64, swap bool, row2 uint16) {
		rel, ncols := "Cust", 4
		if onOrd {
			rel, ncols = "Ord", 3
		}
		tbl := db.Table(rel)
		ri := int(row) % tbl.Len()
		var u *support.Update
		if r2 := int(row2) % tbl.Len(); swap && r2 != ri {
			// A swap exchanges the columns whose bits are set in attr (one
			// column when none is), as the support generator's swaps do.
			u = &support.Update{Rel: rel, Swap: true, Row1: ri, Row2: r2}
			for c := 0; c < ncols; c++ {
				if attr&(1<<c) != 0 {
					u.Attrs = append(u.Attrs, 1+c)
				}
			}
			if len(u.Attrs) == 0 {
				u.Attrs = []int{1 + int(attr)%ncols}
			}
			for _, a := range u.Attrs {
				v1, v2 := tbl.Get(ri, a), tbl.Get(r2, a)
				u.Old1, u.New1 = append(u.Old1, v1), append(u.New1, v2)
				u.Old2, u.New2 = append(u.Old2, v2), append(u.New2, v1)
			}
		} else {
			ai := 1 + int(attr)%ncols // never touch the PK column
			var newVal value.Value
			switch {
			case rel == "Cust" && ai == 1:
				newVal = value.NewString(cities[int(uint64(nv)%uint64(len(cities)))])
			case rel == "Cust" && ai == 4:
				newVal = value.NewFloat(fuzzBals[int(uint64(nv)%uint64(len(fuzzBals)))])
			case rel == "Ord" && ai == 3:
				newVal = value.NewString(statuses[int(uint64(nv)%uint64(len(statuses)))])
			case rel == "Ord" && ai == 1:
				newVal = value.NewInt(nv % 25) // keep cid joinable
			default:
				newVal = value.NewInt(nv % 100)
			}
			u = &support.Update{Rel: rel, Row1: ri, Attrs: []int{ai},
				Old1: []value.Value{tbl.Get(ri, ai)},
				New1: []value.Value{newVal}}
		}
		k := int(qPick) % len(queries)
		if k >= len(checkers) {
			_, after := rerun(t, qs[k], db, u)
			checkGroupFold(t, qs[k], db, u, after)
			return
		}
		got, _, err := check1(checkers[k], u)
		if err != nil {
			t.Fatalf("%q / %+v: %v", queries[k], u, err)
		}
		base, after := rerun(t, qs[k], db, u)
		checkGroupFold(t, qs[k], db, u, after)
		want := !base.Equal(after)
		if got != want {
			t.Fatalf("%q / %+v: tiered says %v, full re-run says %v", queries[k], u, got, want)
		}
		batch := append(fixed[:len(fixed):len(fixed)], u)
		bits, _, _, err := CheckBatch(context.Background(), checkers[k:k+1], batch, nil, 1, MaxJobElems, nil)
		if err != nil {
			t.Fatalf("%q / %+v: batch: %v", queries[k], u, err)
		}
		if got := bits[0][len(fixed)]; got != want {
			t.Fatalf("%q / %+v: batched says %v, full re-run says %v", queries[k], u, got, want)
		}
		for x, w := range fixedWant[k] {
			if bits[0][x] != w {
				t.Fatalf("%q: fixed update %+v batched with %+v: batched says %v, full re-run says %v", queries[k], fixed[x], u, bits[0][x], w)
			}
		}
		_, hashes, _, err := CheckBatch(context.Background(), checkers[k:k+1], batch, nil, 1, MaxJobElems, bases[k:k+1])
		if err != nil {
			t.Fatalf("%q / %+v: hash batch: %v", queries[k], u, err)
		}
		if got := hashes[0][len(fixed)]; got != after.Hash() {
			t.Fatalf("%q / %+v: batched hash %x, the re-run's hash %x", queries[k], u, got, after.Hash())
		}
		for x, w := range fixedHashes[k] {
			if hashes[0][x] != w {
				t.Fatalf("%q: fixed update %+v batched with %+v: batched hash %x, the re-run's hash %x", queries[k], fixed[x], u, hashes[0][x], w)
			}
		}
	})
}

// checkGroupFold checks exec's group fold on a single-source GROUP BY
// query (any other query passes): the relation's rows refolded with u's
// new tuples at their positions must hash as after, the re-run over u(D).
func checkGroupFold(t *testing.T, q *exec.Query, db *storage.Database, u *support.Update, after *result.Result) {
	t.Helper()
	tbl, err := q.NewGroupTable(db)
	if err != nil || tbl.Rel() != ast.LowerName(u.Rel) {
		return
	}
	in := make([]*exec.FoldRow, tbl.Len())
	for ri := range in {
		in[ri] = tbl.Row(ri)
	}
	pos := []int{u.Row1}
	if u.Swap {
		pos = append(pos, u.Row2)
	}
	for x, plus := range u.PlusRows(db) {
		fr, err := tbl.Eval(plus)
		if err != nil {
			t.Fatalf("%q / %+v: eval of the new tuple: %v", q.SQL, u, err)
		}
		in[pos[x]] = &fr
	}
	rows, err := tbl.Fold(in)
	if err != nil {
		t.Fatalf("%q / %+v: fold: %v", q.SQL, u, err)
	}
	if got := result.PartsOf(rows).Finish(); got != after.Hash() {
		t.Fatalf("%q / %+v: fold hash %x, the re-run's hash %x", q.SQL, u, got, after.Hash())
	}
}
