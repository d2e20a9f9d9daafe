package exec_test

import (
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
	"qirana/internal/value"
)

// BenchmarkRunOverride measures the residual-check hot path of the
// disagreement checker: the same compiled join query executed over and
// over with one relation replaced by a two-row override (the u⁻/u⁺ runs
// of paper §4.1). The per-run cost of rebuilding the other relations'
// filters and hash-join build sides — amortized away by the execution
// index cache — dominates this loop.
func BenchmarkRunOverride(b *testing.B) {
	db := datagen.World(1)
	q := exec.MustCompile(
		"SELECT * FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage < 80",
		db.Schema)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(64, 7))
	if err != nil {
		b.Fatal(err)
	}
	// Overrides drawn from support updates on CountryLanguage, as the
	// checker's compare checks produce them.
	var ovs []exec.Overrides
	for _, u := range set.Updates {
		if !u.Touches("CountryLanguage") {
			continue
		}
		ovs = append(ovs, exec.Overrides{"countrylanguage": u.PlusRows(db)})
	}
	if len(ovs) == 0 {
		b.Fatal("no CountryLanguage updates in support set")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.RunOverride(db, ovs[i%len(ovs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDelta measures the explicit delta path: only the ± rows of
// the updated relation flow through the join pipeline, probing the cached
// indexes of the untouched relations.
func BenchmarkRunDelta(b *testing.B) {
	db := datagen.World(1)
	q := exec.MustCompile(
		"SELECT * FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage < 80",
		db.Schema)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(64, 7))
	if err != nil {
		b.Fatal(err)
	}
	var us []*support.Update
	for _, u := range set.Updates {
		if u.Touches("CountryLanguage") {
			us = append(us, u)
		}
	}
	if len(us) == 0 {
		b.Fatal("no CountryLanguage updates in support set")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us[i%len(us)]
		if _, _, err := q.RunDelta(db, "CountryLanguage", u.MinusRows(db), u.PlusRows(db)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTagged measures one §4.2 tagged batch query: the join query
// run once with CountryLanguage replaced by the u⁺ tuples of every
// CountryLanguage update of the support set, each extended by its upid,
// and the output grouped per upid.
func BenchmarkRunTagged(b *testing.B) {
	db := datagen.World(1)
	q := exec.MustCompile(
		"SELECT * FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage < 80",
		db.Schema)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(256, 7))
	if err != nil {
		b.Fatal(err)
	}
	var tagged [][]value.Value
	for i, u := range set.Updates {
		if !u.Touches("CountryLanguage") {
			continue
		}
		for _, row := range u.PlusRows(db) {
			tagged = append(tagged, append(row, value.NewInt(int64(i))))
		}
	}
	if len(tagged) == 0 {
		b.Fatal("no CountryLanguage updates in support set")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.RunTagged(db, "CountryLanguage", tagged); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupRefold measures one group refold of the entropy sweep:
// the world per-continent group-by re-aggregated for a LifeExpectancy swap
// between rows of two continents. Each op evaluates the two new tuples
// and folds the two continents' rows, in base order with the new tuples
// at their positions, through GroupTable.Fold; the other rows' fold input
// comes from the table built once before the loop.
func BenchmarkGroupRefold(b *testing.B) {
	db := datagen.World(1)
	q := exec.MustCompile(
		"SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > 0 GROUP BY Continent",
		db.Schema)
	tbl, err := q.NewGroupTable(db)
	if err != nil {
		b.Fatal(err)
	}
	rel := db.Schema.Relation("Country")
	life := rel.AttrIndex("LifeExpectancy")
	country := db.Table("Country")
	// The first row and the first row of another continent.
	r1, r2 := 0, -1
	for i := range country.Rows {
		if tbl.Row(i).Key != tbl.Row(r1).Key {
			r2 = i
			break
		}
	}
	if r2 < 0 {
		b.Fatal("world has one continent")
	}
	v1, v2 := country.Get(r1, life), country.Get(r2, life)
	u := &support.Update{Rel: "Country", Swap: true, Row1: r1, Row2: r2, Attrs: []int{life},
		Old1: []value.Value{v1}, New1: []value.Value{v2}, Old2: []value.Value{v2}, New2: []value.Value{v1}}
	plus := u.PlusRows(db)
	var idx []int
	for i := range country.Rows {
		if k := tbl.Row(i).Key; k == tbl.Row(r1).Key || k == tbl.Row(r2).Key {
			idx = append(idx, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, err := tbl.Eval(plus[0])
		if err != nil {
			b.Fatal(err)
		}
		p2, err := tbl.Eval(plus[1])
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]*exec.FoldRow, len(idx))
		for x, ri := range idx {
			switch ri {
			case r1:
				rows[x] = &p1
			case r2:
				rows[x] = &p2
			default:
				rows[x] = tbl.Row(ri)
			}
		}
		if _, err := tbl.Fold(rows); err != nil {
			b.Fatal(err)
		}
	}
}
