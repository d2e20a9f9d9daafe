package disagree

import (
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
)

// coldAdhocShapes are the twelve world shapes of internal/pricing's
// TestStatsPartition, one per ad-hoc shape the socket benchmark's
// cold_adhoc workload draws.
var coldAdhocShapes = []string{
	"SELECT Name, Population FROM Country WHERE Population > 38740542",
	"SELECT Name, District FROM City WHERE Population BETWEEN 500000 AND 2500000",
	"SELECT Name, Region, GNP FROM Country WHERE SurfaceArea > 650000.5",
	"SELECT C.Name, L.Language FROM Country C, CountryLanguage L WHERE C.Code = L.CountryCode AND L.Percentage < 40.50 AND C.Population > 20000000",
	"SELECT C.Name, T.Name FROM Country C, City T WHERE C.Code = T.CountryCode AND T.Population > 2000000",
	"SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > 0 GROUP BY Continent",
	"SELECT CountryCode, sum(Population) FROM City WHERE Population > 1000000 GROUP BY CountryCode",
	"SELECT DISTINCT GovernmentForm FROM Country WHERE Population < 50000000",
	"SELECT DISTINCT Language FROM CountryLanguage WHERE Percentage > 20.500",
	"SELECT max(Population) FROM City WHERE ID > 1000 AND Population < 5000000",
	"SELECT Region, min(LifeExpectancy) FROM Country WHERE SurfaceArea > 100000.5 GROUP BY Region",
	"SELECT A.Name, B.Name FROM Country A, Country B WHERE A.Region = B.Region AND A.ID < B.ID AND A.Population > 50000000 AND B.Population > 10000000",
}

// TestUnreadColumnsAgree pins the read rule of classify: an element that
// writes only columns the query never reads, at any occurrence of its
// relation, is a static Agree, and re-running the query over it gives
// the base Result.Hash bit for bit. It checks every cold_adhoc shape at
// |S| = 400, plus two edge cases: COUNT(*) reads nothing, so every
// element agrees; SELECT * reads everything, so the rule catches no
// element of its relation and, with no WHERE, none of them agrees.
func TestUnreadColumnsAgree(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := storage.NewOverlay(db)
	const countStar, selectStar = "SELECT count(*) FROM Country", "SELECT * FROM City"
	caught := 0
	for _, sql := range append(coldAdhocShapes, countStar, selectStar) {
		q := exec.MustCompile(sql, db.Schema)
		c, err := New(q, db)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		base, err := q.Run(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range set.Updates {
			srcs, ok := c.srcsOf[u.LowerRel()]
			unread := ok && !c.readsAny(u, srcs)
			out := c.Classify(u)
			switch {
			case sql == countStar && out != Agree:
				t.Fatalf("%q / %+v: %v, want Agree", sql, u, out)
			case sql == selectStar && ok && (unread || out == Agree):
				t.Fatalf("%q / %+v: unread %v, outcome %v; SELECT * reads every column", sql, u, unread, out)
			case !unread:
				continue
			case out != Agree:
				t.Fatalf("%q / %+v writes only unread columns, classified %v", sql, u, out)
			}
			caught++
			u.ApplyOverlay(o)
			after, err := q.RunOverride(db, o.Overrides())
			u.UndoOverlay(o)
			if err != nil {
				t.Fatal(err)
			}
			if after.Hash() != base.Hash() {
				t.Fatalf("%q / %+v writes only unread columns, but the re-run's hash %x differs from the base hash %x", sql, u, after.Hash(), base.Hash())
			}
		}
	}
	if caught == 0 {
		t.Fatal("the read rule caught no element")
	}
}
