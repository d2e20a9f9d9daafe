package disagree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// randomQuery builds a random fast-path-eligible query over the Cust/Ord
// test schema: random projections or aggregates, random predicates with
// comparison operators, IN lists, BETWEEN, LIKE and OR-combinations.
func randomQuery(rng *rand.Rand) string {
	var preds []string
	addPred := func() {
		switch rng.Intn(7) {
		case 0:
			preds = append(preds, fmt.Sprintf("score %s %d", pickOp(rng), rng.Intn(50)))
		case 1:
			preds = append(preds, fmt.Sprintf("tier = %d", rng.Intn(3)))
		case 2:
			preds = append(preds, fmt.Sprintf("city = '%s'", pickCity(rng)))
		case 3:
			preds = append(preds, fmt.Sprintf("score BETWEEN %d AND %d", rng.Intn(20), 20+rng.Intn(30)))
		case 4:
			preds = append(preds, fmt.Sprintf("city IN ('%s', '%s')", pickCity(rng), pickCity(rng)))
		case 5:
			preds = append(preds, "city LIKE '"+string([]byte{byte('a' + rng.Intn(26))})+"%'")
		case 6:
			preds = append(preds, fmt.Sprintf("(tier = %d OR score > %d)", rng.Intn(3), rng.Intn(50)))
		}
	}
	for i := 0; i <= rng.Intn(3); i++ {
		addPred()
	}
	where := ""
	if len(preds) > 0 {
		where = " WHERE " + strings.Join(preds, " AND ")
	}

	join := rng.Intn(3) == 0
	agg := rng.Intn(2) == 0
	if join {
		jw := " WHERE Cust.cid = Ord.cid"
		if len(preds) > 0 {
			jw += " AND " + strings.Join(preds, " AND ")
		}
		if agg {
			aggExpr := pickAgg(rng, "amount")
			return "SELECT city, " + aggExpr + " FROM Cust, Ord" + jw + " GROUP BY city"
		}
		return "SELECT city, status FROM Cust, Ord" + jw
	}
	if agg {
		aggs := []string{pickAgg(rng, "score")}
		if rng.Intn(2) == 0 {
			aggs = append(aggs, pickAgg(rng, "score"))
		}
		if rng.Intn(2) == 0 {
			return "SELECT " + strings.Join(aggs, ", ") + " FROM Cust" + where
		}
		return "SELECT city, " + strings.Join(aggs, ", ") + " FROM Cust" + where + " GROUP BY city"
	}
	cols := []string{"city", "tier", "score"}
	n := 1 + rng.Intn(3)
	return "SELECT " + strings.Join(cols[:n], ", ") + " FROM Cust" + where
}

func pickOp(rng *rand.Rand) string {
	return []string{"<", "<=", ">", ">=", "=", "<>"}[rng.Intn(6)]
}

func pickCity(rng *rand.Rand) string {
	return []string{"ny", "sf", "la", "chi"}[rng.Intn(4)]
}

func pickAgg(rng *rand.Rand, col string) string {
	switch rng.Intn(5) {
	case 0:
		return "count(*)"
	case 1:
		return "sum(" + col + ")"
	case 2:
		return "avg(" + col + ")"
	case 3:
		return "min(" + col + ")"
	}
	return "max(" + col + ")"
}

// TestDifferentialRandomTemplates fuzzes the fast path against brute
// force over randomly generated eligible queries.
func TestDifferentialRandomTemplates(t *testing.T) {
	db := testDB(101, 30, 90)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(150, 55))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))
	tried := 0
	for i := 0; i < 60; i++ {
		sql := randomQuery(rng)
		q, err := exec.Compile(sql, db.Schema)
		if err != nil {
			t.Fatalf("generated invalid SQL %q: %v", sql, err)
		}
		c, err := New(q, db)
		if err != nil {
			continue // template produced something ineligible; fine
		}
		tried++
		batch, _, err := batch1(c, set.Updates, nil)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		one, _, err := each(c, set.Updates, nil)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for j, u := range set.Updates {
			want := naiveDisagree(t, q, db, u)
			if batch[j] != want {
				t.Fatalf("query %q update %+v: fast %v naive %v", sql, u, batch[j], want)
			}
			if one[j] != want {
				t.Fatalf("query %q update %+v: individual %v naive %v", sql, u, one[j], want)
			}
		}
	}
	if tried < 30 {
		t.Fatalf("only %d eligible random queries; generator too narrow", tried)
	}
}
