package qirana

import (
	"context"
	"math"
	"strings"
	"testing"
)

// quote prices one query through Price under the broker's default
// pricing function.
func quote(b *Broker, sql string) (float64, error) {
	resp, err := b.Price(context.Background(), PriceRequest{SQLs: []string{sql}})
	if err != nil {
		return 0, err
	}
	return resp.Total, nil
}

// ask buys one query through Purchase and returns the answer plus the net
// (incremental, history-aware) charge.
func ask(b *Broker, buyer, sql string) (*Result, float64, error) {
	rec, err := b.Purchase(context.Background(), PurchaseRequest{Buyer: buyer, SQL: sql})
	if err != nil {
		return nil, 0, err
	}
	return rec.Result, rec.Net, nil
}

func worldBroker(t testing.TB, size int) *Broker {
	t.Helper()
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: size, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrokerQuote(t *testing.T) {
	b := worldBroker(t, 300)
	full, err := quote(b, "SELECT * FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	small, err := quote(b, "SELECT Name FROM Country WHERE ID < 10")
	if err != nil {
		t.Fatal(err)
	}
	if small >= full {
		t.Fatalf("selective query (%g) should cost less than the relation (%g)", small, full)
	}
	if full > 100+1e-9 {
		t.Fatalf("relation cannot cost more than the dataset: %g", full)
	}
}

// TestExample11 walks the paper's running example (Example 1.1): the
// arbitrage orderings the broker must guarantee.
func TestExample11Arbitrage(t *testing.T) {
	b := worldBroker(t, 400)
	// Q1 = count of one gender; Q2 = counts of all genders. Q2 determines
	// Q1, so p(Q1) <= p(Q2). Our world stand-ins: Continent plays gender.
	p1, err := quote(b, "SELECT count(*) FROM Country WHERE Continent = 'Asia'")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := quote(b, "SELECT Continent, count(*) FROM Country GROUP BY Continent")
	if err != nil {
		t.Fatal(err)
	}
	if p1 > p2+1e-9 {
		t.Fatalf("information arbitrage: p(Q1)=%g > p(Q2)=%g", p1, p2)
	}
	// AVG is determined by (SUM, COUNT): p(Q3) <= p(Q2') + p(Q4) with
	// bundle subadditivity.
	p3, err := quote(b, "SELECT AVG(Population) FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := quote(b, "SELECT count(*) FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	p4, err := quote(b, "SELECT SUM(Population) FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	if p3 > pc+p4+1e-9 {
		t.Fatalf("arbitrage: p(AVG)=%g > p(COUNT)+p(SUM)=%g", p3, pc+p4)
	}
}

func TestBrokerAskHistory(t *testing.T) {
	b := worldBroker(t, 300)
	res, c1, err := ask(b, "alice", "SELECT Continent, count(*) FROM Country GROUP BY Continent")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || c1 <= 0 {
		t.Fatalf("first purchase: %d rows, charge %g", res.Len(), c1)
	}
	// The overlapping count query is now free (the paper's Q5 moment).
	_, c2, err := ask(b, "alice", "SELECT count(*) FROM Country WHERE Continent = 'Asia'")
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("already-covered query should be free, charged %g", c2)
	}
	if math.Abs(b.TotalPaid("alice")-(c1+c2)) > 1e-9 {
		t.Fatalf("TotalPaid mismatch")
	}
	// A different buyer pays full price.
	_, c3, err := ask(b, "bob", "SELECT count(*) FROM Country WHERE Continent = 'Asia'")
	if err != nil {
		t.Fatal(err)
	}
	if c3 <= 0 {
		t.Fatal("bob has no history; the query should cost something")
	}
}

func TestBrokerPricePoints(t *testing.T) {
	b := worldBroker(t, 400)
	err := b.SetPricePoints([]PricePoint{
		{SQL: "SELECT * FROM Country", Price: 70},
		{SQL: "SELECT * FROM Tweet", Price: 0}, // unknown table
	})
	if err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("want compile error, got %v", err)
	}
	if err := b.SetPricePoints([]PricePoint{{SQL: "SELECT * FROM Country", Price: 70}}); err != nil {
		t.Fatal(err)
	}
	p, err := quote(b, "SELECT * FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-70) > 0.01 {
		t.Fatalf("price point not honored: %g", p)
	}
}

func TestBrokerBundle(t *testing.T) {
	b := worldBroker(t, 200)
	resp, err := b.Price(context.Background(), PriceRequest{Bundle: true, SQLs: []string{
		"SELECT Name FROM Country WHERE ID < 100",
		"SELECT Population FROM Country WHERE ID < 100",
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := resp.Total
	p1, _ := quote(b, "SELECT Name FROM Country WHERE ID < 100")
	p2, _ := quote(b, "SELECT Population FROM Country WHERE ID < 100")
	if p > p1+p2+1e-9 {
		t.Fatalf("bundle arbitrage: %g > %g", p, p1+p2)
	}
}

func TestLoadDatasets(t *testing.T) {
	for _, name := range []string{"world", "carcrash", "dblp", "tpch", "ssb"} {
		db, err := LoadDataset(name, 3, smallScale(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if db.TotalRows() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if _, err := LoadDataset("nope", 1, 0); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func smallScale(name string) float64 {
	switch name {
	case "carcrash":
		return 2000
	case "world":
		return 0
	}
	return 0.001
}

func TestBrokerErrors(t *testing.T) {
	db, _ := LoadDataset("world", 1, 0)
	if _, err := NewBroker(db, 0, Options{}); err == nil {
		t.Fatal("zero price must be rejected")
	}
	b := worldBroker(t, 100)
	if _, err := quote(b, "SELEC nonsense"); err == nil {
		t.Fatal("syntax error must surface")
	}
	if _, err := quote(b, "SELECT missing FROM Country"); err == nil {
		t.Fatal("unknown column must surface")
	}
}
