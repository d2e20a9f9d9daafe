package qirana

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/support"
)

// TestSupportSetPreservesForeignKeys verifies a §3.1 property of the
// possible-database space I: because update values are drawn from the
// attribute's (active) domain, every neighboring instance still satisfies
// the world schema's foreign keys — City.CountryCode and
// CountryLanguage.CountryCode always reference an existing Country.
func TestSupportSetPreservesForeignKeys(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(800, 3))
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]bool{}
	for _, row := range db.Table("Country").Rows {
		codes[row[0].S] = true
	}
	cityFK := db.Table("City").Rel.AttrIndex("CountryCode")
	for _, el := range set.Elements {
		el.Apply(db)
		for i, row := range db.Table("City").Rows {
			if !codes[row[cityFK].S] {
				el.Undo(db)
				t.Fatalf("city row %d references unknown country %q in a neighbor", i, row[cityFK].S)
			}
		}
		el.Undo(db)
	}
}

// TestGoldenDeterminism pins the end-to-end price of a fixed scenario:
// same seed, same dataset, same query must price identically across runs
// and across the fast/naive paths. A change here means the reproduction's
// outputs shifted — intentional changes should update the constant.
func TestGoldenDeterminism(t *testing.T) {
	mk := func() *Broker {
		db, err := LoadDataset("world", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(db, 100, Options{SupportSetSize: 500, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := mk(), mk()
	const sql = "SELECT Name, Population FROM Country WHERE Continent = 'Europe'"
	p1, err := quote(b1, sql)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := quote(b2, sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("non-deterministic pricing: %v vs %v", p1, p2)
	}
	if p1 <= 0 || p1 >= 40 {
		t.Fatalf("price %g outside the plausible band for a continent slice", p1)
	}
}

// TestBuyerNeverOverpays is the framework's headline buyer guarantee,
// stressed over a long mixed session: cumulative history-aware payments
// stay monotone and never exceed the dataset price.
func TestBuyerNeverOverpays(t *testing.T) {
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	session := []string{
		"SELECT * FROM Country WHERE ID < 100",
		"SELECT * FROM Country",
		"SELECT * FROM City",
		"SELECT * FROM CountryLanguage",
		"SELECT Name, Language FROM Country, CountryLanguage WHERE Code = CountryCode",
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
	}
	prev := 0.0
	for _, sql := range session {
		if _, _, err := ask(b, "greedy", sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		paid := b.TotalPaid("greedy")
		if paid < prev-1e-9 {
			t.Fatalf("payments went down: %g after %g", paid, prev)
		}
		if paid > 100+1e-9 {
			t.Fatalf("buyer overpaid: %g", paid)
		}
		prev = paid
	}
	// After buying every relation, the full dataset is owned.
	if math.Abs(b.TotalPaid("greedy")-100) > 1e-6 {
		t.Fatalf("full ownership should cost exactly the dataset price, paid %g", b.TotalPaid("greedy"))
	}
	_, c, err := ask(b, "greedy", "SELECT SurfaceArea FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Fatalf("owner charged %g", c)
	}
}

func ExampleBroker_Price() {
	db, _ := LoadDataset("world", 1, 0)
	broker, _ := NewBroker(db, 100, Options{SupportSetSize: 400, Seed: 7})
	resp, _ := broker.Price(context.Background(), PriceRequest{SQLs: []string{
		"SELECT count(*) FROM Country", // cardinality is public
		"SELECT * FROM Country",
	}})
	free, full := resp.Prices[0], resp.Prices[1]
	fmt.Println(free == 0, full > 0, full <= 100)
	// Output: true true true
}

func ExampleBroker_Purchase() {
	db, _ := LoadDataset("world", 1, 0)
	broker, _ := NewBroker(db, 100, Options{SupportSetSize: 400, Seed: 7})
	ctx := context.Background()
	first, _ := broker.Purchase(ctx, PurchaseRequest{Buyer: "alice", SQL: "SELECT Continent, count(*) FROM Country GROUP BY Continent"})
	again, _ := broker.Purchase(ctx, PurchaseRequest{Buyer: "alice", SQL: "SELECT count(*) FROM Country WHERE Continent = 'Asia'"})
	fmt.Println(first.Net > 0, again.Net == 0)
	// Output: true true
}
