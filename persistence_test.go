package qirana

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// TestBrokerRestartKeepsPrices: a broker reloaded from a saved support set
// over the same database quotes identical prices — the restart story the
// paper solves by persisting UpdateQueries/UndoUpdateQueries.
func TestBrokerRestartKeepsPrices(t *testing.T) {
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBroker(db, 100, Options{SupportSetSize: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		"SELECT * FROM CountryLanguage",
	}
	want := make([]float64, len(queries))
	for i, sql := range queries {
		p, err := quote(b1, sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var buf bytes.Buffer
	if err := b1.SaveSupportSet(&buf); err != nil {
		t.Fatal(err)
	}

	b2, err := NewBrokerFromSupport(db, 100, &buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range queries {
		p, err := quote(b2, sql)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-want[i]) > 1e-9 {
			t.Errorf("%q: %g after restart, want %g", sql, p, want[i])
		}
	}
}

func TestAskWithRefundFlow(t *testing.T) {
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: 250, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := b.Purchase(context.Background(), PurchaseRequest{Buyer: "zoe", SQL: "SELECT Continent FROM Country", Refund: true})
	if err != nil {
		t.Fatal(err)
	}
	g1, r1 := rec1.Gross, rec1.Refund
	if r1 != 0 || g1 <= 0 {
		t.Fatalf("first purchase: gross %g refund %g", g1, r1)
	}
	// The determined histogram is fully refunded.
	rec2, err := b.Purchase(context.Background(), PurchaseRequest{Buyer: "zoe", SQL: "SELECT Continent, count(*) FROM Country GROUP BY Continent", Refund: true})
	if err != nil {
		t.Fatal(err)
	}
	g2, r2 := rec2.Gross, rec2.Refund
	if math.Abs(g2-r2) > 1e-9 {
		t.Fatalf("owned information not fully refunded: gross %g refund %g", g2, r2)
	}
	if math.Abs(b.TotalPaid("zoe")-g1) > 1e-9 {
		t.Fatalf("net paid %g, want %g", b.TotalPaid("zoe"), g1)
	}
}
