// Quickstart: load a dataset, open a broker, quote and buy queries.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"qirana"
)

func main() {
	// The seller offers the `world` dataset for $100.
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	broker, err := qirana.NewBroker(db, 100, qirana.Options{
		SupportSetSize: 1000, // finer prices cost more pricing time (Fig. 4d)
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Up-front quotes: prices can be disclosed before buying.
	for _, sql := range []string{
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		"SELECT * FROM Country",
		"SELECT count(*) FROM Country", // cardinality is public: free
	} {
		resp, err := broker.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("$%6.2f  %s\n", resp.Total, sql)
	}

	// A caller can ask for an approximate quote (say, over a huge support
	// set): MaxError trades precision for speed, and the served price is
	// a guaranteed upper bound on the exact price — never an undercharge.
	approx, err := broker.Price(ctx, qirana.PriceRequest{
		SQLs:     []string{"SELECT Name FROM Country WHERE Population > 50000000"},
		MaxError: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if est := approx.PerQuery[0].Estimate; est != nil {
		fmt.Printf("$%6.2f  (approximate: sampled %.0f%% of the support set, ±$%.2f)\n",
			approx.Total, est.SampleFrac*100, est.CI)
	}

	// A purchase returns the answer and charges the buyer's account,
	// history-aware: repeated information is never paid for twice.
	rec, err := broker.Purchase(ctx, qirana.PurchaseRequest{
		Buyer: "alice",
		SQL:   "SELECT Name, Population FROM Country WHERE Continent = 'Asia'",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalice bought %d rows for $%.2f\n", rec.Result.Len(), rec.Net)

	rec2, err := broker.Purchase(ctx, qirana.PurchaseRequest{
		Buyer: "alice",
		SQL:   "SELECT Name FROM Country WHERE Continent = 'Asia'",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the projection of what she already owns costs $%.2f\n", rec2.Net)
	fmt.Printf("alice has paid $%.2f of the $%.2f dataset price\n",
		broker.TotalPaid("alice"), broker.TotalPrice())
}
