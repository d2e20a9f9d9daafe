// Analyst: a data-market session over the SSB star schema showing
// history-aware pricing at work (the scenario behind the paper's
// Figures 4e-4g).
//
// An analyst explores revenue by year, drilling into months and discount
// bands. Every query is priced against what she already bought: overlap
// is free, and the running total can never exceed the dataset price no
// matter how many queries she asks.
//
//	go run ./examples/analyst
package main

import (
	"context"
	"fmt"
	"log"

	"qirana"
)

func main() {
	db, err := qirana.LoadDataset("ssb", 7, 0.002)
	if err != nil {
		log.Fatal(err)
	}
	broker, err := qirana.NewBroker(db, 1000, qirana.Options{SupportSetSize: 800, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSB loaded: %d tuples; dataset price $%.0f\n\n", db.TotalRows(), broker.TotalPrice())

	session := []string{
		// Broad revenue overview.
		`select d_year, sum(lo_revenue) from lineorder, date
		 where lo_orderdate = d_datekey group by d_year`,
		// Drill into 1994 by month: partially covered by the overview.
		`select d_yearmonthnum, sum(lo_revenue) from lineorder, date
		 where lo_orderdate = d_datekey and d_year = 1994 group by d_yearmonthnum`,
		// The classic flight Q1.1.
		`select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date
		 where lo_orderdate = d_datekey and d_year = 1993
		 and lo_discount between 1 and 3 and lo_quantity < 25`,
		// Re-asking the overview is free.
		`select d_year, sum(lo_revenue) from lineorder, date
		 where lo_orderdate = d_datekey group by d_year`,
		// Customer-region profitability.
		`select c_region, sum(lo_revenue - lo_supplycost) from lineorder, customer
		 where lo_custkey = c_custkey group by c_region`,
	}
	ctx := context.Background()
	// Each query is quoted up front, then bought. The quote's price is what
	// a history-oblivious seller would charge; its Stats say how the
	// support set was swept (the purchase reuses that sweep's bitmap).
	oblivious := 0.0
	for i, sql := range session {
		quote, err := broker.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}})
		if err != nil {
			log.Fatal(err)
		}
		oblivious += quote.Total
		rec, err := broker.Purchase(ctx, qirana.PurchaseRequest{Buyer: "analyst", SQL: sql})
		if err != nil {
			log.Fatal(err)
		}
		s := quote.Stats
		fmt.Printf("query %d: %3d rows, charged $%7.2f (running total $%7.2f)\n",
			i+1, rec.Result.Len(), rec.Net, broker.TotalPaid("analyst"))
		fmt.Printf("         pricing work: %d static, %d batched, %d full runs\n",
			s.Static, s.Batched, s.FullRuns)
	}
	fmt.Printf("\nhistory-aware total:     $%7.2f\n", broker.TotalPaid("analyst"))
	fmt.Printf("history-oblivious total: $%7.2f (what a refundless market would charge)\n", oblivious)
}
