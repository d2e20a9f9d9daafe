package qirana

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentBrokerAccess hammers a broker from many goroutines mixing
// quotes, purchases and reads. Pricing applies support-set updates to the
// shared database in place, so this exercises the broker's serialization;
// run with -race to validate.
func TestConcurrentBrokerAccess(t *testing.T) {
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		"SELECT Population FROM Country WHERE ID < 50",
		"SELECT * FROM CountryLanguage WHERE IsOfficial = 'T'",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buyer := []string{"alice", "bob"}[g%2]
			for i := 0; i < 6; i++ {
				sql := queries[(g+i)%len(queries)]
				if g%2 == 0 {
					if _, err := quote(b, sql); err != nil {
						errs <- err
						return
					}
				} else {
					if _, _, err := ask(b, buyer, sql); err != nil {
						errs <- err
						return
					}
				}
				_ = b.TotalPaid(buyer)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The database must be back in its pristine state: quotes are
	// idempotent afterwards.
	p1, err := quote(b, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := quote(b, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("non-idempotent quotes after concurrency: %g vs %g", p1, p2)
	}
}
