package qirana

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// twinBrokers builds a concurrent broker (quote cache on, parallel
// workers) and a serial cold-path reference broker (cache off, Workers=1)
// sharing one database and one support set, so every price the hammered
// broker returns can be checked against a cold serial computation.
func twinBrokers(t *testing.T, workers int) (*Broker, *Broker, *Database) {
	t.Helper()
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: 150, Seed: 5, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.SaveSupportSet(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := NewBrokerFromSupport(db, 100, &buf, Options{QuoteCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return b, ref, db
}

// TestConcurrentQuotesMatchColdSerial hammers Broker.Quote and Broker.Ask
// from 16 goroutines with a mix of repeated and per-goroutine fresh SQL,
// asserting every price and charge equals the serial cold-path reference
// bit for bit, and that the repeated queries actually hit the cache.
// Run with -race.
func TestConcurrentQuotesMatchColdSerial(t *testing.T) {
	const goroutines = 16
	b, ref, _ := twinBrokers(t, 4)

	repeated := []string{
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"select name from country where continent = 'Asia'", // fingerprint-equal variant
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		"SELECT * FROM CountryLanguage WHERE IsOfficial = 'T'",
	}
	fresh := func(g, i int) string {
		return fmt.Sprintf("SELECT Name FROM Country WHERE Population > %d", 100000*(g*8+i)+1)
	}

	// Cold serial references, computed up front on the twin.
	wantQuote := make(map[string]float64)
	for _, sql := range repeated {
		p, err := quote(ref, sql)
		if err != nil {
			t.Fatal(err)
		}
		wantQuote[sql] = p
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < 4; i++ {
			sql := fresh(g, i)
			p, err := quote(ref, sql)
			if err != nil {
				t.Fatal(err)
			}
			wantQuote[sql] = p
		}
	}
	// Per-buyer history-aware charge sequences on the reference twin; each
	// goroutine owns one buyer, so the sequence is deterministic.
	wantCharge := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		buyer := fmt.Sprintf("ref-%d", g)
		for i := 0; i < 4; i++ {
			_, c, err := ask(ref, buyer, repeated[(g+i)%len(repeated)])
			if err != nil {
				t.Fatal(err)
			}
			wantCharge[g] = append(wantCharge[g], c)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buyer := fmt.Sprintf("buyer-%d", g)
			for i := 0; i < 4; i++ {
				// Repeated quote: must match cold serial exactly.
				sql := repeated[(g+i)%len(repeated)]
				p, err := quote(b, sql)
				if err != nil {
					errs <- err
					return
				}
				if p != wantQuote[sql] {
					errs <- fmt.Errorf("quote %q = %g, cold serial = %g", sql, p, wantQuote[sql])
					return
				}
				// Fresh quote: unique to this goroutine, always a miss.
				sql = fresh(g, i)
				if p, err = quote(b, sql); err != nil {
					errs <- err
					return
				}
				if p != wantQuote[sql] {
					errs <- fmt.Errorf("quote %q = %g, cold serial = %g", sql, p, wantQuote[sql])
					return
				}
				// Purchase: history-aware charge must match the reference
				// buyer's sequence.
				_, c, err := ask(b, buyer, repeated[(g+i)%len(repeated)])
				if err != nil {
					errs <- err
					return
				}
				if c != wantCharge[g][i] {
					errs <- fmt.Errorf("charge %d/%d = %g, cold serial = %g", g, i, c, wantCharge[g][i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := b.QuoteCacheStats()
	if s.Hits == 0 {
		t.Errorf("expected cache hits from repeated quotes, got %+v", s)
	}
	if s.Misses == 0 {
		t.Errorf("expected cache misses from fresh quotes, got %+v", s)
	}
}

// TestBatchQuoteMatchesSolo prices a batch (with duplicates and
// fingerprint-equal variants) through the shared sweep and checks every
// price against a solo cold quote, for a coverage and an entropy
// function.
func TestBatchQuoteMatchesSolo(t *testing.T) {
	b, ref, db := twinBrokers(t, 2)
	batch := []string{
		"SELECT Name FROM Country WHERE Continent = 'Asia'",
		"SELECT Population FROM Country WHERE ID < 50",
		"select name from country where continent = 'Asia'", // dup by fingerprint
		"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		"SELECT * FROM CountryLanguage WHERE IsOfficial = 'T'",
	}
	ctx := context.Background()
	fns := []PricingFunc{WeightedCoverage, UniformEntropyGain, ShannonEntropy, QEntropy}
	for _, fn := range fns {
		got, err := b.Price(ctx, PriceRequest{SQLs: batch, Func: &fn})
		if err != nil {
			t.Fatal(err)
		}
		for j, sql := range batch {
			want, err := ref.Price(ctx, PriceRequest{SQLs: []string{sql}, Func: &fn})
			if err != nil {
				t.Fatal(err)
			}
			if got.Prices[j] != want.Total {
				t.Errorf("%v batch[%d] = %g, solo cold = %g", fn, j, got.Prices[j], want.Total)
			}
			if got.PerQuery[j].Stats != want.Stats {
				t.Errorf("%v batch[%d] stats %+v, solo cold %+v", fn, j, got.PerQuery[j].Stats, want.Stats)
			}
		}
	}

	// Approximate batches price each query through the solo sampled
	// path. The sample mask is keyed by the broker seed, so the solo
	// reference shares b's seed (and its support set). The refiner may
	// upgrade a batch entry (the duplicate hits its twin's entry) to
	// the exact price while the batch runs; such an entry must serve
	// the exact price, with the sampled sweep's Stats.
	var buf bytes.Buffer
	if err := b.SaveSupportSet(&buf); err != nil {
		t.Fatal(err)
	}
	sampled, err := NewBrokerFromSupport(db, 100, &buf, Options{QuoteCacheSize: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range fns {
		got, err := b.Price(ctx, PriceRequest{SQLs: batch, Func: &fn, MaxError: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for j, sql := range batch {
			want, err := sampled.Price(ctx, PriceRequest{SQLs: []string{sql}, Func: &fn, MaxError: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			info := got.PerQuery[j]
			if info.Estimate == nil || want.PerQuery[0].Estimate == nil || want.PerQuery[0].Estimate.SampleFrac >= 1 {
				t.Fatalf("%v batch[%d]: not a sampled quote: %+v vs solo %+v", fn, j, info.Estimate, want.PerQuery[0].Estimate)
			}
			wantPrice := want.Total
			if info.Estimate.Refined {
				exact, err := ref.Price(ctx, PriceRequest{SQLs: []string{sql}, Func: &fn})
				if err != nil {
					t.Fatal(err)
				}
				wantPrice = exact.Total
			}
			if got.Prices[j] != wantPrice {
				t.Errorf("%v approx batch[%d] = %g, solo = %g (refined %v)", fn, j, got.Prices[j], wantPrice, info.Estimate.Refined)
			}
			if info.Stats != want.Stats {
				t.Errorf("%v approx batch[%d] stats %+v, solo %+v", fn, j, info.Stats, want.Stats)
			}
		}
	}
}

// TestMutationInvalidatesQuotes verifies both invalidation channels: a
// point update to the database (table version counters move) and a weight
// refit (weights epoch moves) must each reprice cached queries.
func TestMutationInvalidatesQuotes(t *testing.T) {
	b, ref, db := twinBrokers(t, 2)
	sql := "SELECT Name FROM Country WHERE Population > 100000000"

	p0, err := quote(b, sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1, _ := quote(b, sql); p1 != p0 {
		t.Fatalf("warm quote %g != first quote %g", p1, p0)
	}

	// Point update: push a country over the predicate threshold.
	country := db.Table("Country")
	country.Set(3, 7, NewInt(200000000)) // attr 7 = Population
	got, err := quote(b, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := quote(ref, sql) // cache-less twin cold-computes on the mutated db
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after point update: cached broker %g, cold %g", got, want)
	}

	// Weight refit: scale two elements' weights, keeping the sum.
	w := make([]float64, b.SupportSetSize())
	per := 100 / float64(len(w))
	for i := range w {
		w[i] = per
	}
	w[0], w[1] = per*1.5, per*0.5
	if err := b.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	got, err = quote(b, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err = quote(ref, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after weight refit: cached broker %g, cold %g", got, want)
	}
}
