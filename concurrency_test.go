package qirana

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentBrokerAccess hammers a broker from many goroutines mixing
// quotes, purchases and reads. Support elements evaluate over per-worker
// copy-on-write overlays, so the shared database is never written; after
// the storm quotes must still be idempotent. Run with -race.
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

// coldOp is one cold request of TestConcurrentColdSweepsMatchSerial: a
// query never priced before, sent down one serving path. Its result is
// the whole response, which must not depend on what else is sweeping.
type coldOp struct {
	path string
	run  func(ctx context.Context, b *Broker) (any, error)
}

// coldOps builds goroutine g's requests. Every literal embeds g, so no two
// goroutines share a cache key and every request sweeps.
func coldOps(g int) []coldOp {
	shannon, qentropy := ShannonEntropy, QEntropy
	price := func(req PriceRequest) func(context.Context, *Broker) (any, error) {
		return func(ctx context.Context, b *Broker) (any, error) { return b.Price(ctx, req) }
	}
	slice := func(req SweepSliceRequest) func(context.Context, *Broker) (any, error) {
		return func(ctx context.Context, b *Broker) (any, error) {
			req.SupportGen, req.SupportSum = b.SupportGen(), b.SupportChecksum()
			req.Lo, req.Hi = 0, b.SupportSetSize()*2/3
			return b.SweepSlice(ctx, req)
		}
	}
	pop := 1000000 * (g + 1)
	return []coldOp{
		{"fast path", price(PriceRequest{SQLs: []string{
			fmt.Sprintf("SELECT Name, Continent FROM Country WHERE Population > %d", pop)}})},
		{"naive", price(PriceRequest{SQLs: []string{
			fmt.Sprintf("SELECT Name FROM Country WHERE SurfaceArea > %d ORDER BY Population LIMIT 5", 1000*g)}})},
		{"entropy", price(PriceRequest{Func: &shannon, SQLs: []string{
			fmt.Sprintf("SELECT Continent, count(*) FROM Country WHERE Population > %d GROUP BY Continent", pop)}})},
		{"approx coverage", price(PriceRequest{MaxError: 0.2, SQLs: []string{
			fmt.Sprintf("SELECT Name FROM City WHERE Population > %d", 10000*(g+1))}})},
		{"approx entropy", price(PriceRequest{MaxError: 0.2, Func: &qentropy, SQLs: []string{
			fmt.Sprintf("SELECT Region FROM Country WHERE GNP > %d", 1000*(g+1))}})},
		{"batch", price(PriceRequest{SQLs: []string{
			fmt.Sprintf("SELECT Name FROM Country WHERE LifeExpectancy > %d", 40+g),
			fmt.Sprintf("SELECT Region, max(GNP) FROM Country WHERE Population > %d GROUP BY Region", pop),
		}})},
		{"bundle", price(PriceRequest{Bundle: true, SQLs: []string{
			fmt.Sprintf("SELECT Name FROM Country WHERE IndepYear > %d", 1800+10*g),
			fmt.Sprintf("SELECT Language FROM CountryLanguage WHERE Percentage > %d", 10+g),
		}})},
		{"slice bits", slice(SweepSliceRequest{SQLs: []string{
			fmt.Sprintf("SELECT Name FROM City WHERE Population > %d", 30000*(g+1)),
			fmt.Sprintf("SELECT Name FROM Country WHERE Population < %d", pop),
		}})},
		{"slice hashes", slice(SweepSliceRequest{Hashes: true, Bundle: true, SQLs: []string{
			fmt.Sprintf("SELECT Name FROM Country WHERE IndepYear < %d", 1900+10*g),
		}})},
	}
}

// TestConcurrentColdSweepsMatchSerial runs distinct cold queries from 8
// goroutines down every local sweep path — fast path, naive, entropy,
// approximate (both vector kinds), batch, bundle and shard slices (bits
// and hashes) — on a broker with four sweep slots and two intra-quote
// workers, and requires every response, prices and Stats included, to
// equal a serial, cache-off reference broker's bit for bit. It then reads
// the sweeps-in-flight high-water mark: at least two sweeps must have
// overlapped, and never more than the slots. Run with -race.
func TestConcurrentColdSweepsMatchSerial(t *testing.T) {
	const goroutines = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: 120, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var buf bytes.Buffer
	if err := b.SaveSupportSet(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := NewBrokerFromSupport(db, 100, &buf, Options{Seed: 9, QuoteCacheSize: QuoteCacheDisabled})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ctx := context.Background()

	want := make([][]any, goroutines)
	for g := range want {
		for _, op := range coldOps(g) {
			v, err := op.run(ctx, ref)
			if err != nil {
				t.Fatalf("reference %s: %v", op.path, err)
			}
			want[g] = append(want[g], v)
		}
	}

	got := make([][]any, goroutines)
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for _, op := range coldOps(g) {
				v, err := op.run(ctx, b)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", op.path, err)
					return
				}
				got[g] = append(got[g], v)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range want {
		for x, op := range coldOps(g) {
			if !reflect.DeepEqual(got[g][x], want[g][x]) {
				t.Errorf("goroutine %d %s: concurrent %+v, serial %+v", g, op.path, got[g][x], want[g][x])
			}
		}
	}

	m := b.Metrics()
	if hw := m.Counters["sweeps_inflight_max"]; hw < 2 || hw > 4 {
		t.Errorf("sweeps in flight peaked at %d, want 2..4 (4 slots, 8 goroutines)", hw)
	}
	if n := m.Latencies["sweep_wait"].Count; n < goroutines*uint64(len(coldOps(0))) {
		t.Errorf("sweep_wait observed %d slot acquisitions, want at least one per request", n)
	}
}
