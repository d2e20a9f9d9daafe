package qirana

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The broker's cancellation contract (api.go): a cancelled Price or
// Purchase returns ctx.Err() promptly, leaves the buyer's history and
// TotalPaid untouched, never stores a partial result in the quote cache,
// and a follow-up uncancelled call prices bit-identically to a broker
// that never saw the cancellation.

func newCancelBroker(t *testing.T, size int) *Broker {
	t.Helper()
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(db, 100, Options{SupportSetSize: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const cancelSQL = `SELECT Name FROM Country WHERE Continent = 'Asia'`

// midSweepSQL is the query of the tests that must catch a sweep in
// flight: ORDER BY + LIMIT keeps it off the fast path, so it is
// re-executed per support element and its sweep outlives a deadline or
// a cancellation a few milliseconds away however fast the batched sweep
// gets.
const midSweepSQL = cancelSQL + ` ORDER BY Name LIMIT 50`

func TestPriceCancelledContext(t *testing.T) {
	b := newCancelBroker(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := b.Price(ctx, PriceRequest{SQLs: []string{cancelSQL}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := b.QuoteCacheLen(); n != 0 {
		t.Fatalf("cancelled quote left %d cache entries", n)
	}

	// The follow-up uncancelled call prices bit-identically to a fresh
	// broker that never saw a cancellation.
	resp, err := b.Price(context.Background(), PriceRequest{SQLs: []string{cancelSQL}})
	if err != nil {
		t.Fatal(err)
	}
	fresh := newCancelBroker(t, 400)
	want, err := fresh.Price(context.Background(), PriceRequest{SQLs: []string{cancelSQL}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != want.Total {
		t.Fatalf("post-cancel price %v != fresh-broker price %v", resp.Total, want.Total)
	}
	if resp.PerQuery[0].Cached {
		t.Fatalf("post-cancel quote claims cache provenance; the cancelled call must not have cached")
	}
}

func TestPriceDeadlineMidSweep(t *testing.T) {
	b := newCancelBroker(t, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := b.Price(ctx, PriceRequest{SQLs: []string{midSweepSQL}})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("sweep finished inside the deadline; mid-sweep abort not exercised")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// "Promptly": the sweep aborts between elements, so the call must
	// return orders of magnitude before a full sweep would (a generous
	// bound; the sweep itself takes well under this anyway).
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled call took %v to return", elapsed)
	}
	if n := b.QuoteCacheLen(); n != 0 {
		t.Fatalf("aborted sweep left %d cache entries", n)
	}

	resp, err := b.Price(context.Background(), PriceRequest{SQLs: []string{midSweepSQL}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total <= 0 || resp.PerQuery[0].Cached {
		t.Fatalf("post-abort quote: %+v", resp.PerQuery[0])
	}
}

func TestPurchaseCancelledLeavesNoCharge(t *testing.T) {
	b := newCancelBroker(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := b.Purchase(ctx, PurchaseRequest{Buyer: "alice", SQL: cancelSQL})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paid := b.TotalPaid("alice"); paid != 0 {
		t.Fatalf("cancelled purchase charged %v", paid)
	}
	if n := b.QuoteCacheLen(); n != 0 {
		t.Fatalf("cancelled purchase left %d cache entries", n)
	}

	// The identical purchase on a fresh broker fixes the expected charge;
	// the cancelled broker must reproduce it bit-for-bit.
	fresh := newCancelBroker(t, 400)
	want, err := fresh.Purchase(context.Background(), PurchaseRequest{Buyer: "alice", SQL: cancelSQL})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := b.Purchase(context.Background(), PurchaseRequest{Buyer: "alice", SQL: cancelSQL})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Net != want.Net || rec.Balance != want.Balance {
		t.Fatalf("post-cancel purchase (net %v, balance %v) != fresh (net %v, balance %v)",
			rec.Net, rec.Balance, want.Net, want.Balance)
	}
	if b.TotalPaid("alice") != fresh.TotalPaid("alice") {
		t.Fatalf("TotalPaid diverged: %v vs %v", b.TotalPaid("alice"), fresh.TotalPaid("alice"))
	}
}

// TestPurchaseCancelMidSweep cancels while the support-set sweep is in
// flight (not before): the call must return ctx.Err() and the buyer's
// balance must not move, even though real pricing work was under way.
func TestPurchaseCancelMidSweep(t *testing.T) {
	b := newCancelBroker(t, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Purchase(ctx, PurchaseRequest{Buyer: "bob", SQL: midSweepSQL})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the sweep start
	cancel()
	err := <-done
	if err == nil {
		t.Skip("sweep finished before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paid := b.TotalPaid("bob"); paid != 0 {
		t.Fatalf("mid-sweep cancellation charged %v", paid)
	}

	// The broker still works and the charge matches a fresh broker.
	rec, err := b.Purchase(context.Background(), PurchaseRequest{Buyer: "bob", SQL: midSweepSQL})
	if err != nil {
		t.Fatal(err)
	}
	fresh := newCancelBroker(t, 3000)
	want, err := fresh.Purchase(context.Background(), PurchaseRequest{Buyer: "bob", SQL: midSweepSQL})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Net != want.Net {
		t.Fatalf("post-cancel charge %v != fresh charge %v", rec.Net, want.Net)
	}
}

// TestCancelledBatchLeavesCacheClean aborts a shared multi-query sweep
// and verifies no partial per-query entry leaked into the cache.
func TestCancelledBatchLeavesCacheClean(t *testing.T) {
	b := newCancelBroker(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sqls := []string{
		cancelSQL,
		`SELECT Name FROM Country WHERE Population > 100000000`,
		`SELECT Name FROM City WHERE Population > 5000000`,
	}
	_, err := b.Price(ctx, PriceRequest{SQLs: sqls})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := b.QuoteCacheLen(); n != 0 {
		t.Fatalf("aborted batch left %d cache entries", n)
	}
	resp, err := b.Price(context.Background(), PriceRequest{SQLs: sqls})
	if err != nil {
		t.Fatal(err)
	}
	for j, pq := range resp.PerQuery {
		if pq.Cached {
			t.Fatalf("query %d claims cache provenance after an aborted batch", j)
		}
	}
}
