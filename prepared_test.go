package qirana

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"qirana/internal/sqlengine/ast"
)

func TestPrepareErrors(t *testing.T) {
	b := worldBroker(t, 100)
	ctx := context.Background()
	if _, err := b.Prepare(ctx, "SELEC nonsense"); err == nil {
		t.Fatal("syntax error must surface from Prepare")
	}
	if _, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > $2"); err == nil || !strings.Contains(err.Error(), "$1") {
		t.Fatalf("non-contiguous params: want missing-$1 error, got %v", err)
	}
	if _, err := b.Prepare(ctx, "SELECT missing FROM Country WHERE ID = $1"); err == nil {
		t.Fatal("unknown column must surface from Prepare")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.Prepare(cctx, "SELECT Name FROM Country"); err == nil {
		t.Fatal("cancelled context must abort Prepare")
	}
}

// Placeholders are rejected at every runnable (non-prepared) entry point
// with a pointer at Prepare.
func TestAdHocRejectsPlaceholders(t *testing.T) {
	b := worldBroker(t, 100)
	ctx := context.Background()
	sql := "SELECT Name FROM Country WHERE Population > $1"
	if _, err := b.Price(ctx, PriceRequest{SQLs: []string{sql}}); err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Fatalf("Price: want prepare-hint error, got %v", err)
	}
	if _, err := quote(b, sql); err == nil {
		t.Fatal("Quote must reject placeholders")
	}
	if _, err := b.Purchase(ctx, PurchaseRequest{Buyer: "a", SQL: sql}); err == nil {
		t.Fatal("Purchase must reject placeholders")
	}
}

func TestStmtBasics(t *testing.T) {
	b := worldBroker(t, 100)
	ctx := context.Background()
	s, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > $1 AND Continent = $2")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", s.NumParams())
	}
	if !strings.Contains(s.Template(), "?") {
		t.Fatalf("template %q has no site markers", s.Template())
	}
	if _, err := s.Price(ctx, NewInt(5)); err == nil {
		t.Fatal("arity mismatch (1 of 2) must error")
	}
	if _, err := s.Price(ctx, NewInt(5), NewString("Asia"), NewInt(9)); err == nil {
		t.Fatal("arity mismatch (3 of 2) must error")
	}
	// Zero-parameter templates are legal: Prepare is then a pure
	// parse-once cache.
	z, err := b.Prepare(ctx, "SELECT count(*) FROM Country")
	if err != nil {
		t.Fatal(err)
	}
	if z.NumParams() != 0 {
		t.Fatalf("NumParams = %d, want 0", z.NumParams())
	}
	if _, err := z.Price(ctx); err != nil {
		t.Fatal(err)
	}
}

// The tentpole contract: a prepared price is bit-identical to the ad-hoc
// price of the constant-substituted SQL, for every pricing function,
// prices AND stats.
func TestPreparedBitIdenticalToAdHoc(t *testing.T) {
	b := worldBroker(t, 300)
	ctx := context.Background()
	s, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > $1")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []PricingFunc{WeightedCoverage, UniformEntropyGain, ShannonEntropy, QEntropy} {
		for _, v := range []int64{0, 1000, 1000000, 100000000} {
			sql := fmt.Sprintf("SELECT Name FROM Country WHERE Population > %d", v)
			want, err := b.Price(ctx, PriceRequest{SQLs: []string{sql}, Func: &fn})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.PriceWith(ctx, fn, NewInt(v))
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != want.Total || got.Stats != want.Stats {
				t.Fatalf("fn=%v v=%d: prepared (%v, %+v) != ad-hoc (%v, %+v)",
					fn, v, got.Total, got.Stats, want.Total, want.Stats)
			}
			// The ad-hoc call populated the template-keyed entry; the
			// prepared call must have served it.
			if !got.PerQuery[0].Cached {
				t.Fatalf("fn=%v v=%d: prepared quote after ad-hoc quote was not a cache hit", fn, v)
			}
		}
	}
}

// Prepared and ad-hoc traffic share one template-keyed cache, in both
// directions, observable through the kind-split stats — under every
// pricing function: "td" bitmaps for coverage and uniform gain, "te"
// prices for the entropies.
func TestPreparedSharesCacheWithAdHoc(t *testing.T) {
	b := worldBroker(t, 200)
	ctx := context.Background()
	s, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > $1")
	if err != nil {
		t.Fatal(err)
	}
	for i, fn := range []PricingFunc{WeightedCoverage, UniformEntropyGain, ShannonEntropy, QEntropy} {
		// Constants distinct per function: coverage and uniform gain
		// share one bitmap entry per instance.
		c := int64(1000 * i)
		adhoc := func(v int64) (*PriceResponse, error) {
			sql := fmt.Sprintf("SELECT Name FROM Country WHERE Population > %d", v)
			return b.Price(ctx, PriceRequest{SQLs: []string{sql}, Func: &fn})
		}

		// Cold prepared quote: a template miss.
		st := b.QuoteCacheStats()
		if _, err := s.PriceWith(ctx, fn, NewInt(c+7)); err != nil {
			t.Fatal(err)
		}
		if got := b.QuoteCacheStats(); got.TemplateMisses != st.TemplateMisses+1 {
			t.Fatalf("%v: cold prepared quote recorded %d template misses, want 1: %+v", fn, got.TemplateMisses-st.TemplateMisses, got)
		}
		st = b.QuoteCacheStats()

		// Ad-hoc quote of the substituted SQL: must hit the entry the
		// prepared call wrote.
		r, err := adhoc(c + 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.QuoteCacheStats(); !r.PerQuery[0].Cached || got.TemplateHits != st.TemplateHits+1 || got.TemplateMisses != st.TemplateMisses {
			t.Fatalf("%v: ad-hoc quote did not hit the prepared entry: %+v", fn, got)
		}

		// Ad-hoc quote with a NEW constant seeds the entry for a later
		// prepared call: sharing works in the other direction too.
		if _, err := adhoc(c + 11); err != nil {
			t.Fatal(err)
		}
		st = b.QuoteCacheStats()
		r, err = s.PriceWith(ctx, fn, NewInt(c+11))
		if err != nil {
			t.Fatal(err)
		}
		if !r.PerQuery[0].Cached {
			t.Fatalf("%v: prepared quote after ad-hoc quote of the same instance was not cached", fn)
		}
		if got := b.QuoteCacheStats(); got.TemplateHits != st.TemplateHits+1 {
			t.Fatalf("%v: template hits %d, want %d: %+v", fn, got.TemplateHits, st.TemplateHits+1, got)
		}

		// Distinct parameter values must never share an entry.
		a, err := s.PriceWith(ctx, fn, NewInt(c))
		if err != nil {
			t.Fatal(err)
		}
		if a.PerQuery[0].Cached {
			t.Fatalf("%v: fresh parameter vector served from cache", fn)
		}
	}
}

// A negated parameter has no template both of its forms share: bound to a
// number, -$1 folds into a negative literal; bound to anything else it
// stays a minus. Prepare refuses it, and the statement prepared with the
// sign in the argument shares one quote-cache entry, and so one price,
// with every written-out twin.
func TestPreparedNegatedParameter(t *testing.T) {
	b := worldBroker(t, 200)
	ctx := context.Background()
	if _, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > -$1"); !errors.Is(err, ast.ErrNotTemplatable) {
		t.Fatalf("Prepare of a negated parameter: want ErrNotTemplatable, got %v", err)
	}
	s, err := b.Prepare(ctx, "SELECT Name FROM Country WHERE Population > $1")
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := s.Price(ctx, NewInt(-27))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT Name FROM Country WHERE Population > -27",
		"SELECT Name FROM Country WHERE Population > - 27",
		"SELECT Name FROM Country WHERE Population > -(27)",
	} {
		st := b.QuoteCacheStats()
		r, err := b.Price(ctx, PriceRequest{SQLs: []string{sql}})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.QuoteCacheStats(); !r.PerQuery[0].Cached || got.TemplateHits != st.TemplateHits+1 {
			t.Fatalf("%s: did not hit the prepared entry: %+v", sql, got)
		}
		if r.Total != prepared.Total {
			t.Fatalf("%s: price %v, prepared %v", sql, r.Total, prepared.Total)
		}
	}
}

// Stmt.Purchase is Broker.Purchase with the binding done: identical
// charges, identical history effects, recorded under the substituted SQL.
func TestPreparedPurchase(t *testing.T) {
	b := worldBroker(t, 300)
	ctx := context.Background()
	s, err := b.Prepare(ctx, "SELECT Continent, count(*) FROM Country WHERE Population > $1 GROUP BY Continent")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Purchase(ctx, "alice", NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result == nil || rec.Net <= 0 {
		t.Fatalf("first purchase: result %v, net %g", rec.Result, rec.Net)
	}
	// The ad-hoc purchase of the substituted SQL charges a fresh buyer
	// the same amount.
	adhoc, err := b.Purchase(ctx, PurchaseRequest{Buyer: "bob", SQL: "SELECT Continent, count(*) FROM Country WHERE Population > 1000 GROUP BY Continent"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adhoc.Net-rec.Net) > 1e-12 {
		t.Fatalf("prepared net %g != ad-hoc net %g", rec.Net, adhoc.Net)
	}
	// Re-buying the same instance is free; a different binding is not.
	again, err := s.Purchase(ctx, "alice", NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	if again.Net != 0 {
		t.Fatalf("repeat purchase charged %g", again.Net)
	}
	if math.Abs(b.TotalPaid("alice")-rec.Net) > 1e-12 {
		t.Fatal("TotalPaid moved on a free repeat")
	}
	if _, err := s.Purchase(ctx, "alice", NewInt(5)); err != nil {
		t.Fatal(err)
	}
	if b.TotalPaid("alice") < rec.Net {
		t.Fatal("balance went backwards")
	}
}

// TestPreparedDifferential is the prepared path's correctness contract:
// for every generator schema, Stmt.Price over a randomized parameter
// stream is bit-identical — price AND stats — to an ad-hoc Price of the
// textually substituted SQL on an independent broker built from the same
// dataset and seed. Run with -race to double as the concurrency test for
// the shared bound-query cache.
func TestPreparedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential over all generator schemas")
	}
	ctx := context.Background()
	type tcase struct {
		name   string
		seed   int64
		scale  float64
		size   int
		probes int
		tmpl   string           // $1 template
		inst   func(int) string // textual substitution for pick
		arg    func(int) Value  // binding for the same pick
	}
	ints := func(tmpl string, mod int) (func(int) string, func(int) Value) {
		return func(p int) string { return strings.Replace(tmpl, "$1", fmt.Sprint(p%mod), 1) },
			func(p int) Value { return NewInt(int64(p % mod)) }
	}
	continents := []string{"Asia", "Europe", "Africa", "Oceania", "Antarctica"}
	cases := []tcase{}
	{
		tm := "SELECT Name FROM Country WHERE Population > $1"
		i, a := ints(tm, 1000000)
		cases = append(cases, tcase{"world-int", 1, 0, 200, 4, tm, i, a})
	}
	{
		tm := "SELECT count(*) FROM Country WHERE Continent = $1"
		cases = append(cases, tcase{"world-str", 1, 0, 200, 4, tm,
			func(p int) string {
				return strings.Replace(tm, "$1", "'"+continents[p%len(continents)]+"'", 1)
			},
			func(p int) Value { return NewString(continents[p%len(continents)]) }})
	}
	{
		tm := "SELECT State, min(Age) FROM crash WHERE Age > $1 GROUP BY State"
		i, a := ints(tm, 80)
		cases = append(cases, tcase{"carcrash", 2, 300, 150, 4, tm, i, a})
	}
	{
		tm := "SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey AND lo_revenue > $1 GROUP BY c_city"
		i, a := ints(tm, 5000000)
		cases = append(cases, tcase{"ssb", 3, 0.001, 120, 3, tm, i, a})
	}
	{
		tm := "SELECT s_name FROM supplier WHERE s_acctbal > $1"
		i, a := ints(tm, 9000)
		cases = append(cases, tcase{"tpch", 4, 0.002, 120, 3, tm, i, a})
	}
	{
		tm := "SELECT count(*) FROM dblp WHERE ToNodeId < $1"
		i, a := ints(tm, 2000)
		cases = append(cases, tcase{"dblp", 5, 0.02, 120, 3, tm, i, a})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			name := strings.SplitN(tc.name, "-", 2)[0]
			db, err := LoadDataset(name, tc.seed, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			// Independent brokers over one dataset and seed: identical
			// support sets, zero cache sharing — every comparison is
			// cold-vs-cold.
			bPrep, err := NewBroker(db, 100, Options{SupportSetSize: tc.size, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			bAdhoc, err := NewBroker(db, 100, Options{SupportSetSize: tc.size, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			s, err := bPrep.Prepare(ctx, tc.tmpl)
			if err != nil {
				t.Fatal(err)
			}
			prop := func(pick uint16) bool {
				p := int(pick)
				want, err := bAdhoc.Price(ctx, PriceRequest{SQLs: []string{tc.inst(p)}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Price(ctx, tc.arg(p))
				if err != nil {
					t.Fatal(err)
				}
				if got.Total != want.Total || got.Stats != want.Stats {
					t.Errorf("pick=%d: prepared (%v, %+v) != ad-hoc (%v, %+v)",
						p, got.Total, got.Stats, want.Total, want.Stats)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: tc.probes}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Concurrent preparers, pricers and purchasers on one broker: exercises
// the Stmt bound-query cache, the template-keyed quote cache and the
// singleflight layer together. Run with -race.
func TestPreparedConcurrent(t *testing.T) {
	b := worldBroker(t, 200)
	ctx := context.Background()
	const sql = "SELECT Name FROM Country WHERE Population > $1"
	adhoc := func(v int64) string {
		return fmt.Sprintf("SELECT Name FROM Country WHERE Population > %d", v)
	}

	// One reference price per parameter value, computed serially.
	ref := make(map[int64]float64)
	for v := int64(0); v < 4; v++ {
		r, err := b.Price(ctx, PriceRequest{SQLs: []string{adhoc(v)}})
		if err != nil {
			t.Fatal(err)
		}
		ref[v] = r.Total
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := b.Prepare(ctx, sql) // every goroutine prepares its own Stmt
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 6; i++ {
				v := int64((g + i) % 4)
				var total float64
				if i%2 == 0 {
					r, err := s.Price(ctx, NewInt(v))
					if err != nil {
						errs <- err
						return
					}
					total = r.Total
				} else {
					r, err := b.Price(ctx, PriceRequest{SQLs: []string{adhoc(v)}})
					if err != nil {
						errs <- err
						return
					}
					total = r.Total
				}
				if total != ref[v] {
					errs <- fmt.Errorf("g%d i%d v=%d: price %v != reference %v", g, i, v, total, ref[v])
					return
				}
				if i == 3 {
					if _, err := s.Purchase(ctx, fmt.Sprintf("buyer-%d", g), NewInt(v)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
