package pricing

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qirana/internal/schema"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// benchDB builds a single-relation random database for pricing tests.
func benchDB(seed int64, n int) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	}, []int{0})
	db := storage.NewDatabase(schema.MustSchema(rel))
	labels := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		db.Table("R").MustAppend([]value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(rng.Intn(20))),
			value.NewInt(int64(rng.Intn(1000))),
			value.NewString(labels[rng.Intn(3)]),
		})
	}
	return db
}

func newEngine(t testing.TB, db *storage.Database, size int, total float64) *Engine {
	t.Helper()
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(size, 42))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(db, set, total)
}

func price(t testing.TB, e *Engine, fn Func, sql string) float64 {
	t.Helper()
	q := exec.MustCompile(sql, e.DB.Schema)
	p, err := e.PriceCtx(context.Background(), fn, q)
	if err != nil {
		t.Fatalf("price %q: %v", sql, err)
	}
	return p
}

func TestFullDatasetPricesAtTotal(t *testing.T) {
	db := benchDB(3, 100)
	e := newEngine(t, db, 200, 100)
	for _, fn := range AllFuncs {
		p := price(t, e, fn, "SELECT * FROM R")
		if math.Abs(p-100) > 1e-6 {
			t.Errorf("%v: Q_all priced %g, want 100", fn, p)
		}
	}
}

func TestEmptyInfoPricesZero(t *testing.T) {
	db := benchDB(3, 100)
	e := newEngine(t, db, 200, 100)
	// A constant query discloses nothing: count over the full relation is
	// fixed by the cardinality constraint on I.
	for _, fn := range AllFuncs {
		p := price(t, e, fn, "SELECT count(*) FROM R")
		if p != 0 {
			t.Errorf("%v: constant query priced %g, want 0", fn, p)
		}
	}
}

func TestPriceMonotoneInSelectivity(t *testing.T) {
	db := benchDB(3, 200)
	e := newEngine(t, db, 400, 100)
	last := -1.0
	for _, u := range []int{0, 50, 100, 150, 200} {
		q := exec.MustCompile("SELECT * FROM R WHERE id < "+itoa(u), db.Schema)
		p, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
		if err != nil {
			t.Fatal(err)
		}
		if p < last-1e-9 {
			t.Fatalf("price not monotone: %g after %g at u=%d", p, last, u)
		}
		last = p
	}
	if math.Abs(last-100) > 1e-6 {
		t.Fatalf("u=200 should price the full relation: %g", last)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestFastPathMatchesNaive(t *testing.T) {
	db := benchDB(9, 150)
	queries := []string{
		"SELECT * FROM R WHERE a > 10",
		"SELECT a, count(*) FROM R GROUP BY a",
		"SELECT c, sum(b) FROM R GROUP BY c",
		"SELECT avg(b) FROM R",
		"SELECT b FROM R WHERE c = 'x'",
	}
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	fast := NewEngine(db, set, 100)
	noBatch := NewEngine(db, set, 100)
	noBatch.Opts.Batching = false
	naive := NewEngine(db, set, 100)
	naive.Opts = Options{} // everything off
	reduced := NewEngine(db, set, 100)
	reduced.Opts = Options{InstanceReduction: true}
	for _, sql := range queries {
		q := exec.MustCompile(sql, db.Schema)
		want, err := naive.PriceCtx(context.Background(), WeightedCoverage, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]*Engine{"fast": fast, "nobatch": noBatch, "reduced": reduced} {
			got, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s path for %q: %g, naive %g", name, sql, got, want)
			}
		}
	}
}

func TestBundleArbitrageFreeCoverage(t *testing.T) {
	db := benchDB(1, 120)
	e := newEngine(t, db, 250, 100)
	q1 := exec.MustCompile("SELECT a FROM R WHERE id < 60", db.Schema)
	q2 := exec.MustCompile("SELECT b FROM R WHERE id >= 40", db.Schema)
	p1, err := e.PriceCtx(context.Background(), WeightedCoverage, q1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PriceCtx(context.Background(), WeightedCoverage, q2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.PriceCtx(context.Background(), WeightedCoverage, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if pb > p1+p2+1e-9 {
		t.Fatalf("bundle arbitrage: p(Q1||Q2)=%g > %g + %g", pb, p1, p2)
	}
	if pb < math.Max(p1, p2)-1e-9 {
		t.Fatalf("bundle cheaper than a part: %g < max(%g,%g)", pb, p1, p2)
	}
}

func TestInformationArbitrageFree(t *testing.T) {
	db := benchDB(8, 100)
	e := newEngine(t, db, 200, 100)
	// Q1 = full relation determines any other query on R.
	q1 := exec.MustCompile("SELECT * FROM R", db.Schema)
	for _, sql := range []string{
		"SELECT a FROM R",
		"SELECT count(*) FROM R WHERE a = 3",
		"SELECT c, avg(b) FROM R GROUP BY c",
	} {
		q2 := exec.MustCompile(sql, db.Schema)
		det, err := e.DeterminesUnderD([]*exec.Query{q1}, []*exec.Query{q2})
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Fatalf("Q_all should determine %q on the support set", sql)
		}
		for _, fn := range []Func{WeightedCoverage, UniformEntropyGain} {
			p1, err := e.PriceCtx(context.Background(), fn, q1)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := e.PriceCtx(context.Background(), fn, q2)
			if err != nil {
				t.Fatal(err)
			}
			if p2 > p1+1e-9 {
				t.Errorf("%v: determined query %q priced %g above determiner %g", fn, sql, p2, p1)
			}
		}
	}
}

func TestHistoryAwarePricing(t *testing.T) {
	db := benchDB(4, 100)
	e := newEngine(t, db, 200, 100)
	h := NewHistory(e.Set.Size())
	qa := exec.MustCompile("SELECT a FROM R WHERE id < 50", db.Schema)
	qb := exec.MustCompile("SELECT a FROM R WHERE id < 50", db.Schema)
	c1, err := e.PriceHistoryAware(h, qa)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Fatalf("first purchase should cost something: %g", c1)
	}
	// Re-buying the same information is free.
	c2, err := e.PriceHistoryAware(h, qb)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("repeat purchase should be free, got %g", c2)
	}
	// History total never exceeds the bundle price, which never exceeds
	// the dataset price.
	qc := exec.MustCompile("SELECT * FROM R", db.Schema)
	c3, err := e.PriceHistoryAware(h, qc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Paid-(c1+c2+c3)) > 1e-9 {
		t.Fatalf("paid %g != charges %g", h.Paid, c1+c2+c3)
	}
	if h.Paid > 100+1e-9 {
		t.Fatalf("paid %g exceeds dataset price", h.Paid)
	}
	if h.Remaining() != 0 {
		t.Fatalf("after buying everything, %d elements remain", h.Remaining())
	}
	// Everything is free from now on.
	c4, err := e.PriceHistoryAware(h, exec.MustCompile("SELECT b FROM R", db.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if c4 != 0 {
		t.Fatalf("post-ownership query should be free: %g", c4)
	}
}

func TestHistoryCheaperThanOblivious(t *testing.T) {
	db := benchDB(12, 150)
	e := newEngine(t, db, 300, 100)
	queries := []string{
		"SELECT a FROM R WHERE id < 70",
		"SELECT a, b FROM R WHERE id < 90",
		"SELECT a FROM R WHERE id BETWEEN 30 AND 110",
	}
	h := NewHistory(e.Set.Size())
	historyTotal, obliviousTotal := 0.0, 0.0
	for _, sql := range queries {
		q := exec.MustCompile(sql, db.Schema)
		c, err := e.PriceHistoryAware(h, q)
		if err != nil {
			t.Fatal(err)
		}
		historyTotal += c
		p, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
		if err != nil {
			t.Fatal(err)
		}
		obliviousTotal += p
	}
	if historyTotal > obliviousTotal+1e-9 {
		t.Fatalf("history-aware %g should not exceed oblivious %g", historyTotal, obliviousTotal)
	}
}

func TestPricePointsFit(t *testing.T) {
	db := benchDB(2, 100)
	e := newEngine(t, db, 300, 100)
	pp := PricePoint{Query: exec.MustCompile("SELECT a FROM R", db.Schema), Price: 55}
	if err := e.FitWeights([]PricePoint{pp}); err != nil {
		t.Fatal(err)
	}
	got, err := e.PriceCtx(context.Background(), WeightedCoverage, pp.Query)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-55) > 1e-3 {
		t.Fatalf("price point not honored: %g", got)
	}
	full, err := e.PriceCtx(context.Background(), WeightedCoverage, exec.MustCompile("SELECT * FROM R", db.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-100) > 1e-3 {
		t.Fatalf("total price drifted: %g", full)
	}
}

func TestPricePointInfeasible(t *testing.T) {
	db := benchDB(2, 100)
	e := newEngine(t, db, 100, 100)
	pp := PricePoint{Query: exec.MustCompile("SELECT a FROM R", db.Schema), Price: 170}
	if err := e.FitWeights([]PricePoint{pp}); err == nil {
		t.Fatal("price above total must be infeasible")
	}
}

func TestUniformSupportOverprices(t *testing.T) {
	db := benchDB(6, 80)
	nbrs, err := support.GenerateNeighborhood(db, support.DefaultConfig(150, 9))
	if err != nil {
		t.Fatal(err)
	}
	unif, err := support.GenerateUniform(db, support.DefaultConfig(60, 9))
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(db, nbrs, 100)
	eu := NewEngine(db, unif, 100)
	// A query touching a small slice of the data: nbrs should price it low,
	// uniform near the full price (the paper's Figure 2 observation).
	sql := "SELECT a FROM R WHERE id < 8"
	pn := price(t, en, WeightedCoverage, sql)
	pu := price(t, eu, WeightedCoverage, sql)
	if pn > 40 {
		t.Errorf("nbrs price too high for a selective query: %g", pn)
	}
	if pu < 90 {
		t.Errorf("uniform support should saturate near 100: %g", pu)
	}
}

func TestShannonRefinementMonotone(t *testing.T) {
	db := benchDB(13, 100)
	e := newEngine(t, db, 200, 100)
	// Q_fine = (a,b) refines Q_coarse = (a): entropy price must not drop.
	fine := exec.MustCompile("SELECT a, b FROM R", db.Schema)
	coarse := exec.MustCompile("SELECT a FROM R", db.Schema)
	pf, err := e.PriceCtx(context.Background(), ShannonEntropy, fine)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := e.PriceCtx(context.Background(), ShannonEntropy, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if pc > pf+1e-9 {
		t.Fatalf("coarser view priced higher: %g > %g", pc, pf)
	}
}

func TestStatsPopulated(t *testing.T) {
	db := benchDB(3, 100)
	e := newEngine(t, db, 200, 100)
	if _, err := e.PriceCtx(context.Background(), WeightedCoverage, exec.MustCompile("SELECT a FROM R WHERE id < 10", db.Schema)); err != nil {
		t.Fatal(err)
	}
	s := e.LastStats
	if s.Static+s.Batched+s.FullRuns+s.Naive == 0 {
		t.Fatal("no work recorded in stats")
	}
}
