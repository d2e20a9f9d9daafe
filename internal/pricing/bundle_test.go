package pricing

import (
	"context"
	"math"
	"testing"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// TestBundleDisagreementsAreUnions: an element conflicts with a bundle iff
// it conflicts with some member — the semantic foundation of bundle
// pricing — and this must hold when the members mix fast-path and
// naive-path queries.
func TestBundleDisagreementsAreUnions(t *testing.T) {
	db := benchDB(17, 120)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(250, 13))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	q1 := exec.MustCompile("SELECT a FROM R WHERE id < 60", db.Schema)                     // fast path
	q2 := exec.MustCompile("SELECT DISTINCT c FROM R", db.Schema)                          // naive (DISTINCT)
	q3 := exec.MustCompile("SELECT c, sum(b) FROM R WHERE id >= 40 GROUP BY c", db.Schema) // fast path, agg

	d1, err := e.DisagreementsCtx(context.Background(), []*exec.Query{q1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.DisagreementsCtx(context.Background(), []*exec.Query{q2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := e.DisagreementsCtx(context.Background(), []*exec.Query{q3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := e.DisagreementsCtx(context.Background(), []*exec.Query{q1, q2, q3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bundle {
		want := d1[i] || d2[i] || d3[i]
		if bundle[i] != want {
			t.Fatalf("element %d: bundle %v, union %v (%v %v %v)", i, bundle[i], want, d1[i], d2[i], d3[i])
		}
	}
	// Coverage of the bundle therefore equals the weight of the union.
	pb, err := e.PriceCtx(context.Background(), WeightedCoverage, q1, q2, q3)
	if err != nil {
		t.Fatal(err)
	}
	union := 0.0
	for i := range bundle {
		if bundle[i] {
			union += e.Weights[i]
		}
	}
	if math.Abs(pb-union) > 1e-9 {
		t.Fatalf("bundle price %g != union weight %g", pb, union)
	}
}

// TestQallBundleSlices: a bundle of keyed column slices that jointly
// reconstruct the relation prices at the full dataset price, while
// keyless slices price strictly less — the multiset of (a,b) pairs plus
// the multiset of (id,c) pairs does not reveal which id carries which
// (a,b), so some neighboring instances (e.g. swapping both a and b
// between two rows) remain indistinguishable.
func TestQallBundleSlices(t *testing.T) {
	db := benchDB(2, 60)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	keyed, err := e.PriceCtx(context.Background(), WeightedCoverage,
		exec.MustCompile("SELECT id, a, b FROM R", db.Schema),
		exec.MustCompile("SELECT id, c FROM R", db.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(keyed-100) > 1e-9 {
		t.Fatalf("keyed column slices jointly disclose everything, priced %g", keyed)
	}
	keyless, err := e.PriceCtx(context.Background(), WeightedCoverage,
		exec.MustCompile("SELECT a, b FROM R", db.Schema),
		exec.MustCompile("SELECT id, c FROM R", db.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if keyless >= keyed {
		t.Fatalf("keyless slices must disclose strictly less: %g vs %g", keyless, keyed)
	}
}
