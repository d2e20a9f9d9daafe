package pricing

import (
	"context"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// TestOutputSizeBaselineArbitrage exhibits the information-arbitrage
// attack the paper levels against output-size pricing (§1, §2.2): the
// 7-row continent histogram determines the 239-row continent column (the
// bag is exactly the histogram unrolled), so a buyer wanting the column
// buys the histogram instead. Output-size pricing charges ~34x more for
// the determined query; qirana's coverage function prices them equally.
func TestOutputSizeBaselineArbitrage(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(400, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)

	hist := exec.MustCompile("SELECT Continent, count(*) FROM Country GROUP BY Continent", db.Schema)
	col := exec.MustCompile("SELECT Continent FROM Country", db.Schema)

	det, err := e.DeterminesUnderD([]*exec.Query{hist}, []*exec.Query{col})
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Fatal("the histogram must determine the column on the support set")
	}

	osHist, err := e.OutputSizePrice(hist)
	if err != nil {
		t.Fatal(err)
	}
	osCol, err := e.OutputSizePrice(col)
	if err != nil {
		t.Fatal(err)
	}
	if osCol <= osHist {
		t.Fatalf("attack setup broken: output-size prices col %g <= hist %g", osCol, osHist)
	}
	// The arbitrage: p(determined) > p(determiner) under output size.
	if osCol/osHist < 5 {
		t.Fatalf("expected a large gap, got %gx", osCol/osHist)
	}

	qHist, err := e.PriceCtx(context.Background(), WeightedCoverage, hist)
	if err != nil {
		t.Fatal(err)
	}
	qCol, err := e.PriceCtx(context.Background(), WeightedCoverage, col)
	if err != nil {
		t.Fatal(err)
	}
	if qCol > qHist+1e-9 {
		t.Fatalf("qirana must not exhibit the arbitrage: col %g > hist %g", qCol, qHist)
	}
}

// TestProvenanceBaselineOvercharges shows the dual failure: under
// provenance pricing, SELECT count(*) costs the relation's full share
// (every tuple contributes) even though in qirana's possible-database
// space the count is public knowledge and worth nothing.
func TestProvenanceBaselineOvercharges(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	q := exec.MustCompile("SELECT count(*) FROM Country", db.Schema)

	prov, err := e.ProvenancePrice(q)
	if err != nil {
		t.Fatal(err)
	}
	countryShare := 100 * 239.0 / float64(db.TotalRows())
	if prov < countryShare*0.99 {
		t.Fatalf("provenance should charge Country's full share (%g), got %g", countryShare, prov)
	}
	cov, err := e.PriceCtx(context.Background(), WeightedCoverage, q)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 0 {
		t.Fatalf("the public cardinality must be free under coverage, got %g", cov)
	}
}

func TestProvenanceRejectsNonSPJ(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(50, 5))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	q := exec.MustCompile("SELECT Continent FROM Country ORDER BY Continent", db.Schema)
	if _, err := e.ProvenancePrice(q); err == nil {
		t.Fatal("non-SPJ query accepted")
	}
}

func TestOutputSizeCaps(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(50, 5))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, set, 100)
	// A join blowing up past the dataset size still caps at the total.
	q := exec.MustCompile("SELECT * FROM Country, CountryLanguage", db.Schema)
	p, err := e.OutputSizePrice(q)
	if err != nil {
		t.Fatal(err)
	}
	if p != 100 {
		t.Fatalf("cap: %g", p)
	}
}
