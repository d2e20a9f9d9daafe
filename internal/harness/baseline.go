package harness

import (
	"context"
	"qirana/internal/datagen"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
)

// Baseline is an extension experiment (not a numbered paper artifact): it
// quantifies the §1/§2.2 criticism of prior pricing schemes by comparing
// qirana's weighted coverage against output-size pricing and tuple-
// provenance pricing on queries engineered to break each baseline,
// including the concrete information-arbitrage attack (the continent
// histogram determines the unrolled continent column).
func Baseline(cfg Config) (*Report, error) {
	db := datagen.World(cfg.Seed)
	e, err := nbrsEngine(db, cfg.WorldSupport, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "baseline", Title: "qirana vs output-size and provenance baselines (extension)",
		Notes: []string{
			"output-size pricing: the 239-row column costs ~34x the 7-row histogram that determines it — arbitrage;",
			"provenance pricing: the public cardinality costs the relation's full share while disclosing nothing;",
			"coverage prices the determined pair equally and the public count at 0.",
		}}
	queries := []struct {
		name, sql string
	}{
		{"histogram (7 rows, determines the column)", "SELECT Continent, count(*) FROM Country GROUP BY Continent"},
		{"continent column (239 rows)", "SELECT Continent FROM Country"},
		{"public cardinality", "SELECT count(*) FROM Country"},
		{"aggregate summary", "SELECT MAX(Population) FROM Country"},
		{"full relation", "SELECT * FROM Country"},
	}
	t := Table{Title: "prices (dataset price 100)",
		Header: []string{"query", "coverage", "output-size", "provenance"}}
	for _, c := range queries {
		q, err := exec.Compile(c.sql, db.Schema)
		if err != nil {
			return nil, err
		}
		cov, err := e.PriceCtx(context.Background(), pricing.WeightedCoverage, q)
		if err != nil {
			return nil, err
		}
		os, err := e.OutputSizePrice(q)
		if err != nil {
			return nil, err
		}
		provCell := "n/a"
		if prov, err := e.ProvenancePrice(q); err == nil {
			provCell = trimFloat(prov)
		}
		t.Rows = append(t.Rows, []string{c.name, trimFloat(cov), trimFloat(os), provCell})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}
