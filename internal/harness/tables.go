package harness

import (
	"context"
	"fmt"

	"qirana/internal/datagen"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/workload"
)

// Table2 reproduces the dataset characteristics table.
func Table2(cfg Config) (*Report, error) {
	rep := &Report{ID: "table2", Title: "dataset characteristics",
		Notes: []string{"paper (scale 1): world 3/5302/21(24 here), carcrash 1/71115/14, dblp 1/1049866/2(+eid), tpch 8/SF1/61, ssb 5(8 in the paper's counting)/SF1/56"}}
	t := Table{Title: "generated datasets", Header: []string{"dataset", "#relations", "#tuples", "#attributes"}}

	add := func(name string, db *storage.Database) {
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprint(len(db.Schema.Relations)),
			fmt.Sprint(db.TotalRows()),
			fmt.Sprint(db.TotalAttrs())})
	}
	add("world", datagen.World(cfg.Seed))
	add("US car crash", datagen.CarCrash(cfg.Seed, cfg.CrashRows))
	dblp := datagen.DBLP(cfg.Seed, cfg.DBLPScale)
	add(fmt.Sprintf("DBLP (scale %g, %d nodes)", cfg.DBLPScale, datagen.DBLPNodeCount(dblp)), dblp)
	add(fmt.Sprintf("TPC-H (SF %g)", cfg.TPCHScale), datagen.TPCH(cfg.Seed, cfg.TPCHScale))
	add(fmt.Sprintf("SSB (SF %g)", cfg.SSBScale), datagen.SSB(cfg.Seed, cfg.SSBScale))
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// Table3 reproduces Table 3: history-oblivious prices of the DBLP queries
// Qd1–Qd7 and the US car crash queries Qc1–Qc4 under weighted coverage and
// Shannon entropy over the nbrs support set.
func Table3(cfg Config) (*Report, error) {
	rep := &Report{ID: "table3", Title: "prices for DBLP and US car crash workloads",
		Notes: []string{
			"paper shapes to check: Qd2 (average degree) is free because node and edge counts are public; Qd6 prices high (majority of authors have one collaborator); Qc4 prices ~0 (too selective for the support set to witness)",
		}}

	run := func(title string, db *storage.Database, wqs []workload.Query, size int) error {
		e, err := nbrsEngine(db, size, cfg.Seed)
		if err != nil {
			return err
		}
		t := Table{Title: title, Header: []string{"query", "pwc+nbrs", "pH+nbrs"}}
		for _, wq := range wqs {
			q, err := exec.Compile(wq.SQL, db.Schema)
			if err != nil {
				return fmt.Errorf("%s: %w", wq.Name, err)
			}
			hashes, base, err := e.OutputHashesCtx(context.Background(), []*exec.Query{q})
			if err != nil {
				return fmt.Errorf("%s: %w", wq.Name, err)
			}
			prices := e.PricesFromHashes(hashes, base)
			t.Rows = append(t.Rows, []string{wq.Name,
				trimFloat(prices[pricing.WeightedCoverage]),
				trimFloat(prices[pricing.ShannonEntropy])})
		}
		rep.Tables = append(rep.Tables, t)
		return nil
	}

	dblp := datagen.DBLP(cfg.Seed, cfg.DBLPScale)
	if err := run(fmt.Sprintf("DBLP (scale %g)", cfg.DBLPScale), dblp, workload.DBLP(dblp), cfg.WorldSupport); err != nil {
		return nil, err
	}
	crash := datagen.CarCrash(cfg.Seed, cfg.CrashRows)
	if err := run(fmt.Sprintf("US car crash (%d rows)", cfg.CrashRows), crash, workload.CarCrash(), cfg.WorldSupport); err != nil {
		return nil, err
	}
	return rep, nil
}
