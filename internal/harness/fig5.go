package harness

import (
	"context"
	"fmt"

	"qirana/internal/datagen"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/workload"
)

// scalability measures, per query: query execution time, pricing time
// without batching (Algorithm 4/5 with individual database checks), and
// pricing time with the §4.2 batched checks — the three bars of Figure 5.
func scalability(cfg Config, id, title string, db *storage.Database, wqs []workload.Query) (*Report, error) {
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(cfg.BigSupport, cfg.Seed))
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title,
		Notes: []string{
			fmt.Sprintf("|S| = %d (paper: 100000), dataset rows = %d (paper: SF 1)", cfg.BigSupport, db.TotalRows()),
			"pricing times exclude answering the query itself, as in the paper",
		}}
	t := Table{Title: "time in ms", Header: []string{"query", "no batching", "with batching", "query execution", "path"}}

	for _, wq := range wqs {
		q, err := exec.Compile(wq.SQL, db.Schema)
		if err != nil {
			return nil, err
		}
		dExec, err := timeIt(func() error {
			_, err := q.Run(db)
			return err
		})
		if err != nil {
			return nil, err
		}

		noBatch := pricing.NewEngine(db, set, 100)
		noBatch.Opts.Batching = false
		dNo, err := timeIt(func() error {
			_, err := noBatch.Price(pricing.WeightedCoverage, q)
			return err
		})
		if err != nil {
			return nil, err
		}

		batch := pricing.NewEngine(db, set, 100)
		var stats pricing.Stats
		dYes, err := timeIt(func() error {
			dis, s, err := batch.DisagreementsLiveCtx(context.Background(), []*exec.Query{q}, nil)
			if err != nil {
				return err
			}
			stats = s
			_, err = batch.PriceFromDisagreements(pricing.WeightedCoverage, dis)
			return err
		})
		if err != nil {
			return nil, err
		}

		path := "fast"
		if stats.Naive > 0 {
			path = "naive"
		}
		t.Rows = append(t.Rows, []string{wq.Name, ms(dNo), ms(dYes), ms(dExec), path})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"expected shape: batching is 1-2 orders of magnitude faster than no-batching on fast-path queries, and batched pricing is within a small factor of query execution",
		"queries marked 'naive' carry subqueries/HAVING and fall outside the §4 fast path (the paper's prototype also prices only SPJ+aggregation with the optimized algorithms)")
	return rep, nil
}

// Fig5a reproduces Figure 5a: SSB pricing scalability.
func Fig5a(cfg Config) (*Report, error) {
	db := datagen.SSB(cfg.Seed, cfg.SSBScale)
	return scalability(cfg, "fig5a", "SSB pricing scalability", db, workload.SSB())
}

// Fig5b reproduces Figure 5b: TPC-H pricing scalability over Q1, Q2, Q4,
// Q5, Q6, Q11, Q12 and Q17.
func Fig5b(cfg Config) (*Report, error) {
	db := datagen.TPCH(cfg.Seed, cfg.TPCHScale)
	return scalability(cfg, "fig5b", "TPC-H pricing scalability", db, workload.TPCH())
}
