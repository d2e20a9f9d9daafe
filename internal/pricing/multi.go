package pricing

import (
	"context"

	"qirana/internal/disagree"
	"qirana/internal/sqlengine/exec"
)

// DisagreementsMultiLiveCtx is the engine's one disagreement sweep: it
// computes the disagreement bitmap of every query in qs — k INDEPENDENT
// queries, not one bundle; a single query is k = 1, a bundle is
// DisagreementsCtx's fold over it — restricted to the live elements (nil
// live = all). Batched fast-path queries share one disagree.CheckBatch
// (one classification pass, merged job pools, shared residual overlays);
// queries outside the fast path take the Appendix A instance reduction
// when eligible and otherwise share one naive pass that applies each
// element once and runs all of them. The broker's batch-quote endpoint
// uses it to price k cache misses for the cost of roughly one sweep.
//
// Every per-element decision runs the same code against the same inputs
// whatever k and live are, so per query the bitmap and Stats are
// bit-identical alone or batched, and those of disjoint covering masks
// sum (bitwise OR / integer add) exactly to the unmasked sweep's — the
// invariant behind sharded pricing. The engine state the sweep reads is
// shared read-only, so any number of sweeps run concurrently. Every path
// polls ctx between elements and aborts with ctx.Err().
func (e *Engine) DisagreementsMultiLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([][]bool, []Stats, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	results := make([][]bool, len(qs))
	stats := make([]Stats, len(qs))

	workers := e.parallelWorkers()
	var naiveIdx []int
	var batched []*disagree.Checker // in qs order; their results[j] stay nil until the sweep
	var naive []*exec.Query
	for j, q := range qs {
		c := e.checker(q, true)
		if c == nil {
			results[j] = make([]bool, e.Set.Size())
			if e.Opts.InstanceReduction && e.Set.Updates != nil {
				ok, n, err := e.reducedDisagree(ctx, q, live, results[j])
				if err != nil {
					return nil, nil, err
				}
				if ok {
					stats[j].Naive = n
					continue
				}
			}
			naiveIdx = append(naiveIdx, j)
			naive = append(naive, q)
			continue
		}
		if e.Opts.Batching {
			batched = append(batched, c)
			continue
		}
		// The "no batching" mode of Figure 5: one Check per live element.
		results[j] = make([]bool, e.Set.Size())
		var cs disagree.CheckStats
		for i, u := range e.Set.Updates {
			if live != nil && !live[i] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			d, s, err := c.Check(u)
			if err != nil {
				return nil, nil, err
			}
			results[j][i] = d
			cs.Add(s)
		}
		stats[j] = e.checkerStats(cs)
	}

	// Shared §4.2 sweep across all batched fast-path queries.
	if len(batched) > 0 {
		res, cstats, err := disagree.CheckBatch(ctx, batched, e.Set.Updates, live, workers)
		if err != nil {
			return nil, nil, err
		}
		k := 0
		for j := range qs {
			if results[j] == nil {
				results[j], stats[j] = res[k], e.checkerStats(cstats[k])
				k++
			}
		}
	}

	// Shared naive pass: compare every element's output hash against the
	// query's own baseline.
	if len(naive) > 0 {
		_, n, err := e.sweepElements(ctx, naive, live, func(i int, hs, bases []uint64) {
			for x, j := range naiveIdx {
				if hs[x] != bases[x] {
					results[j][i] = true // distinct index per element: no contention
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
		for _, j := range naiveIdx {
			stats[j].Naive = n
		}
	}
	return results, stats, nil
}

// OutputHashesMultiLiveCtx is the k-query form of OutputHashesLiveCtx for
// INDEPENDENT queries: one pass over the live elements applies each once
// and runs all k queries, returning per-query element hashes and base
// hashes in exactly the encoding an OutputHashesLiveCtx call on the
// single-query bundle {q} produces (so entropy prices derived from them
// are bit-identical), plus each query's Stats; see there for the fold
// invariant and stats accounting.
func (e *Engine) OutputHashesMultiLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([][]uint64, []uint64, []Stats, error) {
	if len(qs) == 0 {
		return nil, nil, nil, nil
	}
	elems := make([][]uint64, len(qs))
	for j := range elems {
		elems[j] = make([]uint64, e.Set.Size())
	}
	bases, static, naive, err := e.entropySweep(ctx, qs, live, func(i int, hs, _ []uint64) {
		for j := range hs {
			elems[j][i] = combine(hs[j : j+1])
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	stats := make([]Stats, len(qs))
	for j := range bases {
		bases[j] = combine(bases[j : j+1])
		stats[j] = Stats{Static: static, Naive: naive}
	}
	return elems, bases, stats, nil
}
