package pricing

import (
	"context"

	"qirana/internal/disagree"
	"qirana/internal/result"
	"qirana/internal/sqlengine/exec"
)

// DisagreementsMultiLiveCtx computes the disagreement bitmap of every
// query in qs — k INDEPENDENT queries, not one bundle; a single query is
// k = 1, a bundle is DisagreementsCtx's fold over it — restricted to the
// live elements (nil live = all), with each query's Stats; see sweep for
// the dispatch and its invariants. The broker's batch-quote endpoint uses
// it to price k cache misses for the cost of roughly one sweep.
func (e *Engine) DisagreementsMultiLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([][]bool, []Stats, error) {
	bits, _, _, stats, err := e.sweep(ctx, qs, live, false)
	return bits, stats, err
}

// OutputHashesMultiLiveCtx is the k-query form of OutputHashesLiveCtx for
// INDEPENDENT queries: per-query element hashes and base hashes in exactly
// the encoding an OutputHashesLiveCtx call on the single-query bundle {q}
// produces (so entropy prices derived from them are bit-identical), plus
// each query's Stats; see sweep. Skipped elements keep a zero hash.
func (e *Engine) OutputHashesMultiLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([][]uint64, []uint64, []Stats, error) {
	_, raw, bases, stats, err := e.sweep(ctx, qs, live, true)
	if err != nil {
		return nil, nil, nil, err
	}
	for j, hs := range raw {
		for i := range hs {
			if live == nil || live[i] {
				hs[i] = combine(hs[i : i+1])
			}
		}
		bases[j] = combine(bases[j : j+1])
	}
	return raw, bases, stats, nil
}

// sweep is the engine's one per-element decision: for every query of qs
// and every live element (nil live = all) it computes the disagreement
// bit, or with hash set the raw output hash over the element (Result.Hash
// of the query over u(D); the hash form also returns the raw base hashes
// over D), and each query's Stats.
//
// The dispatch is per query. A query with a disagreement checker goes
// through one disagree.CheckBatch shared by all such queries (one
// classification pass, merged job pools, shared residual overlays); with
// Batching off, the bit form instead walks the live elements through
// Checker.Check (the "no batching" mode of Figure 5; entropy has no such
// mode). A query without one — fast path off, or a shape outside it —
// takes in the bit form the Appendix A instance reduction when eligible,
// and otherwise the one naive pass the remaining queries share, which
// applies each live element once and runs all of them.
//
// Every per-element decision runs the same code against the same inputs
// whatever k and live are, so per query the results and Stats are
// bit-identical alone or batched, and those of disjoint covering masks
// sum (bitwise OR / integer add, or stitch) exactly to the unmasked
// sweep's — the invariant behind sharded pricing. Skipped elements keep a
// false bit or a zero hash and count nowhere. The engine state the sweep
// reads is shared read-only, so any number of sweeps run concurrently.
// Every path polls ctx between elements and aborts with ctx.Err().
func (e *Engine) sweep(ctx context.Context, qs []*exec.Query, live []bool, hash bool) (bits [][]bool, hashes [][]uint64, bases []uint64, stats []Stats, err error) {
	if len(qs) == 0 {
		return nil, nil, nil, nil, nil
	}
	n := e.Set.Size()
	stats = make([]Stats, len(qs))
	var res []*result.Result
	if hash {
		defer e.Obs.Timer("stage_entropy")()
		if res, bases, err = e.runBase(qs); err != nil {
			return nil, nil, nil, nil, err
		}
		hashes = make([][]uint64, len(qs))
	} else {
		bits = make([][]bool, len(qs))
	}

	var batched, naive []int // indexes into qs
	var cs []*disagree.Checker
	for j, q := range qs {
		// The entropy sweep reuses a cached checker but does not pin a new
		// one, with its query's execution caches, in the registry.
		c := e.checker(q, !hash)
		switch {
		case c != nil && (hash || e.Opts.Batching):
			batched = append(batched, j)
			cs = append(cs, c)
		case c != nil:
			if bits[j], stats[j], err = e.checkEach(ctx, c, live); err != nil {
				return nil, nil, nil, nil, err
			}
		case !hash && e.Opts.InstanceReduction && e.Set.Updates != nil:
			bits[j] = make([]bool, n)
			ok, cnt, err := e.reducedDisagree(ctx, q, live, bits[j])
			if err != nil {
				return nil, nil, nil, nil, err
			}
			if ok {
				stats[j].Naive = cnt
				continue
			}
			naive = append(naive, j)
		default:
			naive = append(naive, j)
		}
	}

	// Shared §4.2 sweep across the queries with a checker.
	if len(cs) > 0 {
		var br []*result.Result
		if hash {
			br = make([]*result.Result, len(batched))
			for x, j := range batched {
				br[x] = res[j]
			}
		}
		b, h, cst, err := disagree.CheckBatch(ctx, cs, e.Set.Updates, live, e.parallelWorkers(), br)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for x, j := range batched {
			stats[j] = e.checkerStats(cst[x])
			if hash {
				hashes[j] = h[x]
			} else {
				bits[j] = b[x]
			}
		}
	}

	// Shared naive pass: run every live element, comparing each output
	// hash against the query's own base hash in the bit form.
	if len(naive) > 0 {
		nq := make([]*exec.Query, len(naive))
		nb := make([]uint64, len(naive))
		for x, j := range naive {
			nq[x] = qs[j]
			if hash {
				nb[x] = bases[j]
				hashes[j] = make([]uint64, n)
			} else if bits[j] == nil {
				bits[j] = make([]bool, n)
			}
		}
		if !hash {
			if _, nb, err = e.runBase(nq); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		cnt, err := e.sweepElements(ctx, nq, nb, live, func(i int, hs, nb []uint64) {
			for x, j := range naive { // distinct index per element: no contention
				if hash {
					hashes[j][i] = hs[x]
				} else if hs[x] != nb[x] {
					bits[j][i] = true
				}
			}
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for _, j := range naive {
			stats[j].Naive = cnt
		}
	}
	return bits, hashes, bases, stats, nil
}

// checkEach decides every live element with one Checker.Check each: the
// "no batching" mode of Figure 5.
func (e *Engine) checkEach(ctx context.Context, c *disagree.Checker, live []bool) ([]bool, Stats, error) {
	out := make([]bool, e.Set.Size())
	var cs disagree.CheckStats
	for i, u := range e.Set.Updates {
		if live != nil && !live[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		d, s, err := c.Check(u)
		if err != nil {
			return nil, Stats{}, err
		}
		out[i] = d
		cs.Add(s)
	}
	return out, e.checkerStats(cs), nil
}
