package disagree

import (
	"context"
	"fmt"
	"sort"

	"qirana/internal/obs"
	"qirana/internal/pool"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// skipped marks support elements excluded by the live mask.
const skipped Outcome = -1

// classifyBlock is the shard granularity of the parallel classification
// pass: large enough to amortize the work-stealing index, small enough to
// balance skewed blocks.
const classifyBlock = 64

// minBatchShard is the smallest tagged-batch slice worth its own worker:
// below this the per-query fixed cost (join setup over the base relations)
// dominates and sharding would add work instead of hiding it.
const minBatchShard = 32

// batchJob is one tagged-query task of checker k: answer the NeedPlus
// (compare=false) or NeedCompare (compare=true) checks for a slice of
// updates that all touch relation rel. Jobs partition a checker's pending
// updates, touch disjoint result slots, and only read the checker and the
// base database, so any number of them run concurrently.
type batchJob struct {
	k       int
	rel     string
	idxs    []int
	compare bool
}

// check is one per-update task of checker k on update i: a delta check
// (updates of a relation with multiple occurrences cannot share a tagged
// query — the upid substitution is per-slot-unsound for self-joins — so
// each resolves individually through the higher-order expansion of
// Checker.decide) or a residual full run (compare unused).
type check struct {
	k, i    int
	compare bool
}

// jobResult is what one tagged job hands back besides the decided bits:
// the updates escalated to a residual full run and the counts of checks
// decided at the full and partial delta tiers.
type jobResult struct {
	escalated       []int
	nFull, nPartial int
}

// CheckBatch decides all updates for k checkers — k priced queries over
// the same database and support set; a single query is k = 1 — in one
// shared sweep, batching the database checks per relation (paper §4.2):
// for every single-occurrence relation at most one tagged query answers a
// checker's NeedPlus checks and two tagged queries answer its NeedCompare
// checks, independent of how many updates are in the batch;
// multi-occurrence (self-join) relations resolve per update through the
// delta expansion. The live mask (nil = all live) lets history-aware,
// sampled and sharded pricing skip elements.
//
// Across checkers the sweep shares what does not depend on the query: the
// classification pass touches each update once for all k queries and
// builds its u⁺ tuples at most once, when the first checker that reads the
// update's relation needs them; and the tagged jobs, delta checks and
// residual full runs of every checker each run in one pool of workers
// goroutines over the shared read-only database. Tuples are
// never kept across stages: a tagged job rebuilds u⁺ (and, to compare, u⁻)
// for its own updates only, so the sweep's live memory does not grow with
// the number of pending checks.
//
// Every (update, query) decision is independent of k, of the mask and of
// the worker count, lands in its own result slot, and the per-checker
// CheckStats are counted, not measured — so results and CheckStats are
// bit-identical serial or parallel, alone or batched, and over disjoint
// covering masks they OR / add exactly to the unmasked sweep's. The call
// writes nothing but its own results, so any number of CheckBatch calls
// share the same checkers concurrently. workers ≤ 1 runs serially. Every
// stage polls ctx between items and aborts with ctx.Err().
func CheckBatch(ctx context.Context, cs []*Checker, us []*support.Update, live []bool, workers int) ([][]bool, []CheckStats, error) {
	if len(cs) == 0 {
		return nil, nil, nil
	}
	// One database and one registry serve the shared stages: the checkers
	// of one engine all carry the engine's registry, so the first non-nil
	// one stands in for the sweep as a whole.
	db := cs[0].db
	var reg *obs.Registry
	for _, c := range cs {
		if c.db != db {
			return nil, nil, fmt.Errorf("CheckBatch: checkers span different databases")
		}
		if reg == nil {
			reg = c.Obs
		}
	}
	shardWorkers := workers
	workers = pool.Clamp(workers, len(us))
	stats := make([]CheckStats, len(cs))

	// Static classification (Algorithms 4/5/6, no database access).
	stopClassify := reg.Timer("stage_classify")
	n := len(us)
	outcomes := make([]Outcome, len(cs)*n) // checker k's row is [k*n, (k+1)*n)
	nBlocks := (n + classifyBlock - 1) / classifyBlock
	scratch := make([]Scratch, workers)
	if err := pool.RunWorkersCtx(ctx, workers, nBlocks, func(w, b int) error {
		lo, hi := b*classifyBlock, (b+1)*classifyBlock
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if live != nil && !live[i] {
				for k := range cs {
					outcomes[k*n+i] = skipped
				}
				continue
			}
			for k, c := range cs {
				outcomes[k*n+i] = c.classify(us[i], &scratch[w])
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	stopClassify()

	// Per checker: fold the static decisions and collect the tagged jobs,
	// per-update delta checks and residual full runs into shared pools.
	results := make([][]bool, len(cs))
	var jobs []batchJob
	var deltas, fulls []check
	for k, c := range cs {
		results[k] = make([]bool, len(us))
		plusPending := make(map[string][]int)
		comparePending := make(map[string][]int)
		for i, o := range outcomes[k*n : (k+1)*n] {
			switch o {
			case Agree:
				stats[k].Static++
			case Disagree:
				stats[k].Static++
				results[k][i] = true
			case NeedPlus, NeedCompare:
				rel := us[i].LowerRel()
				switch {
				case c.multi[rel]:
					deltas = append(deltas, check{k: k, i: i, compare: o == NeedCompare})
				case o == NeedPlus:
					plusPending[rel] = append(plusPending[rel], i)
					stats[k].Batched++
				default:
					comparePending[rel] = append(comparePending[rel], i)
					stats[k].Batched++
				}
			case NeedFull:
				fulls = append(fulls, check{k: k, i: i})
			}
		}
		// Batch 1 per relation: Q((D \ R) ∪ {u⁺}) emptiness checks.
		// Batches 2+3 per relation: compare the {u⁻} and {u⁺} runs.
		jobs = appendJobs(jobs, k, plusPending, false, shardWorkers)
		jobs = appendJobs(jobs, k, comparePending, true, shardWorkers)
	}
	jres := make([]jobResult, len(jobs))
	stopTagged := reg.Timer("stage_tagged_batch")
	if err := pool.RunCtx(ctx, workers, len(jobs), func(x int) (err error) {
		j := jobs[x]
		jres[x], err = cs[j.k].runBatchJob(us, j, results[j.k])
		return err
	}); err != nil {
		return nil, nil, err
	}
	stopTagged()
	for x, j := range jobs {
		stats[j.k].DeltaFullRuns += jres[x].nFull
		stats[j.k].DeltaPartialRuns += jres[x].nPartial
		for _, i := range jres[x].escalated {
			fulls = append(fulls, check{k: j.k, i: i})
		}
	}

	// Per-update delta checks of multi-occurrence relations (self-joins):
	// each runs the higher-order expansion against the cached indexes and
	// views, escalating to the residual stage when inexact.
	if len(deltas) > 0 {
		type deltaRes struct{ dis, esc, partial bool }
		dres := make([]deltaRes, len(deltas))
		stopDelta := reg.Timer("stage_delta")
		if err := pool.RunCtx(ctx, workers, len(deltas), func(x int) error {
			d := deltas[x]
			dis, esc, partial, err := cs[d.k].decide(us[d.i], d.compare)
			dres[x] = deltaRes{dis: dis, esc: esc, partial: partial}
			return err
		}); err != nil {
			return nil, nil, err
		}
		stopDelta()
		for x, d := range deltas {
			switch {
			case dres[x].esc:
				fulls = append(fulls, d)
			case dres[x].partial:
				results[d.k][d.i] = dres[x].dis
				stats[d.k].DeltaPartialRuns++
			default:
				results[d.k][d.i] = dres[x].dis
				stats[d.k].DeltaFullRuns++
			}
		}
	}

	// Residual full runs (rare: float borderlines and view overshoot),
	// fanned out over per-worker overlays of the shared instance (a
	// worker's overlay serves any checker under the apply/run/undo
	// discipline).
	if len(fulls) > 0 {
		defer reg.Timer("stage_residual")()
		for _, f := range fulls {
			stats[f.k].FullRuns++
		}
		fw := pool.Clamp(workers, len(fulls))
		overlays := make([]*storage.Overlay, fw)
		if err := pool.RunWorkersCtx(ctx, fw, len(fulls), func(w, x int) error {
			o := overlays[w]
			if o == nil {
				o = storage.NewOverlay(db)
				overlays[w] = o
			}
			f := fulls[x]
			d, err := cs[f.k].fullRunOn(o, us[f.i])
			if err != nil {
				return err
			}
			results[f.k][f.i] = d
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	return results, stats, nil
}

// appendJobs appends checker k's tagged jobs for one pending map in
// deterministic (relation-name) order, sharding a relation's updates
// across several tagged queries when the batch is large enough to keep
// multiple workers busy.
func appendJobs(jobs []batchJob, k int, pending map[string][]int, compare bool, workers int) []batchJob {
	rels := make([]string, 0, len(pending))
	for rel := range pending {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		for _, chunk := range shard(pending[rel], workers) {
			jobs = append(jobs, batchJob{k: k, rel: rel, idxs: chunk, compare: compare})
		}
	}
	return jobs
}

// shard splits idxs into at most workers near-equal chunks of at least
// minBatchShard elements (one chunk when serial or small).
func shard(idxs []int, workers int) [][]int {
	n := len(idxs)
	chunks := workers
	if c := n / minBatchShard; c < chunks {
		chunks = c
	}
	if chunks <= 1 {
		return [][]int{idxs}
	}
	size := (n + chunks - 1) / chunks
	out := make([][]int, 0, chunks)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, idxs[lo:hi])
	}
	return out
}

// runBatchJob answers one job's checks with the §4.2 tagged queries,
// writing the decided bits into res (disjoint indexes per job).
func (c *Checker) runBatchJob(us []*support.Update, j batchJob, res []bool) (jr jobResult, err error) {
	q := c.checkQuery()
	var gv *exec.GroupView
	var mv *exec.MultiplicityView
	if c.SPJ.IsAgg {
		if gv, err = c.groupView(); err != nil {
			return jr, err
		}
	} else if c.SPJ.Distinct {
		if mv, err = c.Q.MultiplicityView(c.db); err != nil {
			return jr, err
		}
	}
	// settle records one decided check; consulting the multiplicity view
	// or a candidate multiset is the partial tier, a bare first-order
	// answer the full tier (tagged jobs never cover self-joins).
	settle := func(i int, dis, usedView bool) {
		res[i] = dis
		if usedView {
			jr.nPartial++
		} else {
			jr.nFull++
		}
	}
	decide := func(i int, m, p [][]value.Value) error {
		switch {
		case c.SPJ.IsAgg:
			o, usedCand := c.aggDelta(gv, m, p)
			if o != NeedFull {
				settle(i, o == Disagree, usedCand)
			} else if same, err := c.unmoved(us[i]); err != nil {
				return err
			} else if same {
				settle(i, false, false)
			} else {
				jr.escalated = append(jr.escalated, i)
			}
		case c.SPJ.Distinct:
			settle(i, distinctFlips(mv, m, p), true)
		case m == nil:
			settle(i, len(p) > 0, false)
		default:
			settle(i, !equalMultiset(m, p), false)
		}
		return nil
	}
	var outMinus map[int64][][]value.Value
	if j.compare {
		if outMinus, err = q.RunTagged(c.db, j.rel, c.tagRows(us, j, false)); err != nil {
			return jr, err
		}
	}
	outPlus, err := q.RunTagged(c.db, j.rel, c.tagRows(us, j, true))
	if err != nil {
		return jr, err
	}
	for _, i := range j.idxs {
		if err := decide(i, outMinus[int64(i)], outPlus[int64(i)]); err != nil {
			return jr, err
		}
	}
	return jr, nil
}

// tagRows builds the tagged replacement relation R⁺ (plus) or R⁻ of §4.2
// for job j: each affected tuple of update i of the job, in its updated
// state for R⁺ and its original one for R⁻, extended with the trailing
// upid column i. The rows are windows of one slab of arity+1 values each,
// which dies with the job.
func (c *Checker) tagRows(us []*support.Update, j batchJob, plus bool) [][]value.Value {
	t := c.db.Table(j.rel)
	n := 0
	for _, i := range j.idxs {
		n += us[i].NumRows()
	}
	w := t.Rel.Arity() + 1
	slab := make([]value.Value, n*w)
	out := make([][]value.Value, 0, n)
	for _, i := range j.idxs {
		u := us[i]
		for k := 0; k < u.NumRows(); k++ {
			row := slab[:w:w]
			slab = slab[w:]
			u.FillRow(row, t, k, plus)
			row[w-1] = value.NewInt(int64(i))
			out = append(out, row)
		}
	}
	return out
}
