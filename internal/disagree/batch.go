package disagree

import (
	"context"
	"fmt"
	"sort"

	"qirana/internal/obs"
	"qirana/internal/pool"
	"qirana/internal/result"
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

// MaxJobElems is the job cap of a batched sweep: the most updates one
// tagged job holds. The cap bounds a job's joined tuples and output rows,
// which a self-join's terms multiply, so the sweep's live memory does not
// grow with the number of pending checks. Measured on the socket
// benchmark's cold_adhoc workload (2 vCPUs), jobs cut only by worker count
// gave the daemon 1.19–1.52× the peak RSS of capped ones at the same
// throughput; in-process, a world self-join sweep at |S| = 5000 took the
// same time with caps of 32 and 256, and about a fifth longer with none.
const MaxJobElems = 256

// batchJob is one tagged-query task of checker k: answer the NeedPlus
// (compare=false) or NeedCompare (compare=true) checks for a slice of
// updates that all touch relation rel, with one exec.Query.RunTagged call.
// Jobs partition a checker's pending updates, touch disjoint result slots,
// and only read the checker and the base database, so any number of them
// run concurrently.
type batchJob struct {
	k       int
	rel     string
	idxs    []int
	compare bool
}

// check is one per-element check of checker k on update i: a residual
// full run, or in the hash form a group refold.
type check struct{ k, i int }

// needRefold marks, in the hash form, a pair of a single-source GROUP BY
// query the classification does not settle: its hash comes from refolding
// the groups the update touches.
const needRefold Outcome = -2

// jobResult is what one tagged job hands back besides the decided bits:
// the updates escalated to a residual full run and the counts of checks
// decided at the full and partial delta tiers.
type jobResult struct {
	escalated       []int
	nFull, nPartial int
}

// sink is where one checker's decisions land: bits, or in the hash form
// hashes, with parts and base the Parts and the hash of the query's
// output over D.
type sink struct {
	bits   []bool
	hashes []uint64
	parts  result.Parts
	base   uint64
}

// CheckBatch decides all updates for k checkers — k priced queries over
// the same database and support set; a single query is k = 1 — in one
// shared sweep, batching the database checks per relation (paper §4.2):
// one exec.Query.RunTagged call answers a job of up to jobCap of a
// checker's NeedPlus checks, or of its NeedCompare checks, on one
// relation. For a single-occurrence relation that is one tagged query
// (NeedPlus) or two (NeedCompare); for a self-join, one run of each
// higher-order delta term, its delta slots joined on the upid. jobCap ≥ 1
// is MaxJobElems for the batched sweep and 1 for Figure 5's "no batching"
// mode, where every check runs its own one-update job and none counts as
// Batched; the decisions are the same under any cap. The live mask (nil =
// all live) lets history-aware, sampled and sharded pricing skip
// elements.
//
// With bases nil the call returns each checker's disagreement bits. With
// bases — bases[k] the output of cs[k]'s query over D — it returns instead
// each query's output hash over every live u(D), the hash a run over the
// element's overlay returns, which the entropy functions partition by.
// The same per-element decision serves both forms:
//
//   - An Agree from any stage is the base hash: a static Agree leaves
//     every value the query evaluates in place; a delta Agree of a bag
//     SPJ nets to an empty signed multiset; a DISTINCT Agree moves no
//     multiplicity across zero; and an aggregate Agree (aggDelta or
//     unmoved) is only returned when no float input moved.
//   - Every other pair of a bag SPJ or DISTINCT query runs as a compare
//     job, so both correction terms run, and hashes as the base Parts
//     minus the rows that leave the output plus the rows that enter it.
//   - Every other pair of a single-source GROUP BY refolds the groups the
//     update touches (groupIndex.refold).
//   - Every other pair — an aggregate whose output moves, an escalation —
//     is hashed by its own residual run over the element's overlay.
//
// Across checkers the sweep shares what does not depend on the query: the
// classification pass touches each update once for all k queries and
// builds its u⁺ tuples at most once, when the first checker that reads the
// update's relation needs them; and the tagged jobs and residual full runs
// of every checker each run in one pool of workers goroutines over the
// shared read-only database. Tuples are never kept across stages: a tagged
// job rebuilds u⁺ (and, to compare, u⁻) for its own updates only, and
// holds at most jobCap of them, so the sweep's live memory does not
// grow with the number of pending checks.
//
// Every (update, query) decision is independent of k, of the mask, of the
// job cap and of the worker count, lands in its own result slot, and the
// per-checker CheckStats are counted, not measured — so results and
// CheckStats are bit-identical serial or parallel, alone or batched, under
// any job cap (Batched aside, which a cap of 1 leaves at 0), and over
// disjoint covering masks they OR / add exactly to the unmasked sweep's;
// skipped elements keep a false bit or a zero hash. The call writes
// nothing but its own results, so any number of CheckBatch calls share
// the same checkers concurrently. workers ≤ 1 runs serially. Every stage
// polls ctx between items and aborts with ctx.Err().
func CheckBatch(ctx context.Context, cs []*Checker, us []*support.Update, live []bool, workers, jobCap int, bases []*result.Result) ([][]bool, [][]uint64, []CheckStats, error) {
	if len(cs) == 0 {
		return nil, nil, nil, nil
	}
	if bases != nil && len(bases) != len(cs) {
		return nil, nil, nil, fmt.Errorf("CheckBatch: %d base outputs for %d checkers", len(bases), len(cs))
	}
	// One database and one registry serve the shared stages: the checkers
	// of one engine all carry the engine's registry, so the first non-nil
	// one stands in for the sweep as a whole.
	db := cs[0].db
	var reg *obs.Registry
	for _, c := range cs {
		if c.db != db {
			return nil, nil, nil, fmt.Errorf("CheckBatch: checkers span different databases")
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
		return nil, nil, nil, err
	}
	stopClassify()

	// Per checker: fold the static decisions and collect the tagged jobs,
	// group refolds and residual full runs into shared pools.
	sinks := make([]sink, len(cs))
	var bits [][]bool
	var hashes [][]uint64
	if bases != nil {
		hashes = make([][]uint64, len(cs))
	} else {
		bits = make([][]bool, len(cs))
	}
	var jobs []batchJob
	var refolds, fulls []check
	batched := jobCap > 1 // under a cap of 1 no check shares a job
	for k, c := range cs {
		s := &sinks[k]
		if bases != nil {
			s.hashes = make([]uint64, n)
			s.parts = result.PartsOf(bases[k].Rows)
			s.base = s.parts.Finish()
			hashes[k] = s.hashes
		} else {
			s.bits = make([]bool, n)
			bits[k] = s.bits
		}
		plusPending := make(map[string][]int)
		comparePending := make(map[string][]int)
		for i, o := range outcomes[k*n : (k+1)*n] {
			if s.hashes != nil && o != Agree && o != skipped {
				// A hash needs the new output, not only whether it moved.
				switch {
				case c.SPJ.Refolds():
					o = needRefold
				case !c.SPJ.IsAgg:
					o = NeedCompare
				case o == Disagree:
					o = NeedFull
				}
			}
			switch o {
			case Agree:
				stats[k].Static++
				if s.hashes != nil {
					s.hashes[i] = s.base
				}
			case Disagree:
				stats[k].Static++
				s.bits[i] = true
			case NeedPlus, NeedCompare:
				rel := us[i].LowerRel()
				if o == NeedPlus {
					plusPending[rel] = append(plusPending[rel], i)
				} else {
					comparePending[rel] = append(comparePending[rel], i)
				}
				// A self-join check is decided by higher-order terms, so it
				// counts as a partial delta check, never as Batched.
				if batched && !c.multi[rel] {
					stats[k].Batched++
				}
			case needRefold:
				if batched {
					stats[k].Batched++
				}
				refolds = append(refolds, check{k: k, i: i})
			case NeedFull:
				fulls = append(fulls, check{k: k, i: i})
			}
		}
		// Batch 1 per relation: Q((D \ R) ∪ {u⁺}) emptiness checks.
		// Batches 2+3 per relation: compare the {u⁻} and {u⁺} runs.
		jobs = appendJobs(jobs, k, plusPending, false, shardWorkers, jobCap)
		jobs = appendJobs(jobs, k, comparePending, true, shardWorkers, jobCap)
	}

	// The tagged jobs and the group refolds share one pool.
	groups := make([]*groupIndex, len(cs))
	for x, r := range refolds {
		if x == 0 || refolds[x-1].k != r.k { // refolds come in checker order
			groups[r.k] = newGroupIndex(cs[r.k], bases[r.k])
		}
	}
	jres := make([]jobResult, len(jobs))
	refolded := make([]bool, len(refolds))
	stopTagged := reg.Timer("stage_tagged_batch")
	if err := pool.RunCtx(ctx, workers, len(jobs)+len(refolds), func(x int) (err error) {
		if x < len(jobs) {
			j := jobs[x]
			jres[x], err = cs[j.k].runBatchJob(us, j, &sinks[j.k])
			return err
		}
		r := refolds[x-len(jobs)]
		s := &sinks[r.k]
		s.hashes[r.i], refolded[x-len(jobs)] = groups[r.k].refold(cs[r.k], s.parts, us[r.i])
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	stopTagged()
	for x, j := range jobs {
		stats[j.k].DeltaFullRuns += jres[x].nFull
		stats[j.k].DeltaPartialRuns += jres[x].nPartial
		for _, i := range jres[x].escalated {
			fulls = append(fulls, check{k: j.k, i: i})
		}
	}
	for x, r := range refolds {
		if refolded[x] {
			stats[r.k].DeltaPartialRuns++
		} else {
			fulls = append(fulls, r)
		}
	}

	// Residual full runs (rare: float borderlines and view overshoot, and
	// in the hash form the aggregates whose output moves), fanned out over
	// per-worker overlays of the shared instance (a worker's overlay
	// serves any checker under the apply/run/undo discipline).
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
			c, s := cs[f.k], &sinks[f.k]
			h, err := c.fullRunOn(o, us[f.i])
			if err != nil {
				return err
			}
			if s.hashes != nil {
				s.hashes[f.i] = h
				return nil
			}
			base, err := c.base()
			s.bits[f.i] = h != base
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
	}
	return bits, hashes, stats, nil
}

// appendJobs appends checker k's tagged jobs for one pending map in
// deterministic (relation-name) order, sharding a relation's updates
// across several tagged jobs when the batch is large enough to keep
// multiple workers busy or exceeds jobCap.
func appendJobs(jobs []batchJob, k int, pending map[string][]int, compare bool, workers, jobCap int) []batchJob {
	rels := make([]string, 0, len(pending))
	for rel := range pending {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		for _, chunk := range shard(pending[rel], workers, jobCap) {
			jobs = append(jobs, batchJob{k: k, rel: rel, idxs: chunk, compare: compare})
		}
	}
	return jobs
}

// shard splits idxs into near-equal chunks of at most jobCap elements: at
// most workers chunks of at least minBatchShard elements (one when serial
// or small) unless the cap needs more.
func shard(idxs []int, workers, jobCap int) [][]int {
	n := len(idxs)
	chunks := workers
	if c := n / minBatchShard; c < chunks {
		chunks = c
	}
	if c := (n + jobCap - 1) / jobCap; c > chunks {
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

// runBatchJob answers one job's checks with one tagged delta run (§4.2)
// and reads each update's correction terms through verdict, writing the
// decided bits — or, in the hash form, the new output hashes — into s
// (disjoint indexes per job).
func (c *Checker) runBatchJob(us []*support.Update, j batchJob, s *sink) (jr jobResult, err error) {
	var minus [][]value.Value
	if j.compare {
		minus = c.tagRows(us, j, false)
	}
	outMinus, outPlus, err := c.checkQuery().RunTagged(c.db, j.rel, minus, c.tagRows(us, j, true))
	if err != nil {
		return jr, err
	}
	for _, i := range j.idxs {
		m, p := outMinus[int64(i)], outPlus[int64(i)]
		if s.hashes != nil && !c.SPJ.IsAgg {
			// Q(u(D)) = Q(D) − left + entered, so its Parts follow from
			// the base's.
			left, entered := result.PartsOf(m), result.PartsOf(p)
			if c.SPJ.Distinct {
				left, entered = distinctFlips(c.mv, m, p)
			}
			s.hashes[i] = s.parts.Sub(left).Add(entered).Finish()
			if c.SPJ.Distinct || c.multi[j.rel] {
				jr.nPartial++
			} else {
				jr.nFull++
			}
			continue
		}
		dis, esc, partial, err := c.verdict(us[i], m, p)
		switch {
		case err != nil:
			return jr, err
		case esc, dis && s.hashes != nil:
			// An aggregate output that moves is hashed by its own run.
			jr.escalated = append(jr.escalated, i)
			continue
		case s.hashes != nil:
			s.hashes[i] = s.base
		default:
			s.bits[i] = dis
		}
		if partial {
			jr.nPartial++
		} else {
			jr.nFull++
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
