// Package pricing implements QIRANA's pricing framework (paper §2, §3):
// the four arbitrage-aware pricing functions over a support set of
// possible databases, query bundles, history-aware pricing, and the
// orchestration of the §4 disagreement fast path.
//
// Prices are computed from how the support set S reacts to the query
// output: an element D_i ∈ S is in the conflict set of Q when
// Q(D_i) ≠ Q(D). The weighted coverage and uniform entropy gain functions
// need only this disagreement bit; the Shannon and Tsallis entropy
// functions need the full partition of S by output hash. Both come from
// the same per-element decision of the optimized checker
// (disagree.CheckBatch): an element it settles as an Agree takes Q(D)'s
// hash, a bag SPJ or DISTINCT query corrects Q(D)'s hash by the update's
// delta terms, a single-source GROUP BY refolds only the groups the update
// touches, and only the rest re-execute Q over the element.
package pricing

import (
	"context"
	"fmt"
	"math"
	"sync"

	"qirana/internal/disagree"
	"qirana/internal/obs"
	"qirana/internal/pool"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Func selects a pricing function (paper §2.3, Table 1).
type Func int

// The four pricing functions of the paper.
const (
	// WeightedCoverage is p_wc (eq. 1): the weighted sum of disagreeing
	// support elements. Strongly information-arbitrage-free and bundle
	// arbitrage-free; the recommended default.
	WeightedCoverage Func = iota
	// UniformEntropyGain is p_ueg (eq. 2): log |C_Q(E) ∩ S| / log |S|.
	// Strongly information-arbitrage-free but exhibits bundle arbitrage.
	UniformEntropyGain
	// ShannonEntropy is p_H (eq. 3): the entropy of the partition of S
	// induced by the query output. Weakly arbitrage-free, bundle-free.
	ShannonEntropy
	// QEntropy is p_T (eq. 4): the Tsallis entropy (q = 2) of the same
	// partition. Weakly arbitrage-free, bundle-free.
	QEntropy
)

// String names the pricing function as in the paper's figures.
func (f Func) String() string {
	switch f {
	case WeightedCoverage:
		return "coverage"
	case UniformEntropyGain:
		return "uniform info gain"
	case ShannonEntropy:
		return "shannon entropy"
	case QEntropy:
		return "q-entropy"
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// AllFuncs lists the pricing functions in paper order.
var AllFuncs = []Func{WeightedCoverage, QEntropy, ShannonEntropy, UniformEntropyGain}

// Options tunes how the engine evaluates disagreements.
type Options struct {
	// FastPath enables the §4 disagreement checker for eligible queries,
	// under every pricing function.
	FastPath bool
	// Batching enables the §4.2 batched database checks (requires
	// FastPath). Off, the coverage sweep runs one update per tagged job:
	// Figure 5's "no batching" mode.
	Batching bool
	// InstanceReduction enables the Appendix A instance-reduction
	// optimization on the naive path for eligible SPJ queries.
	InstanceReduction bool
	// Workers > 1 parallelizes the whole engine across that many
	// goroutines (clamped to GOMAXPROCS): the naive path's per-element
	// re-executions, the Appendix A reduced checks, and the §4.2 fast
	// path's classification, per-relation tagged batches and residual full
	// runs. All workers share one immutable database and evaluate support
	// elements through copy-on-write overlays; prices and Stats are
	// bit-identical to the serial run. An engineering extension beyond the
	// paper.
	Workers int
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{FastPath: true, Batching: true, InstanceReduction: true}
}

// Stats reports how one pricing call decided each (element, query) pair;
// experiments use it to show the effect of each optimization.
//
// Static, DeltaFull, DeltaPartial, FullRuns and Naive partition the pairs
// a call decides: each is counted in exactly one of them. A sweep decides
// every live pair, except that a coverage bundle's later queries decide
// only the elements no earlier one told apart. Every decision is local to
// its element, so the Stats of disjoint covering masks sum to the
// unmasked call's. Batched is not part of the partition but a
// subset that overlaps it: the pairs a tagged batch query (or, in an
// entropy sweep, a group refold) took up, which settle as DeltaFull or
// DeltaPartial, or escalate to a full run and then count in both Batched
// and FullRuns. An entropy sweep decides each pair as the coverage sweep
// does, except that a pair whose output moves needs its new hash: a bag
// SPJ or DISTINCT pair then runs its delta terms, a single-source GROUP BY
// pair refolds, and any other pair re-executes (FullRuns). Per query, the
// Stats of either sweep do not depend on the other queries of the call. Self-join delta checks are never Batched. The one
// exception to the partition is the naive path's Appendix A instance
// reduction (FastPath off), which counts as Naive only the elements on
// relations the query reads.
type Stats struct {
	Static   int // decided without any database access
	Batched  int // taken up by a batched tagged query (overlaps the rest)
	FullRuns int // decided by full query re-execution in the fast path
	Naive    int // decided by the naive per-element re-execution
	// DeltaFull / DeltaPartial split the fast path's residual database
	// checks by delta tier: decided by first-order delta terms alone vs.
	// additionally consulting a materialized intermediate (multiplicity or
	// candidate view), the higher-order self-join expansion or, for an
	// entropy hash, a group refold. Together with FullRuns they partition
	// the residual checks.
	DeltaFull, DeltaPartial int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Static += o.Static
	s.Batched += o.Batched
	s.FullRuns += o.FullRuns
	s.Naive += o.Naive
	s.DeltaFull += o.DeltaFull
	s.DeltaPartial += o.DeltaPartial
}

// Engine prices query bundles over one database and support set.
type Engine struct {
	DB      *storage.Database
	Set     *support.Set
	Total   float64
	Weights []float64
	Opts    Options

	reg checkerRegistry

	// LastStats holds the Stats of the last completed call of a probe
	// entry point — DisagreementsCtx, OutputHashesCtx, PriceCtx and
	// ApproxPriceCtx — stored once at the end of the call under statsMu.
	// It is not meaningful under concurrent callers; they use the Stats
	// the Live and Multi forms return.
	LastStats Stats
	statsMu   sync.Mutex

	// Obs, when non-nil, receives per-stage latency observations from the
	// engine and its checkers (stage_classify, stage_tagged_batch,
	// stage_residual, stage_entropy). Set by the broker; nil is a no-op.
	Obs *obs.Registry

	// weightsEpoch counts weight-vector installations. External caches
	// (the broker's quote cache) embed it in their keys so a SetWeights
	// call atomically orphans every price computed under the old vector.
	weightsEpoch uint64
}

// NewEngine builds an engine with uniform weights w_i = Total/|S| (the
// default of §3.3 when the seller provides only the full-database price).
func NewEngine(db *storage.Database, set *support.Set, total float64) *Engine {
	e := &Engine{DB: db, Set: set, Total: total, Opts: DefaultOptions()}
	e.Weights = make([]float64, set.Size())
	for i := range e.Weights {
		e.Weights[i] = total / float64(set.Size())
	}
	return e
}

// SetWeights installs seller-customized weights (from the maxent module);
// they must sum to the total price.
func (e *Engine) SetWeights(w []float64) error {
	if len(w) != e.Set.Size() {
		return fmt.Errorf("got %d weights for support set of size %d", len(w), e.Set.Size())
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			return fmt.Errorf("negative weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-e.Total) > 1e-6*(1+e.Total) {
		return fmt.Errorf("weights sum to %g, want total price %g", sum, e.Total)
	}
	e.Weights = w
	e.weightsEpoch++
	return nil
}

// WeightsEpoch returns the number of successful SetWeights calls. Cache
// keys derived from prices must include it: two calls with equal SQL but
// different epochs may price differently.
func (e *Engine) WeightsEpoch() uint64 { return e.weightsEpoch }

// RestoreWeights reinstalls a persisted weight vector together with its
// epoch counter (the broker's crash-recovery path). Validation matches
// SetWeights, but the epoch is restored instead of bumped so ledger
// records appended after the snapshot still match the recovered state.
func (e *Engine) RestoreWeights(w []float64, epoch uint64) error {
	if err := e.SetWeights(w); err != nil {
		return err
	}
	e.weightsEpoch = epoch
	return nil
}

// maxCheckers bounds the per-query checker registry: a long-lived broker
// fed a stream of unique queries would otherwise grow it without limit.
// Beyond the bound the registry resets wholesale — checkers are cheap to
// rebuild and correctness never depends on them being cached. Each
// checker keeps its query's execution index cache (join indexes, filtered
// sources) alive, about 1.4 MB per SSB query at scale 0.002, and a
// broker compiles fresh SQL into a fresh query, so most entries are never
// asked for again: the bound is what caps the engine's retained heap.
const maxCheckers = 64

// checkerRegistry caches, per compiled query, its disagreement checker —
// or nil when the query is outside the fast path — for concurrent sweeps.
// Lookups and stores take mu; checkers are built outside it and the first
// one stored wins (as in exec/cache.go), so concurrent sweeps of one query
// share one read-only checker. dbVersion is the summed table version the
// cached checkers were built against.
type checkerRegistry struct {
	mu        sync.Mutex
	checkers  map[*exec.Query]*disagree.Checker
	dbVersion uint64
}

// checker returns the disagreement checker for q, or nil when q is outside
// the fast path. A checker it has to build is cached only when keep is
// set.
func (e *Engine) checker(q *exec.Query, keep bool) *disagree.Checker {
	if !e.Opts.FastPath || e.Set.Updates == nil {
		return nil
	}
	r := &e.reg
	r.mu.Lock()
	c, ok := r.checkers[q]
	r.mu.Unlock()
	if ok {
		return c
	}
	c, err := disagree.New(q, e.DB) // nil when q is outside the fast path
	if err == nil {
		c.Obs = e.Obs
	}
	if !keep {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.checkers[q]; ok {
		return prev
	}
	if r.checkers == nil || len(r.checkers) >= maxCheckers {
		r.checkers = make(map[*exec.Query]*disagree.Checker)
	}
	r.checkers[q] = c
	return c
}

// InvalidateCache drops cached per-query state; call after mutating the
// underlying database outside the pricing engine. Sweeps in flight keep
// the checkers they already hold.
func (e *Engine) InvalidateCache() {
	e.reg.mu.Lock()
	e.reg.checkers = nil
	e.reg.mu.Unlock()
}

// RefreshCache invalidates the cached per-query state when the summed
// table version counters moved since the last call — the database was
// mutated outside the engine. Safe under concurrent sweeps.
func (e *Engine) RefreshCache() {
	var v uint64
	for _, t := range e.DB.Tables {
		v += t.Version()
	}
	e.reg.mu.Lock()
	if v != e.reg.dbVersion {
		e.reg.checkers = nil
		e.reg.dbVersion = v
	}
	e.reg.mu.Unlock()
}

// setLastStats stores a probe entry point's Stats at the end of its call.
func (e *Engine) setLastStats(s Stats) {
	e.statsMu.Lock()
	e.LastStats = s
	e.statsMu.Unlock()
}

// DisagreementsCtx computes, for each live support element, whether it
// disagrees with D on the bundle (i.e. some query of the bundle tells the
// two databases apart), leaving the call's Stats in LastStats. Elements
// with live[i]=false are skipped (history-aware pricing); live may be
// nil. See DisagreementsLiveCtx for the cancellation contract.
func (e *Engine) DisagreementsCtx(ctx context.Context, qs []*exec.Query, live []bool) ([]bool, error) {
	dis, s, err := e.DisagreementsLiveCtx(ctx, qs, live)
	if err != nil {
		return nil, err
	}
	e.setLastStats(s)
	return dis, nil
}

// DisagreementsLiveCtx computes the bundle's disagreement bitmap over the
// live elements (nil live = all) and returns it with the summed Stats.
// The bundle is a fold over the single-query sweep
// (DisagreementsMultiLiveCtx at k = 1): the first query's bitmap starts
// the bundle's, each later query sweeps only the live elements no earlier
// one already told apart, and the Stats sum the per-query Stats. Every
// evaluation path polls ctx between elements and aborts mid-sweep with
// ctx.Err(); a cancelled call leaves no partial state behind — the next
// call recomputes from scratch.
func (e *Engine) DisagreementsLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([]bool, Stats, error) {
	var sum Stats
	var out []bool
	for n := range qs {
		mask := live
		if n > 0 {
			mask = make([]bool, len(out))
			any := false
			for i := range mask {
				mask[i] = (live == nil || live[i]) && !out[i]
				any = any || mask[i]
			}
			if !any {
				break
			}
		}
		res, stats, err := e.DisagreementsMultiLiveCtx(ctx, qs[n:n+1], mask)
		if err != nil {
			return nil, Stats{}, err
		}
		if n == 0 {
			out = res[0]
		} else {
			for i, d := range res[0] {
				out[i] = out[i] || d
			}
		}
		sum.Add(stats[0])
	}
	if out == nil {
		out = make([]bool, e.Set.Size())
	}
	return out, sum, nil
}

// checkerStats converts the counts of one checker sweep and exports its
// per-tier residual-check counts to the observability registry
// (nil-safe); the counters feed the broker's /metrics endpoint.
func (e *Engine) checkerStats(s disagree.CheckStats) Stats {
	e.Obs.Add("checker_delta_full", uint64(s.DeltaFullRuns))
	e.Obs.Add("checker_delta_partial", uint64(s.DeltaPartialRuns))
	e.Obs.Add("checker_delta_fallback", uint64(s.FullRuns))
	return Stats{Static: s.Static, Batched: s.Batched, FullRuns: s.FullRuns,
		DeltaFull: s.DeltaFullRuns, DeltaPartial: s.DeltaPartialRuns}
}

// reducedRel is one relation's Appendix A reduction: the touched base rows
// (aliased, never written), the position of each base row index inside the
// reduced slice, and the baseline output hash over the reduced instance.
type reducedRel struct {
	rows     [][]value.Value
	pos      map[int]int
	baseline uint64
}

// reducedDisagree implements the instance-reduction optimization of
// Appendix A (Lemma A.3): for SPJ queries, an update on relation R changes
// Q(D) iff it changes Q(D with R reduced to the rows the support set
// touches). It returns ok=false when the query is ineligible, else the
// number n of elements it re-executed (live updates of a relation Q reads;
// the others cannot disagree).
//
// Each element's check substitutes its updated tuples into a private copy
// of the (tiny) reduced relation, so the base database stays read-only and
// the per-element checks parallelize across workers.
func (e *Engine) reducedDisagree(ctx context.Context, q *exec.Query, live, out []bool) (ok bool, n int, err error) {
	s, err := plan.Extract(q.A)
	if err != nil || s.IsAgg || s.Distinct {
		// The reduction lemma is a multiset-locality argument: DISTINCT
		// breaks it because an untouched duplicate outside the reduced
		// instance can absorb a removal that looks visible inside it.
		return false, 0, nil
	}
	inQuery := make(map[string]bool)
	for _, rel := range s.RelOfSource {
		rel = ast.LowerName(rel)
		if inQuery[rel] {
			// Self-join: reducing the relation shrinks BOTH occurrences, so
			// an update loses its untouched join partners — ineligible.
			return false, 0, nil
		}
		inQuery[rel] = true
	}
	// Collect the touched row set per relation and the elements to check.
	touched := make(map[string]map[int]bool)
	var idxs []int
	for i, u := range e.Set.Updates {
		if live != nil && !live[i] {
			continue
		}
		rel := u.LowerRel()
		if !inQuery[rel] {
			continue // cannot disagree
		}
		idxs = append(idxs, i)
		m := touched[rel]
		if m == nil {
			m = make(map[int]bool)
			touched[rel] = m
		}
		m[u.Row1] = true
		if u.Swap {
			m[u.Row2] = true
		}
	}
	reduced := make(map[string]*reducedRel)
	for rel, rows := range touched {
		t := e.DB.Table(rel)
		rr := &reducedRel{pos: make(map[int]int, len(rows))}
		for ri := range t.Rows { // deterministic order
			if rows[ri] {
				rr.pos[ri] = len(rr.rows)
				rr.rows = append(rr.rows, t.Rows[ri])
			}
		}
		res, err := q.RunOverride(e.DB, exec.Overrides{rel: rr.rows})
		if err != nil {
			return true, 0, err
		}
		rr.baseline = res.Hash()
		reduced[rel] = rr
	}
	if len(idxs) == 0 {
		return true, 0, nil
	}
	workers := pool.Clamp(e.parallelWorkers(), len(idxs))
	scratch := make([]map[string][][]value.Value, workers)
	err = pool.RunWorkersCtx(ctx, workers, len(idxs), func(w, k int) error {
		i := idxs[k]
		u := e.Set.Updates[i]
		rel := u.LowerRel()
		rr := reduced[rel]
		if scratch[w] == nil {
			scratch[w] = make(map[string][][]value.Value)
		}
		cp := scratch[w][rel]
		if cp == nil {
			cp = make([][]value.Value, len(rr.rows))
			copy(cp, rr.rows)
			scratch[w][rel] = cp
		}
		plus := u.PlusRows(e.DB)
		p1 := rr.pos[u.Row1]
		cp[p1] = plus[0]
		p2 := -1
		if u.Swap {
			p2 = rr.pos[u.Row2]
			cp[p2] = plus[1]
		}
		res, rerr := q.RunOverride(e.DB, exec.Overrides{rel: cp})
		cp[p1] = rr.rows[p1]
		if p2 >= 0 {
			cp[p2] = rr.rows[p2]
		}
		if rerr != nil {
			return rerr
		}
		if res.Hash() != rr.baseline {
			out[i] = true
		}
		return nil
	})
	if err != nil {
		return true, 0, err
	}
	return true, len(idxs), nil
}

// OutputHashesCtx runs the bundle on D and every support element,
// returning the combined output hash per element plus the hash for D
// itself, and leaves the call's Stats in LastStats. The entropy pricing
// functions partition S by these hashes. The per-element sweep polls ctx
// and aborts mid-sweep with ctx.Err().
func (e *Engine) OutputHashesCtx(ctx context.Context, qs []*exec.Query) (elems []uint64, base uint64, err error) {
	elems, base, s, err := e.OutputHashesLiveCtx(ctx, qs, nil)
	if err != nil {
		return nil, 0, err
	}
	e.setLastStats(s)
	return elems, base, nil
}

// OutputHashesLiveCtx is OutputHashesCtx restricted to the live elements
// (nil live = all), returning the call's Stats: the sum of the bundle's
// per-query Stats. An element's hash combines the per-query hashes the
// k-query sweep computes for it (see sweep), so it is bit-identical to the
// full sweep's for every live i. Skipped elements keep a zero hash and
// count nowhere, so the stats of disjoint covering masks sum exactly to
// one full sweep's, the invariant the sharded cluster's fold relies on.
func (e *Engine) OutputHashesLiveCtx(ctx context.Context, qs []*exec.Query, live []bool) ([]uint64, uint64, Stats, error) {
	_, raw, bases, stats, err := e.sweep(ctx, qs, live, true)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	elems := make([]uint64, e.Set.Size())
	hs := make([]uint64, len(qs))
	for i := range elems {
		if live != nil && !live[i] {
			continue
		}
		for j := range raw {
			hs[j] = raw[j][i]
		}
		elems[i] = combine(hs)
	}
	var sum Stats
	for _, s := range stats {
		sum.Add(s)
	}
	return elems, combine(bases), sum, nil
}

// combine folds per-query output hashes into one: FNV-1a over their
// little-endian bytes.
func combine(hs []uint64) uint64 {
	h := uint64(value.HashSeed)
	for _, x := range hs {
		h = value.HashU64(h, x)
	}
	return h
}

// PriceCtx computes the bundle price under the chosen pricing function,
// scaled so that the bundle retrieving the full database costs Total,
// and leaves the call's Stats in LastStats; see DisagreementsLiveCtx for
// the cancellation contract.
func (e *Engine) PriceCtx(ctx context.Context, fn Func, qs ...*exec.Query) (float64, error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("empty query bundle")
	}
	var p float64
	var s Stats
	switch fn {
	case WeightedCoverage, UniformEntropyGain:
		dis, stats, err := e.DisagreementsLiveCtx(ctx, qs, nil)
		if err != nil {
			return 0, err
		}
		if p, err = e.PriceFromDisagreements(fn, dis); err != nil {
			return 0, err
		}
		s = stats
	case ShannonEntropy, QEntropy:
		hashes, _, stats, err := e.OutputHashesLiveCtx(ctx, qs, nil)
		if err != nil {
			return 0, err
		}
		p, s = e.entropyPrice(fn, hashes), stats
	default:
		return 0, fmt.Errorf("unknown pricing function %v", fn)
	}
	e.setLastStats(s)
	return p, nil
}

// PriceFromDisagreements turns a disagreement bitmap into a price under a
// coverage-style function, using exactly the summation of Price — same
// elements, same index order, same float additions — so a price recomputed
// from a cached bitmap is bit-identical to the cold computation. Only
// WeightedCoverage and UniformEntropyGain are derivable from the bitmap.
func (e *Engine) PriceFromDisagreements(fn Func, dis []bool) (float64, error) {
	if len(dis) != e.Set.Size() {
		return 0, fmt.Errorf("got %d disagreement bits for support set of size %d", len(dis), e.Set.Size())
	}
	switch fn {
	case WeightedCoverage:
		p := 0.0
		for i, d := range dis {
			if d {
				p += e.Weights[i]
			}
		}
		return p, nil
	case UniformEntropyGain:
		d := 0
		for _, x := range dis {
			if x {
				d++
			}
		}
		return e.scaleUEG(d), nil
	}
	return 0, fmt.Errorf("pricing function %v is not derivable from a disagreement bitmap", fn)
}

// PricesFromHashes derives all four pricing functions from one pass of
// per-element output hashes (as returned by OutputHashes). The benchmark
// harness uses it to sweep the 8 function × support combinations of
// Figures 2 and 6 without re-running the bundle per function.
func (e *Engine) PricesFromHashes(hashes []uint64, base uint64) map[Func]float64 {
	out := make(map[Func]float64, 4)
	cov, d := 0.0, 0
	for i, h := range hashes {
		if h != base {
			cov += e.Weights[i]
			d++
		}
	}
	out[WeightedCoverage] = cov
	out[UniformEntropyGain] = e.scaleUEG(d)
	out[ShannonEntropy] = e.entropyPrice(ShannonEntropy, hashes)
	out[QEntropy] = e.entropyPrice(QEntropy, hashes)
	return out
}

// EntropyPriceFromHashes turns a full per-element output-hash vector (as
// returned by OutputHashes) into a Shannon or Tsallis entropy price,
// using exactly the block accumulation of Price — first-appearance order,
// same float additions — so a price folded from per-shard hash slices
// concatenated in index order is bit-identical to the single-node
// computation. Only ShannonEntropy and QEntropy partition by hash.
func (e *Engine) EntropyPriceFromHashes(fn Func, hashes []uint64) (float64, error) {
	if len(hashes) != e.Set.Size() {
		return 0, fmt.Errorf("got %d output hashes for support set of size %d", len(hashes), e.Set.Size())
	}
	switch fn {
	case ShannonEntropy, QEntropy:
		return e.entropyPrice(fn, hashes), nil
	}
	return 0, fmt.Errorf("pricing function %v is not derivable from output hashes alone", fn)
}

func (e *Engine) scaleUEG(d int) float64 {
	s := e.Set.Size()
	if d == 0 || s <= 1 {
		return 0
	}
	return e.Total * math.Log(float64(d)) / math.Log(float64(s))
}

// entropyPrice computes p_H or p_T over the partition of S induced by the
// output hashes, normalized so that the all-singletons partition (achieved
// by Q_all) prices at Total.
func (e *Engine) entropyPrice(fn Func, hashes []uint64) float64 {
	// Blocks accumulate and sum in first-appearance order (not map
	// iteration order) so the floating-point result is bit-identical
	// across runs — part of the engine's determinism guarantee.
	blocks := make(map[uint64]float64)
	var order []uint64
	for i, h := range hashes {
		if _, seen := blocks[h]; !seen {
			order = append(order, h)
		}
		blocks[h] += e.Weights[i] / e.Total
	}
	var v, vmax float64
	switch fn {
	case ShannonEntropy:
		for _, h := range order {
			if w := blocks[h]; w > 0 {
				v -= w * math.Log(w)
			}
		}
		for i := range hashes {
			w := e.Weights[i] / e.Total
			if w > 0 {
				vmax -= w * math.Log(w)
			}
		}
	case QEntropy:
		for _, h := range order {
			w := blocks[h]
			v += w * (1 - w)
		}
		for i := range hashes {
			w := e.Weights[i] / e.Total
			vmax += w * (1 - w)
		}
	}
	if vmax <= 0 {
		return 0
	}
	p := e.Total * v / vmax
	// Clamp float noise: a single-block partition is exactly free.
	if p < 1e-9*e.Total {
		return 0
	}
	if p > e.Total {
		return e.Total
	}
	return p
}
