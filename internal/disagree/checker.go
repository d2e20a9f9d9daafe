// Package disagree implements the optimized disagreement checking of
// paper §4: given a query Q over database D and a row/swap update up↑,
// decide whether Q(D) ≠ Q(up↑(D)) without re-running Q on the full
// database.
//
// The checker covers SPJ queries under bag semantics (Algorithm 4 for row
// updates, Algorithm 6 for swap updates), their DISTINCT forms, self-joins,
// and the aggregation extensions γ_{G, COUNT/SUM/AVG/MIN/MAX} (Algorithm 5,
// §4.3), including the batching optimization of §4.2 that answers the
// residual database checks for a whole batch of updates with a constant
// number of tagged queries per relation.
//
// Residual database checks route through a tier matrix (analyze.DeltaTier)
// rather than a boolean fallback:
//
//   - DeltaFull: the relation occurs once and the query is a plain bag SPJ
//     — the two first-order delta terms decide the check outright.
//   - DeltaPartial: DISTINCT queries and self-joins. The delta terms (for
//     self-joins, the higher-order 3^k−1 expansion of exec.RunDelta) are
//     resolved against materialized intermediates the checker folds in
//     its construction pass (exec/ivm.go): a core-row multiplicity view for
//     DISTINCT, per-group aggregate state with MIN/MAX candidate multisets
//     for aggregation — so extremum removals, previously an unconditional
//     full re-run, resolve incrementally.
//   - Fallback (full re-run) remains only for floating-point borderline
//     cases and view inconsistencies.
//
// Stats counts each residual check under exactly one of these tiers.
//
// Two of the paper's static shortcuts (line 8/10 "B ∩ A ≠ ∅ ⇒ changed")
// are not exact in corner cases — a swap of two projected values can leave
// the output multiset unchanged, and a value change buried in a computed
// expression can be absorbed — so this implementation applies them only
// where they are provably exact (row updates on bare projected columns of
// single-occurrence non-DISTINCT queries) and otherwise falls through to
// the compare check, keeping the fast path equivalent to brute-force
// re-execution (differentially tested).
package disagree

import (
	"fmt"
	"math"
	"sync"

	"qirana/internal/obs"
	"qirana/internal/result"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Outcome of a static classification.
type Outcome int

// Classification results: a definite answer, or a required database check.
const (
	Agree Outcome = iota
	Disagree
	// NeedPlus requires the check Q((D \ R) ∪ {u⁺}) ≟ ∅ (Algorithm 4,
	// line 14 / Algorithm 5, line 16). Batchable.
	NeedPlus
	// NeedCompare requires comparing the runs over {u⁻} and {u⁺}
	// (Algorithm 4, line 11), or the aggregate group-delta analysis for
	// aggregation queries. Batchable.
	NeedCompare
	// NeedFull requires re-running the full query on the updated database
	// (floating-point borderline cases, candidate-view inconsistencies).
	NeedFull
)

// CheckStats counts how each update of one Check or CheckBatch call was
// decided (reported by experiments). The counts depend only on the
// updates and the mask, never on the worker count or on other calls.
type CheckStats struct {
	Static, Batched, FullRuns int
	// DeltaFullRuns counts residual checks decided by the first-order
	// delta terms alone (tier DeltaFull); DeltaPartialRuns counts checks
	// that additionally consulted a materialized intermediate or the
	// higher-order self-join expansion (tier DeltaPartial). Together with
	// FullRuns they partition the residual checks: every check lands in
	// exactly one of the three.
	DeltaFullRuns, DeltaPartialRuns int
}

// Add accumulates o into s.
func (s *CheckStats) Add(o CheckStats) {
	s.Static += o.Static
	s.Batched += o.Batched
	s.FullRuns += o.FullRuns
	s.DeltaFullRuns += o.DeltaFullRuns
	s.DeltaPartialRuns += o.DeltaPartialRuns
}

// Checker decides disagreements for one query over one database, as the
// database stood when New built it. It is built once per priced query
// from one join of checkQuery (the unrolled query for aggregates, the
// query itself otherwise): the joined tuples give every source's
// contributing primary keys and the group or multiplicity view, and the
// join primes the execution cache the residual checks run on. A Checker
// is read-only after New — every call returns its own counts — so any
// number of Check and CheckBatch calls share one concurrently.
type Checker struct {
	Q   *exec.Query
	SPJ *plan.SPJ
	db  *storage.Database

	unrolledQ *exec.Query

	contrib []map[string]bool      // per source: contributing PK set
	srcsOf  map[string][]int       // lower(rel) -> source indexes, FROM order
	multi   map[string]bool        // lower(rel) -> occurs more than once
	gv      *exec.GroupView        // aggregates: per-group state of Q◦γ
	mv      *exec.MultiplicityView // DISTINCT: core-row multiplicities

	// base is h(Q(D)), computed by the first residual full run that needs
	// it; the Once makes the fill safe under concurrent calls.
	baseOnce sync.Once
	baseHash uint64
	baseErr  error

	// Obs, when non-nil, receives per-stage latency observations
	// (stage_classify, stage_tagged_batch, stage_residual)
	// from every CheckBatch. Set by the pricing engine before the checker
	// is shared; nil costs a branch.
	Obs *obs.Registry
}

// New builds a checker, or returns an error when the query is outside the
// fast path (the caller then prices naively, as the paper's system does).
func New(q *exec.Query, db *storage.Database) (*Checker, error) {
	s, err := plan.Extract(q.A)
	if err != nil {
		return nil, err
	}
	c := &Checker{Q: q, SPJ: s, db: db,
		srcsOf: make(map[string][]int), multi: make(map[string]bool)}
	for i, rel := range s.RelOfSource {
		l := ast.LowerName(rel)
		c.srcsOf[l] = append(c.srcsOf[l], i)
		if len(c.srcsOf[l]) > 1 {
			c.multi[l] = true
		}
	}
	if s.IsAgg {
		c.unrolledQ, err = exec.CompileStmt(s.UnrolledStmt, db.Schema)
		if err != nil {
			return nil, fmt.Errorf("compile unrolled query: %w", err)
		}
	}
	// One join of the query the residual checks run gives the contribution
	// sets and the view a check reads its correction terms against (the
	// group view of an aggregate, the multiplicity view of a DISTINCT
	// query), and leaves the filtered sources and join indexes in the
	// cache the first tagged job reads.
	j, err := c.checkQuery().Join(db)
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", c.checkQuery().SQL, err)
	}
	c.contrib = j.Contributions()
	if s.IsAgg {
		spec := exec.GroupViewSpec{NumGroups: s.NumGroups}
		for _, ag := range s.Aggs {
			spec.Aggs = append(spec.Aggs, exec.ViewAgg{Fn: ag.Fn.Name, ArgCol: ag.ArgCol})
		}
		if c.gv, err = j.GroupView(spec); err != nil {
			return nil, fmt.Errorf("group view of %s: %w", c.unrolledQ.SQL, err)
		}
	}
	if s.Distinct {
		if c.mv, err = j.MultiplicityView(); err != nil {
			return nil, fmt.Errorf("multiplicity view of %s: %w", q.SQL, err)
		}
	}
	return c, nil
}

// Classify makes the static decision of Algorithms 4/5/6 for one update,
// without touching the database.
func (c *Checker) Classify(u *support.Update) Outcome {
	var sc Scratch
	return c.classify(u, &sc)
}

// Scratch is the state a worker reuses from one element's classification
// to the next: the element's u⁺ tuples, written over one value slab, and
// the evaluator of the single-relation conjuncts. Nothing in it outlives
// the element it is filled for, and one goroutine owns it.
type Scratch struct {
	u    *support.Update // the update plus holds, nil before the first
	plus [][]value.Value
	slab []value.Value
	eval exec.SourceEval
}

// plusRows returns u's u⁺ tuples, building them over the slab on the
// first call for u, so the checkers of one sweep share them; a call for
// another update overwrites them.
func (sc *Scratch) plusRows(db *storage.Database, u *support.Update) [][]value.Value {
	if sc.u == u {
		return sc.plus
	}
	t := db.Table(u.Rel)
	n, arity := u.NumRows(), t.Rel.Arity()
	if len(sc.slab) < n*arity {
		sc.slab = make([]value.Value, 2*arity) // room for a swap's two rows
	}
	sc.plus = sc.plus[:0]
	for k := 0; k < n; k++ {
		row := sc.slab[k*arity : (k+1)*arity : (k+1)*arity]
		u.FillRow(row, t, k, true)
		sc.plus = append(sc.plus, row)
	}
	sc.u = u
	return sc.plus
}

// classify is Classify with the update's u⁺ tuples held in the caller's
// scratch: the first satisfiability check that needs them builds them,
// every later one — of this or of another checker of the same sweep —
// reuses them, and an update on a relation or of columns the query never
// reads leaves them unbuilt.
func (c *Checker) classify(u *support.Update, sc *Scratch) Outcome {
	srcs, ok := c.srcsOf[u.LowerRel()]
	if !ok {
		return Agree // the update does not modify any relation of Q
	}
	if !c.readsAny(u, srcs) {
		// Every row keeps, at its position, every value Q evaluates, so
		// Q(u(D)) is Q(D) bit for bit, floats included.
		return Agree
	}
	k1, k2 := u.RowKeys(c.db.Table(u.Rel))
	// Contributing at ANY occurrence: for self-joins the same tuple feeds
	// every slot the relation occupies.
	contributing := false
	for _, si := range srcs {
		if c.contrib[si][k1] || (u.Swap && c.contrib[si][k2]) {
			contributing = true
			break
		}
	}

	if !contributing {
		// u⁻ contributed nothing; the output changes iff u⁺ contributes.
		// If every new tuple already fails a single-relation conjunct at
		// EVERY occurrence, it cannot contribute: agree without a check.
		if c.allPlusUnsat(u, srcs, sc) {
			return Agree
		}
		return NeedPlus
	}

	single := len(srcs) == 1
	if !c.SPJ.IsAgg {
		if !u.Swap {
			// Row update, contributing. Exact shortcuts of Algorithm 4,
			// applied only where they remain exact: a changed attribute
			// that is itself an output column forces a multiset change —
			// but only for a single occurrence (another occurrence can
			// re-produce the row) and without DISTINCT (the set can absorb
			// it). An unsatisfiable C[u⁺] removes output rows — exact for
			// any occurrence count, but again only under bag semantics.
			if single && !c.SPJ.Distinct {
				for j, a := range u.Attrs {
					if c.SPJ.BareProj[srcs[0]][a] && changedAt(u, j) {
						return Disagree
					}
				}
			}
			if !c.SPJ.Distinct && c.plusRowUnsatAll(u, srcs, 0, sc) {
				return Disagree
			}
		} else {
			// Swap update, contributing (Algorithm 6): if both new tuples
			// fail C at every occurrence, all contributed rows vanish.
			if !c.SPJ.Distinct &&
				c.plusRowUnsatAll(u, srcs, 0, sc) && c.plusRowUnsatAll(u, srcs, 1, sc) {
				return Disagree
			}
		}
		return NeedCompare
	}

	// Aggregation. Exact shortcut: a contributing row update that changes
	// a bare grouping column moves its contributions to different groups;
	// if COUNT(*) is displayed, the old groups' counts provably drop. Only
	// exact for a single occurrence (a self-join's other slots may keep
	// the old group populated at the same count).
	if !u.Swap && c.SPJ.HasCountStar && single {
		for j, a := range u.Attrs {
			if c.SPJ.BareGroup[srcs[0]][a] && changedAt(u, j) {
				return Disagree
			}
		}
	}
	return NeedCompare
}

// readsAny reports whether u writes an attribute the query reads at some
// occurrence srcs of u's relation (the paper's B against every attribute
// Q reads, not only the projected ones).
func (c *Checker) readsAny(u *support.Update, srcs []int) bool {
	for _, a := range u.Attrs {
		for _, si := range srcs {
			if c.SPJ.Reads[si][a] {
				return true
			}
		}
	}
	return false
}

// changedAt reports whether the j-th touched attribute actually takes a
// different value. Generated support sets never contain no-op writes, but
// hand-built updates (and the fuzzer) can, and the Disagree shortcuts above
// are only exact for real changes.
func changedAt(u *support.Update, j int) bool {
	var a, b [32]byte
	return string(value.AppendKey(a[:0], u.Old1[j:j+1])) != string(value.AppendKey(b[:0], u.New1[j:j+1]))
}

// allPlusUnsat reports whether every u⁺ tuple fails some single-relation
// conjunct at every occurrence of the updated relation (the conservative
// C[u⁺] satisfiability check of §4.1).
func (c *Checker) allPlusUnsat(u *support.Update, srcs []int, sc *Scratch) bool {
	if !c.plusRowUnsatAll(u, srcs, 0, sc) {
		return false
	}
	if u.Swap && !c.plusRowUnsatAll(u, srcs, 1, sc) {
		return false
	}
	return true
}

// plusRowUnsatAll reports whether the idx-th new tuple provably cannot
// contribute at ANY occurrence of the updated relation: each occurrence
// must fail one of its single-relation conjuncts.
func (c *Checker) plusRowUnsatAll(u *support.Update, srcs []int, idx int, sc *Scratch) bool {
	rows := sc.plusRows(c.db, u)
	if idx >= len(rows) {
		return false
	}
	for _, si := range srcs {
		if !c.rowUnsatAt(si, rows[idx], &sc.eval) {
			return false
		}
	}
	return true
}

// rowUnsatAt evaluates source si's single-relation conjuncts on row; any
// non-true conjunct proves the row cannot contribute at that occurrence.
func (c *Checker) rowUnsatAt(si int, row []value.Value, ev *exec.SourceEval) bool {
	conjs := c.SPJ.SingleRel[si]
	if len(conjs) == 0 {
		return false
	}
	for _, cj := range conjs {
		v, err := ev.Eval(c.Q, c.db, si, row, cj)
		if err != nil {
			return false // be conservative
		}
		if value.TristateOf(v) != value.True {
			return true
		}
	}
	return false
}

// Check fully decides one update, resolving any needed database checks
// individually (the "no batching" mode of Figure 5), and returns the
// counts of how it was decided.
func (c *Checker) Check(u *support.Update) (bool, CheckStats, error) {
	var s CheckStats
	var dis bool
	var err error
	switch c.Classify(u) {
	case Agree:
		s.Static++
	case Disagree:
		s.Static++
		dis = true
	case NeedPlus:
		dis, err = c.resolve(u, false, &s)
	case NeedCompare:
		dis, err = c.resolve(u, true, &s)
	default:
		dis, err = c.fullRun(u, &s)
	}
	return dis, s, err
}

// checkQuery is the query a residual database check runs: the priced query
// itself for SPJ, its unrolled form (a plain SPJ over the same joins) for
// aggregates.
func (c *Checker) checkQuery() *exec.Query {
	if c.SPJ.IsAgg {
		return c.unrolledQ
	}
	return c.Q
}

// resolve answers one residual check through the delta tiers, escalating
// to a full re-run when decide cannot give an exact answer, and accounts
// the check under exactly one tier of s.
func (c *Checker) resolve(u *support.Update, compare bool, s *CheckStats) (bool, error) {
	dis, esc, partial, err := c.decide(u, compare)
	if err != nil {
		return false, err
	}
	if esc {
		return c.fullRun(u, s)
	}
	if partial {
		s.DeltaPartialRuns++
	} else {
		s.DeltaFullRuns++
	}
	return dis, nil
}

// decide resolves one residual database check through delta evaluation:
// only the update's ± tuples flow through the join pipeline, probing the
// cached indexes of the untouched relations, and verdict reads the
// correction terms. compare selects the NeedCompare form (both sides) over
// the NeedPlus form (u⁺ only). It returns what verdict returns.
func (c *Checker) decide(u *support.Update, compare bool) (dis, esc, partial bool, err error) {
	q, rel := c.checkQuery(), u.LowerRel()
	if q.DeltaTier(rel) == analyze.DeltaNone {
		return false, true, false, nil
	}
	var minus [][]value.Value
	if compare {
		minus = u.MinusRows(c.db)
	}
	outMinus, outPlus, err := q.RunDelta(c.db, rel, minus, u.PlusRows(c.db))
	if err != nil {
		return false, false, false, err
	}
	return c.verdict(u, outMinus, outPlus)
}

// verdict reads the correction terms of one residual check of update u —
// m and p, the u⁻ and u⁺ terms of RunDelta, or u's upid's of RunTagged; m
// is empty for a NeedPlus check — per tier: directly for plain bag SPJ,
// against the multiplicity view for DISTINCT, through the group-delta
// analysis (with candidate multisets) against the group view for
// aggregates.
//
// Returns the disagreement bit, esc=true when only a full re-run can
// answer exactly, and partial=true when a materialized intermediate or
// the higher-order self-join expansion was consulted (tier accounting).
func (c *Checker) verdict(u *support.Update, m, p [][]value.Value) (dis, esc, partial bool, err error) {
	multi := c.multi[u.LowerRel()]
	switch {
	case c.SPJ.Distinct:
		left, entered := distinctFlips(c.mv, m, p)
		return left.N+entered.N > 0, false, true, nil
	case !c.SPJ.IsAgg:
		// Q(up(D)) = Q(D) − m + p as signed multisets, so the outputs
		// differ iff the two correction terms differ.
		return !equalMultiset(m, p), false, multi, nil
	}
	if o, usedCand := c.aggDelta(c.gv, m, p); o != NeedFull {
		return o == Disagree, false, multi || usedCand, nil
	}
	if same, err := c.unmoved(u); err != nil || same {
		return false, false, false, err
	}
	return false, true, false, nil
}

// unmoved reports whether u leaves every row it touches contributing to a
// single-source aggregate query exactly what the row contributed before.
// The scan meets each row at its own position, so the groups then fold the
// same inputs in the same order and the output is bit-identical, floats
// included. It is the cheap exact answer, one delta run per touched row,
// for what aggDelta's netting leaves undecided, such as a swap of rows
// whose read columns are equal or a row update of columns Q never reads.
func (c *Checker) unmoved(u *support.Update) (bool, error) {
	q, rel := c.unrolledQ, u.LowerRel()
	if q == nil || len(c.SPJ.RelOfSource) != 1 || q.DeltaTier(rel) == analyze.DeltaNone {
		return false, nil
	}
	minus, plus := u.MinusRows(c.db), u.PlusRows(c.db)
	for k := range minus {
		m, p, err := q.RunDelta(c.db, rel, minus[k:k+1], plus[k:k+1])
		if err != nil || !equalMultiset(m, p) {
			return false, err
		}
	}
	return true, nil
}

// distinctFlips nets the core-row correction terms against the base
// multiplicity view and returns the Parts of the projected rows whose
// multiplicity crosses zero: left, the rows the DISTINCT output (a set)
// loses, and entered, the rows it gains. The output changes iff either is
// non-empty, and its new Parts are the base's minus left plus entered: a
// row's hash depends only on its key, so any row of a key stands for it.
// Order-independent, hence deterministic under any worker count.
func distinctFlips(mv *exec.MultiplicityView, outMinus, outPlus [][]value.Value) (left, entered result.Parts) {
	ids := make(map[string]int, len(outPlus)+len(outMinus))
	var keys []string
	var rows [][]value.Value
	var net []int
	var buf [64]byte
	key := buf[:0]
	for x, side := range [2][][]value.Value{outPlus, outMinus} {
		d := 1 - 2*x // +1 for outPlus, -1 for outMinus
		for _, r := range side {
			key = value.AppendKey(key[:0], r)
			if id, ok := ids[string(key)]; ok {
				net[id] += d
				continue
			}
			k := string(key)
			ids[k] = len(net)
			keys = append(keys, k)
			rows = append(rows, r)
			net = append(net, d)
		}
	}
	for id, d := range net {
		if d == 0 {
			continue
		}
		switch old := mv.Counts[keys[id]]; {
		case old > 0 && old+d <= 0:
			left = left.Add(result.PartsOf(rows[id : id+1]))
		case old <= 0 && old+d > 0:
			entered = entered.Add(result.PartsOf(rows[id : id+1]))
		}
	}
	return left, entered
}

// base returns h(Q(D)), running Q once per checker however many calls
// ask concurrently.
func (c *Checker) base() (uint64, error) {
	c.baseOnce.Do(func() {
		res, err := c.Q.Run(c.db)
		if err != nil {
			c.baseErr = err
			return
		}
		c.baseHash = res.Hash()
	})
	return c.baseHash, c.baseErr
}

// fullRun re-executes Q over the updated instance and compares output
// hashes (Algorithm 1's inner loop for a single element), counting the
// run in s.
func (c *Checker) fullRun(u *support.Update, s *CheckStats) (bool, error) {
	s.FullRuns++
	base, err := c.base()
	if err != nil {
		return false, err
	}
	h, err := c.fullRunOn(storage.NewOverlay(c.db), u)
	return h != base, err
}

// fullRunOn evaluates one residual full check through a (per-worker,
// reusable) overlay and returns the output hash over u(D): the update is
// realized as a copy-on-write view, so the base database is never written
// and checks run concurrently. The caller accounts the run itself.
func (c *Checker) fullRunOn(o *storage.Overlay, u *support.Update) (uint64, error) {
	u.ApplyOverlay(o)
	res, err := c.Q.RunOverride(c.db, o.Overrides())
	u.UndoOverlay(o)
	if err != nil {
		return 0, err
	}
	return res.Hash(), nil
}

// equalMultiset compares two row bags exactly.
func equalMultiset(a, b [][]value.Value) bool {
	ra := result.Result{Rows: a}
	rb := result.Result{Rows: b}
	return ra.Equal(&rb)
}

const floatEps = 1e-9

// deltaAcc accumulates the per-group contribution deltas of one update.
// For self-joins the higher-order expansion produces SIGNED terms — either
// side may overshoot, only the net per-row count is meaningful — so every
// decision below is made on add−rem nets, never on one side alone.
type deltaAcc struct {
	addRows, remRows int64
	aggs             []aggNet // per aggregate
}

// aggNet is one aggregate's part of a group's contribution delta.
type aggNet struct {
	addN, remN       int64
	addSum, remSum   float64
	addVals, remVals []value.Value // added/removed values (MIN/MAX)
	// floats marks a SUM/AVG aggregate that saw a float value added or
	// removed. Exec sums floats in row order, so a float net of exactly
	// zero may still be a reordering that moves the result's last bit;
	// integer sums are exact in any order.
	floats bool
}

// aggDelta decides whether applying an update whose removed contributions
// are minus and added contributions are plus (rows of the unrolled query)
// changes the aggregation output, given the maintained group view of the
// base state. It is exact except for floating-point borderline cases
// (including float SUM/AVG inputs that move but net to zero: exec re-sums
// them in row order, which can change the last bit), inconsistencies
// between the correction terms and the view (possible only through
// overshooting self-join terms), and extremum removals the candidate
// multiset cannot resolve; those return NeedFull. usedCand reports
// whether a candidate multiset resolved an extremum removal (the partial
// tier).
func (c *Checker) aggDelta(gv *exec.GroupView, minus, plus [][]value.Value) (out Outcome, usedCand bool) {
	s := c.SPJ
	na := len(s.Aggs)
	deltas := make(map[string]*deltaAcc)
	var order []string
	var buf [64]byte
	key := buf[:0]
	// get returns the accumulator of row's group; only a group's first
	// row allocates its key string.
	get := func(row []value.Value) *deltaAcc {
		key = value.AppendKey(key[:0], row[:s.NumGroups])
		if d := deltas[string(key)]; d != nil {
			return d
		}
		d := &deltaAcc{aggs: make([]aggNet, na)}
		k := string(key)
		deltas[k] = d
		order = append(order, k)
		return d
	}
	for _, row := range minus {
		d := get(row)
		d.remRows++
		for j, ag := range s.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			a := &d.aggs[j]
			a.remN++
			switch ag.Fn.Name {
			case "SUM", "AVG":
				a.remSum += v.AsFloat()
				a.floats = a.floats || v.K == value.KindFloat
			case "MIN", "MAX":
				a.remVals = append(a.remVals, v)
			}
		}
	}
	for _, row := range plus {
		d := get(row)
		d.addRows++
		for j, ag := range s.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			a := &d.aggs[j]
			a.addN++
			switch ag.Fn.Name {
			case "SUM", "AVG":
				a.addSum += v.AsFloat()
				a.floats = a.floats || v.K == value.KindFloat
			case "MIN", "MAX":
				a.addVals = append(a.addVals, v)
			}
		}
	}

	uncertain := false
	for _, k := range order {
		d := deltas[k]
		st := gv.Groups[k]
		if st == nil {
			switch c.phantomGroupDelta(d) {
			case Disagree:
				return Disagree, usedCand
			case NeedFull:
				uncertain = true
			}
			continue
		}
		newRows := st.Rows - d.remRows + d.addRows
		if newRows < 0 {
			// More net removals than the group holds: an overshoot
			// artefact; only a full run can tell.
			uncertain = true
			continue
		}
		if s.NumGroups > 0 && newRows == 0 {
			return Disagree, usedCand // the group's output row disappears
		}
		for j, ag := range s.Aggs {
			dn := d.aggs[j].addN - d.aggs[j].remN
			nNew := st.N[j] + dn
			if nNew < 0 {
				uncertain = true
				continue
			}
			switch ag.Fn.Name {
			case "COUNT":
				if dn != 0 {
					return Disagree, usedCand
				}
			case "SUM":
				if (st.N[j] == 0) != (nNew == 0) {
					return Disagree, usedCand // SUM flips between NULL and a value
				}
				ds := d.aggs[j].addSum - d.aggs[j].remSum
				if ds == 0 {
					uncertain = uncertain || d.aggs[j].floats // moved floats may re-sum differently
					continue
				}
				scale := math.Abs(st.Sum[j]) + math.Abs(d.aggs[j].addSum) + math.Abs(d.aggs[j].remSum) + 1
				if math.Abs(ds) > floatEps*scale {
					return Disagree, usedCand
				}
				uncertain = true
			case "AVG":
				if (st.N[j] == 0) != (nNew == 0) {
					return Disagree, usedCand
				}
				if nNew == 0 {
					continue // NULL stays NULL
				}
				oldAvg := st.Sum[j] / float64(st.N[j])
				newAvg := (st.Sum[j] + d.aggs[j].addSum - d.aggs[j].remSum) / float64(nNew)
				if math.Abs(newAvg-oldAvg) > floatEps*(1+math.Abs(oldAvg)) {
					return Disagree, usedCand
				}
				if dn != 0 || d.aggs[j].addSum-d.aggs[j].remSum != 0 || d.aggs[j].floats {
					// Count/sum moved but the mean may be equal, or floats
					// moved and may re-sum to a different last bit.
					uncertain = true
				}
			case "MIN":
				o, uc := extremumDelta(st.Min[j], d.aggs[j].addVals, d.aggs[j].remVals, -1, st.Cand[j])
				usedCand = usedCand || uc
				if o == Disagree {
					return Disagree, usedCand
				}
				if o == NeedFull {
					uncertain = true
				}
			case "MAX":
				o, uc := extremumDelta(st.Max[j], d.aggs[j].addVals, d.aggs[j].remVals, +1, st.Cand[j])
				usedCand = usedCand || uc
				if o == Disagree {
					return Disagree, usedCand
				}
				if o == NeedFull {
					uncertain = true
				}
			}
		}
	}
	if uncertain {
		return NeedFull, usedCand
	}
	return Agree, usedCand
}

// phantomGroupDelta decides the contribution delta of a group ABSENT from
// the base view. Net additions create a new output row (or, for the
// global group, flip aggregates off NULL); exact cancellations are a
// no-op; anything else — possible only through overshooting self-join
// terms — escalates.
func (c *Checker) phantomGroupDelta(d *deltaAcc) Outcome {
	s := c.SPJ
	netRows := d.addRows - d.remRows
	if netRows < 0 {
		return NeedFull // net removal from a group that does not exist
	}
	if netRows > 0 {
		if s.NumGroups > 0 {
			return Disagree // a brand-new output row appears
		}
		// Global group over empty input: the output row already exists as
		// (COUNT 0, SUM NULL, …). It only changes if some aggregate gains
		// a non-NULL input (COUNT(*)'s input is the constant 1, so any
		// contributing row counts there).
		for j := range s.Aggs {
			dn := d.aggs[j].addN - d.aggs[j].remN
			if dn > 0 {
				return Disagree
			}
			if dn < 0 {
				return NeedFull
			}
		}
		return Agree
	}
	// Row counts cancel. The group stays absent only if every aggregate's
	// contribution cancels too.
	if d.addRows == 0 {
		return Agree
	}
	for j, ag := range s.Aggs {
		if d.aggs[j].addN != d.aggs[j].remN {
			return NeedFull
		}
		switch ag.Fn.Name {
		case "SUM", "AVG":
			if d.aggs[j].addSum != d.aggs[j].remSum {
				return NeedFull
			}
		case "MIN", "MAX":
			if !valuesCancel(d.aggs[j].addVals, d.aggs[j].remVals) {
				return NeedFull
			}
		}
	}
	return Agree
}

// valuesCancel reports whether added and removed form identical multisets.
func valuesCancel(added, removed []value.Value) bool {
	if len(added) != len(removed) {
		return false
	}
	net := make(map[string]int, len(added))
	for _, v := range added {
		net[value.Key([]value.Value{v})]++
	}
	for _, v := range removed {
		net[value.Key([]value.Value{v})]--
	}
	for _, n := range net {
		if n != 0 {
			return false
		}
	}
	return true
}

// extremumDelta decides a MIN (dir=-1) or MAX (dir=+1) change given the
// current extremum, the signed added/removed input values of the group,
// and the group's maintained candidate multiset (every MIN/MAX group view
// carries one). The raw
// sides are netted by value first — the higher-order expansion can place
// identical values on both sides — and every scan walks the insertion
// order of the nets (added slice, then removed), never a map, so the
// outcome is worker-invariant. usedCand reports whether the candidate
// multiset was needed (extremum-removal resolution, the partial tier).
func extremumDelta(cur value.Value, added, removed []value.Value, dir int, cand map[string]exec.CandCount) (out Outcome, usedCand bool) {
	net := make(map[string]int, len(added)+len(removed))
	vals := make(map[string]value.Value, len(added)+len(removed))
	order := make([]string, 0, len(added)+len(removed))
	note := func(v value.Value, d int) {
		k := value.Key([]value.Value{v})
		if _, seen := vals[k]; !seen {
			vals[k] = v
			order = append(order, k)
		}
		net[k] += d
	}
	for _, v := range added {
		note(v, +1)
	}
	for _, v := range removed {
		note(v, -1)
	}

	if cur.IsNull() {
		for _, k := range order {
			if net[k] > 0 {
				return Disagree, false // NULL -> some value
			}
			if net[k] < 0 {
				return NeedFull, false // removal from an empty aggregate
			}
		}
		return Agree, false
	}
	removedExt := false
	for _, k := range order {
		n := net[k]
		if n == 0 {
			continue
		}
		cmp, ok := value.Compare(vals[k], cur)
		if !ok {
			return NeedFull, false
		}
		if n > 0 && cmp*dir > 0 {
			return Disagree, false // a net-new value beats the extremum
		}
		if n < 0 && cmp == 0 {
			removedExt = true
		}
	}
	if !removedExt {
		return Agree, false
	}
	// Occurrences of the current extremum are (net) removed: the new
	// extremum depends on the remaining multiset, rebuilt as candidates +
	// net.
	rem := make(map[string]exec.CandCount, len(cand)+len(order))
	for k, e := range cand {
		rem[k] = e
	}
	for _, k := range order {
		n := net[k]
		if n == 0 {
			continue
		}
		e, exists := rem[k]
		if !exists {
			if n < 0 {
				return NeedFull, true // removing a value the view never saw
			}
			rem[k] = exec.CandCount{Val: vals[k], N: n}
			continue
		}
		e.N += n
		switch {
		case e.N < 0:
			return NeedFull, true
		case e.N == 0:
			delete(rem, k)
		default:
			rem[k] = e
		}
	}
	if len(rem) == 0 {
		return Disagree, true // the aggregate becomes NULL
	}
	// Scan for the remaining extremum. Map order does not matter: the
	// winning value set is a property of the multiset, and a tie between
	// DISTINCT keys comparing equal resolves to NeedFull either way.
	var best value.Value
	var bestKey string
	first, tie := true, false
	for k, e := range rem {
		if first {
			best, bestKey, first = e.Val, k, false
			continue
		}
		cmp, ok := value.Compare(e.Val, best)
		if !ok {
			return NeedFull, true
		}
		if cmp*dir > 0 {
			best, bestKey, tie = e.Val, k, false
		} else if cmp == 0 {
			tie = true
		}
	}
	cmp, ok := value.Compare(best, cur)
	if !ok {
		return NeedFull, true
	}
	if cmp != 0 {
		return Disagree, true // the extremum moves to a different value
	}
	if tie || bestKey != value.Key([]value.Value{cur}) {
		// A value comparing equal but with a different representation
		// could still flip the output hash; stay exact.
		return NeedFull, true
	}
	return Agree, true
}
