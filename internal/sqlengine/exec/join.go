package exec

import (
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// conjunctInfo classifies one WHERE conjunct for planning. It depends on
// the statement alone and is never written after classify: a run tracks
// the conjuncts it has applied in flags of its own.
type conjunctInfo struct {
	expr     ast.Expr
	srcs     []int // level-0 sources referenced, ascending
	edge     *joinEdge
	pushdown bool // single-source (or source-free) filter
}

// joinEdge is an equi-join condition usable as a hash-join key.
type joinEdge struct {
	srcA, srcB   int
	exprA, exprB ast.Expr // exprA references only srcA, exprB only srcB
}

// classify splits WHERE into pushdown filters, join edges and residuals.
func classify(a *analyze.Analyzed) []conjunctInfo {
	conjs := ast.SplitConjuncts(a.Stmt.Where)
	out := make([]conjunctInfo, 0, len(conjs))
	for _, c := range conjs {
		ci := conjunctInfo{expr: c, srcs: level0Sources(a, c)}
		if len(ci.srcs) <= 1 {
			ci.pushdown = true
		} else if len(ci.srcs) == 2 {
			if e := asEdge(a, c); e != nil {
				ci.edge = e
			}
		}
		out = append(out, ci)
	}
	return out
}

// conjuncts returns the classified WHERE conjuncts of statement a, the
// query's top level or one of its subqueries. The query classifies each
// statement once, on first use, and every later run — concurrent ones
// included — shares the result read-only.
func (q *Query) conjuncts(a *analyze.Analyzed) []conjunctInfo {
	if v, ok := q.plans.Load(a); ok {
		return v.([]conjunctInfo)
	}
	v, _ := q.plans.LoadOrStore(a, classify(a))
	return v.([]conjunctInfo)
}

// level0Sources returns the distinct level-0 source indexes referenced by
// e, including references made from within nested subqueries (a correlated
// subquery ties the conjunct to the sources it correlates with).
func level0Sources(a *analyze.Analyzed, e ast.Expr) []int {
	set := make(map[int]bool)
	var scan func(aa *analyze.Analyzed, x ast.Expr, depth int)
	var scanStmt func(sa *analyze.Analyzed, depth int)
	scan = func(aa *analyze.Analyzed, x ast.Expr, depth int) {
		ast.Walk(x, func(n ast.Expr) {
			switch v := n.(type) {
			case *ast.ColumnRef:
				if cb, ok := aa.Binds[v]; ok && cb.Level == depth {
					set[cb.Table] = true
				}
			case *ast.SubqueryExpr:
				scanStmt(aa.Subs[v.Sub], depth+1)
			case *ast.ExistsExpr:
				scanStmt(aa.Subs[v.Sub], depth+1)
			case *ast.InExpr:
				if v.Sub != nil {
					scanStmt(aa.Subs[v.Sub], depth+1)
				}
			}
		})
	}
	scanStmt = func(sa *analyze.Analyzed, depth int) {
		if sa == nil {
			return
		}
		walkAll(sa, func(x ast.Expr) { scan(sa, x, depth) })
	}
	scan(a, e, 0)
	return sortedKeys(set)
}

// walkAll visits the top-level clause expressions of a statement once each.
func walkAll(a *analyze.Analyzed, fn func(ast.Expr)) {
	for _, oc := range a.OutCols {
		fn(oc.Expr)
	}
	if a.Stmt.Where != nil {
		fn(a.Stmt.Where)
	}
	for _, g := range a.Stmt.GroupBy {
		fn(g)
	}
	if a.Stmt.Having != nil {
		fn(a.Stmt.Having)
	}
	for _, o := range a.Stmt.OrderBy {
		fn(o.Expr)
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// asEdge recognizes "exprA = exprB" with each side referencing exactly one
// distinct level-0 source and no subqueries or outer references.
func asEdge(a *analyze.Analyzed, c ast.Expr) *joinEdge {
	b, ok := c.(*ast.BinaryExpr)
	if !ok || b.Op != ast.OpEq {
		return nil
	}
	sa, okA := soleSource(a, b.L)
	sb, okB := soleSource(a, b.R)
	if !okA || !okB || sa == sb {
		return nil
	}
	return &joinEdge{srcA: sa, srcB: sb, exprA: b.L, exprB: b.R}
}

// soleSource reports the single level-0 source referenced by e, requiring
// no subqueries, no aggregates and no outer references.
func soleSource(a *analyze.Analyzed, e ast.Expr) (int, bool) {
	src := -1
	ok := true
	ast.Walk(e, func(n ast.Expr) {
		switch v := n.(type) {
		case *ast.ColumnRef:
			cb, bound := a.Binds[v]
			if !bound || cb.Level != 0 {
				ok = false
				return
			}
			if src == -1 {
				src = cb.Table
			} else if src != cb.Table {
				ok = false
			}
		case *ast.SubqueryExpr, *ast.ExistsExpr:
			ok = false
		case *ast.InExpr:
			if v.Sub != nil {
				ok = false
			}
		case *ast.FuncCall:
			if v.IsAggregate() {
				ok = false
			}
		}
	})
	return src, ok && src >= 0
}

// joinScratch is the fixed-size state of one joinPhase call, allocated
// once per call: the env its row loops bind tuples in, one loop at a time
// (nothing keeps the env past its loop), and room for the per-source,
// per-conjunct and per-step bookkeeping of a statement with up to two
// sources and eight conjuncts. A larger statement allocates what does not
// fit. Every joinPhase call of a cold sweep over the world dataset's
// ad-hoc shapes fits, and the inline room saves that sweep about a tenth
// of its allocations; about half of an SSB sweep's calls, its star joins
// among the rest, do not fit.
type joinScratch struct {
	env     env
	srcs    [2]joinSource
	one     [2][]value.Value
	applied [8]bool
	exprs   [4]ast.Expr
}

// joinSource is one FROM source of a joinPhase call.
type joinSource struct {
	rows   [][]value.Value
	cached *cachedSource // non-nil when rows are the query cache's
	joined bool
}

// joinPhase materializes the joined tuples of the statement's FROM/WHERE.
func (r *runner) joinPhase(a *analyze.Analyzed, outer *env) ([][][]value.Value, error) {
	n := len(a.Sources)
	conjs := r.q.conjuncts(a)
	if len(r.edges) > 0 && a == r.q.A {
		conjs = append(conjs[:len(conjs):len(conjs)], r.edges...)
	}

	// Statements with no FROM produce a single empty tuple.
	if n == 0 {
		for _, ci := range conjs {
			keep, err := r.filterTuple(a, ci.expr, make([][]value.Value, 0), outer)
			if err != nil {
				return nil, err
			}
			if !keep {
				return nil, nil
			}
		}
		return [][][]value.Value{make([][]value.Value, 0)}, nil
	}

	js := &joinScratch{env: env{a: a, outer: outer}}
	e := &js.env
	// one is the tuple a one-source loop binds its row in.
	srcs, one, applied := js.srcs[:], js.one[:], js.applied[:]
	if n <= len(srcs) {
		srcs, one = srcs[:n], one[:n]
	} else {
		srcs, one = make([]joinSource, n), make([][]value.Value, n)
	}
	if len(conjs) <= len(applied) {
		applied = applied[:len(conjs)] // this run's progress through conjs
	} else {
		applied = make([]bool, len(conjs))
	}
	// Materialize and pre-filter each source. Top-level base relations not
	// touched by this run's overrides serve their filtered rows straight
	// from the query's execution index cache (built once per relation
	// version, shared across runs and workers). Equality filters against
	// outer-scope values (correlated predicates like "l_orderkey =
	// o_orderkey") probe a hash partition of the source instead of
	// scanning it — without this, a correlated subquery re-executed per
	// outer binding costs a full scan each time.
	for i := 0; i < n; i++ {
		if cs, ok, err := r.cachedSourceRows(a, i, conjs, applied); err != nil {
			return nil, err
		} else if ok {
			srcs[i].cached = cs
			srcs[i].rows = cs.rows
			continue
		}
		var rows [][]value.Value
		materialized := false
		for x, ci := range conjs {
			if !ci.pushdown || applied[x] || len(ci.srcs) != 1 || ci.srcs[0] != i {
				continue
			}
			if !materialized {
				if col, rhs, ok := r.indexablePattern(a, ci.expr, i); ok {
					bucket, hit, err := r.partitionLookup(a, i, col, rhs, outer)
					if err != nil {
						return nil, err
					}
					if hit {
						rows = bucket
						materialized = true
						applied[x] = true
						continue
					}
				}
				var err error
				rows, err = r.sourceRows(a, i, outer)
				if err != nil {
					return nil, err
				}
				materialized = true
			}
			var err error
			rows, err = r.filterSource(e, one, ci.expr, i, rows)
			if err != nil {
				return nil, err
			}
			applied[x] = true
		}
		if !materialized {
			var err error
			rows, err = r.sourceRows(a, i, outer)
			if err != nil {
				return nil, err
			}
		}
		srcs[i].rows = rows
	}
	// Source-free conjuncts evaluate once.
	for x, ci := range conjs {
		if ci.pushdown && !applied[x] && len(ci.srcs) == 0 {
			keep, err := r.filterTuple(a, ci.expr, make([][]value.Value, n), outer)
			if err != nil {
				return nil, err
			}
			applied[x] = true
			if !keep {
				return nil, nil
			}
		}
	}

	// Greedy join order.
	start := 0
	for i := 1; i < n; i++ {
		if len(srcs[i].rows) < len(srcs[start].rows) {
			start = i
		}
	}
	srcs[start].joined = true
	tuples := make([][][]value.Value, len(srcs[start].rows))
	slots := make([][]value.Value, len(tuples)*n)
	for i, row := range srcs[start].rows {
		t := slots[i*n : (i+1)*n : (i+1)*n]
		t[start] = row
		tuples[i] = t
	}
	var err error
	tuples, err = r.applyResiduals(e, conjs, applied, srcs, tuples)
	if err != nil {
		return nil, err
	}

	for done := 1; done < n; done++ {
		// Pick the next source: smallest among edge-connected, else smallest.
		next, connected := -1, false
		for i := 0; i < n; i++ {
			if srcs[i].joined {
				continue
			}
			conn := false
			for x, ci := range conjs {
				if ci.edge == nil || applied[x] {
					continue
				}
				edge := ci.edge
				if (edge.srcA == i && srcs[edge.srcB].joined) || (edge.srcB == i && srcs[edge.srcA].joined) {
					conn = true
					break
				}
			}
			if next == -1 || (conn && !connected) ||
				(conn == connected && len(srcs[i].rows) < len(srcs[next].rows)) {
				next, connected = i, conn
			}
		}

		// Gather the edges usable for this step: the build-side key
		// expressions evaluate over the joined tuples, the probe-side ones
		// over next's rows.
		buildExprs, probeExprs := js.exprs[:0:2], js.exprs[2:2:4]
		for x, ci := range conjs {
			if ci.edge == nil || applied[x] {
				continue
			}
			switch edge := ci.edge; {
			case edge.srcA == next && srcs[edge.srcB].joined:
				buildExprs = append(buildExprs, edge.exprB)
				probeExprs = append(probeExprs, edge.exprA)
				applied[x] = true
			case edge.srcB == next && srcs[edge.srcA].joined:
				buildExprs = append(buildExprs, edge.exprA)
				probeExprs = append(probeExprs, edge.exprB)
				applied[x] = true
			}
		}

		switch src := srcs[next]; {
		case len(probeExprs) > 0:
			// A hash join on the edges. The index of a cached source lives
			// in the cache; any other is built for this run.
			var ix *hashIndex
			if src.cached != nil {
				ix, err = r.q.cache.joinIndex(r, a, src.cached, next, probeExprs)
			} else {
				ix, err = r.buildIndex(e, one, src.rows, next, probeExprs)
			}
			if err != nil {
				return nil, err
			}
			tuples, err = r.probeJoin(e, tuples, src.rows, next, buildExprs, ix)
		default:
			tuples, err = r.crossJoin(tuples, src.rows, next)
		}
		if err != nil {
			return nil, err
		}
		srcs[next].joined = true
		tuples, err = r.applyResiduals(e, conjs, applied, srcs, tuples)
		if err != nil {
			return nil, err
		}
	}
	return tuples, nil
}

// hashIndex is a hash-join build side: the rows of one source chained by
// join key, each chain in row order. A key string is allocated once per
// distinct key; a probe looks its key up from a reused byte buffer, which
// allocates nothing.
type hashIndex struct {
	chains map[string]int32 // key -> index into heads and tails
	heads  []int32          // first row of each chain
	tails  []int32          // last row of each chain
	next   []int32          // per row: the next row of its chain, -1 at the end
}

// first returns the first row carrying key, -1 when none does; next links
// the rest in row order.
func (h *hashIndex) first(key []byte) int32 {
	if c, ok := h.chains[string(key)]; ok {
		return h.heads[c]
	}
	return -1
}

// buildIndex hashes rows, bound in e at source si of the one-source tuple
// one, by the values exprs take on them: the build side of a hash join.
// Rows with a NULL key part are left out: SQL equality never matches them.
func (r *runner) buildIndex(e *env, one [][]value.Value, rows [][]value.Value, si int, exprs []ast.Expr) (*hashIndex, error) {
	e.tuples = one
	defer func() { one[si] = nil }()
	h := &hashIndex{chains: make(map[string]int32, len(rows)), next: make([]int32, len(rows))}
	var buf [64]byte
	key := buf[:0]
	for ri, row := range rows {
		e.tuples[si] = row
		h.next[ri] = -1
		// The key loop is written out here and in probeJoin: behind a
		// helper that calls eval, the buffer would move to the heap.
		key = key[:0]
		null := false
		for _, x := range exprs {
			v, err := r.eval(x, e)
			if err != nil {
				return nil, err
			}
			if null = v.IsNull(); null {
				break
			}
			key = value.AppendKey(key, []value.Value{v})
		}
		if null {
			continue
		}
		if c, ok := h.chains[string(key)]; ok {
			h.next[h.tails[c]] = int32(ri)
			h.tails[c] = int32(ri)
			continue
		}
		h.chains[string(key)] = int32(len(h.heads))
		h.heads = append(h.heads, int32(ri))
		h.tails = append(h.tails, int32(ri))
	}
	return h, nil
}

// probeJoin joins the accumulated tuples, binding each in e, against a
// hash index of source next's rows (built for this run or cached): per
// tuple, evaluate the build-side key and emit one extended tuple per
// matching row, in row order. A first pass finds each tuple's matches and
// counts them, so the joined tuples are carved from one slab of exactly
// their size.
func (r *runner) probeJoin(e *env, tuples [][][]value.Value, rows [][]value.Value, next int,
	buildExprs []ast.Expr, ix *hashIndex) ([][][]value.Value, error) {

	n := len(e.a.Sources)
	var buf [64]byte
	key := buf[:0]
	var firstBuf [8]int32
	firsts := firstBuf[:0] // per tuple: its first matching row, -1 for none
	if len(tuples) > len(firstBuf) {
		firsts = make([]int32, 0, len(tuples))
	}
	total := 0
	for _, tup := range tuples {
		e.tuples = tup
		key = key[:0]
		null := false
		for _, x := range buildExprs {
			v, err := r.eval(x, e)
			if err != nil {
				return nil, err
			}
			if null = v.IsNull(); null {
				break
			}
			key = value.AppendKey(key, []value.Value{v})
		}
		first := int32(-1)
		if !null {
			first = ix.first(key)
		}
		firsts = append(firsts, first)
		for ri := first; ri >= 0; ri = ix.next[ri] {
			total++
		}
	}
	out := make([][][]value.Value, total)
	slots := make([][]value.Value, total*n)
	x := 0
	for i, tup := range tuples {
		for ri := firsts[i]; ri >= 0; ri = ix.next[ri] {
			nt := slots[x*n : (x+1)*n : (x+1)*n]
			copy(nt, tup)
			nt[next] = rows[ri]
			out[x] = nt
			x++
		}
	}
	return out, nil
}

func (r *runner) crossJoin(tuples [][][]value.Value, rows [][]value.Value, next int) ([][][]value.Value, error) {
	out := make([][][]value.Value, 0, len(tuples)*len(rows))
	if cap(out) == 0 {
		return out, nil
	}
	n := len(tuples[0])
	slots := make([][]value.Value, len(tuples)*len(rows)*n)
	for _, tup := range tuples {
		for _, row := range rows {
			nt := slots[:n:n]
			slots = slots[n:]
			copy(nt, tup)
			nt[next] = row
			out = append(out, nt)
		}
	}
	return out, nil
}

// applyResiduals filters tuples, binding each in e, by every
// not-yet-applied conjunct whose sources are all joined, marking it
// applied.
func (r *runner) applyResiduals(e *env, conjs []conjunctInfo, applied []bool, srcs []joinSource,
	tuples [][][]value.Value) ([][][]value.Value, error) {
	for x, ci := range conjs {
		if applied[x] || ci.edge != nil || ci.pushdown {
			continue
		}
		covered := true
		for _, s := range ci.srcs {
			if !srcs[s].joined {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		kept := tuples[:0]
		for _, tup := range tuples {
			e.tuples = tup
			v, err := r.eval(ci.expr, e)
			if err != nil {
				return nil, err
			}
			if value.TristateOf(v) == value.True {
				kept = append(kept, tup)
			}
		}
		tuples = kept
		applied[x] = true
	}
	return tuples, nil
}

// indexablePattern recognizes a single-source conjunct of the form
// "col = rhs" (or "rhs = col") where col is a bare column of source si and
// rhs references nothing at level 0 — typically a correlated outer column
// or a constant. Such filters can probe a hash partition of the source.
func (r *runner) indexablePattern(a *analyze.Analyzed, e ast.Expr, si int) (col int, rhs ast.Expr, ok bool) {
	b, isEq := e.(*ast.BinaryExpr)
	if !isEq || b.Op != ast.OpEq {
		return 0, nil, false
	}
	try := func(colSide, other ast.Expr) (int, ast.Expr, bool) {
		cr, isCol := colSide.(*ast.ColumnRef)
		if !isCol {
			return 0, nil, false
		}
		cb, bound := a.Binds[cr]
		if !bound || cb.Level != 0 || cb.Table != si {
			return 0, nil, false
		}
		if !freeOfLevel0(a, other) {
			return 0, nil, false
		}
		return cb.Col, other, true
	}
	if c, rr, found := try(b.L, b.R); found {
		return c, rr, true
	}
	return try(b.R, b.L)
}

// freeOfLevel0 reports whether e references no current-scope columns and
// contains no subqueries (so it can be evaluated once per execution).
func freeOfLevel0(a *analyze.Analyzed, e ast.Expr) bool {
	ok := true
	ast.Walk(e, func(n ast.Expr) {
		switch v := n.(type) {
		case *ast.ColumnRef:
			if cb, bound := a.Binds[v]; !bound || cb.Level == 0 {
				ok = false
			}
		case *ast.SubqueryExpr, *ast.ExistsExpr:
			ok = false
		case *ast.InExpr:
			if v.Sub != nil {
				ok = false
			}
		case *ast.FuncCall:
			if v.IsAggregate() {
				ok = false
			}
		}
	})
	return ok
}

// partitionLookup returns the rows of source si whose column col equals
// the value of rhs, using (and lazily building) a per-runner hash
// partition of the source. hit=false means the source cannot be indexed
// here (derived table or overridden relation) and the caller must scan.
func (r *runner) partitionLookup(a *analyze.Analyzed, si, col int, rhs ast.Expr, outer *env) (rows [][]value.Value, hit bool, err error) {
	src := a.Sources[si]
	if src.Rel == nil {
		return nil, false, nil
	}
	if r.sov != nil && r.sov[si] != nil {
		return nil, false, nil
	}
	name := ast.LowerName(src.Rel.Name)
	if r.ov != nil {
		if _, overridden := r.ov[name]; overridden {
			return nil, false, nil
		}
	}
	v, err := r.eval(rhs, &env{a: a, tuples: make([][]value.Value, len(a.Sources)), outer: outer})
	if err != nil {
		return nil, false, err
	}
	if v.IsNull() {
		return nil, true, nil // NULL equals nothing
	}
	if r.partitions == nil {
		r.partitions = make(map[string]map[string][][]value.Value)
	}
	pkey := partKey(name, col)
	part, built := r.partitions[pkey]
	if !built {
		// Shared per-query partition, version-stamped and reused across
		// runs; cache the pointer per-runner so repeated correlated
		// probes skip the cache mutex.
		part = r.q.cache.partition(r.db, name, col)
		if part == nil {
			return nil, false, nil
		}
		r.partitions[pkey] = part
	}
	return part[value.Key([]value.Value{v})], true, nil
}

// filterSource keeps the rows of source si that satisfy cond, binding
// each in e at si of the one-source tuple one.
func (r *runner) filterSource(e *env, one [][]value.Value, cond ast.Expr, si int, rows [][]value.Value) ([][]value.Value, error) {
	e.tuples = one
	defer func() { one[si] = nil }()
	out := rows[:0:0]
	for _, row := range rows {
		e.tuples[si] = row
		v, err := r.eval(cond, e)
		if err != nil {
			return nil, err
		}
		if value.TristateOf(v) == value.True {
			out = append(out, row)
		}
	}
	return out, nil
}

func (r *runner) filterTuple(a *analyze.Analyzed, cond ast.Expr, tup [][]value.Value, outer *env) (bool, error) {
	e := &env{a: a, tuples: tup, outer: outer}
	v, err := r.eval(cond, e)
	if err != nil {
		return false, err
	}
	return value.TristateOf(v) == value.True, nil
}
