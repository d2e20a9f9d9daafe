package exec

import (
	"strings"
	"sync"

	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// This file implements the per-query execution index cache (the delta
// evaluation substrate of the disagreement fast path). The pricing engine
// executes one compiled query hundreds to thousands of times over a
// database that is immutable for the whole pricing call, each run differing
// only in one overridden relation (the u⁻/u⁺ replacement of paper §4.1, the
// tagged batch relation of §4.2, or an overlay view of a support element).
// Without the cache every run re-filters every base relation and rebuilds
// every hash-join build side from scratch — O(|D|) per run. With it, the
// filtered rows and join indexes of the relations an override does NOT
// touch are built once, stamped with the relation's storage version, and
// shared read-only across all subsequent Run/RunOverride/RunTagged calls
// — including concurrent calls from the worker pool — so a residual check
// costs O(|delta| probes).
//
// Validity rules:
//   - entries are keyed by the top-level source index and stamped with the
//     base table's Version(); a mutation of the table (Append/Set/SwapRows)
//     moves the version and the next lookup rebuilds;
//   - a run that overrides relation R simply bypasses the cache for R's
//     sources (the override is this run's private data) while still
//     serving every other source from the cache;
//   - running the query against a different *storage.Database resets the
//     whole cache (the cache holds one database at a time);
//   - only "cache-pure" sources participate: base relations whose pushdown
//     filters reference no subqueries, no aggregates and no outer scopes,
//     so their filtered rows are a function of (statement, base table)
//     alone. Everything else takes the uncached path unchanged.
//
// All cached structures are written once under the cache mutex and read
// without it afterwards (the pointer hand-off happens inside the lock),
// which keeps the concurrent pricing paths race-free and bit-identical to
// serial execution: the cache changes where rows come from, never their
// content or order.

// CacheStats is a snapshot of a query's execution-cache counters.
type CacheStats struct {
	// Hits counts lookups served from a cached filtered source, join
	// index or probe partition; Misses counts the builds (including
	// version-invalidated rebuilds).
	Hits, Misses uint64
	// SourceBuilds counts the Misses that filtered a source; the others
	// built a join index or a probe partition.
	SourceBuilds uint64
}

// execCache is the per-Query cache. The zero value is ready to use.
type execCache struct {
	mu sync.Mutex
	db *storage.Database

	sources map[int]*cachedSource       // top-level source index -> entry
	parts   map[string]*cachedPartition // "rel#col" -> probe partition

	hits, misses, sourceBuilds uint64

	eligOnce sync.Once
	eligible []bool // per top-level source: may serve from cache
}

// cachedSource holds one top-level FROM source's filtered rows (base row
// order) and its hash-join indexes, keyed by the probe-expression
// signature of the join step that needs them.
type cachedSource struct {
	version uint64
	rows    [][]value.Value
	indexes map[string]*hashIndex // probe sig -> join index
}

// cachedPartition is a hash partition of a base relation by one column,
// used by correlated-equality probes (see partitionLookup).
type cachedPartition struct {
	version uint64
	part    map[string][][]value.Value
}

// Stats returns a snapshot of the cache counters. Counters only increase;
// concurrent runs account their lookups under the cache mutex, so a
// before/after delta around a quiesced region is exact.
func (q *Query) CacheStats() CacheStats {
	q.cache.mu.Lock()
	defer q.cache.mu.Unlock()
	return CacheStats{Hits: q.cache.hits, Misses: q.cache.misses, SourceBuilds: q.cache.sourceBuilds}
}

// eligibleSources lazily computes, once per query, which top-level sources
// may be cached: base relations whose single-source pushdown conjuncts are
// all cache-pure.
func (c *execCache) eligibleSources(q *Query) []bool {
	c.eligOnce.Do(func() {
		a := q.A
		el := make([]bool, len(a.Sources))
		for i, src := range a.Sources {
			el[i] = src.Rel != nil
		}
		for _, ci := range q.conjuncts(a) {
			if ci.pushdown && len(ci.srcs) == 1 && !cachePure(a, ci.expr) {
				el[ci.srcs[0]] = false
			}
		}
		c.eligible = el
	})
	return c.eligible
}

// cachePure reports whether e can be evaluated from the base table alone:
// no subqueries, no aggregates, and every column reference bound at the
// current level.
func cachePure(a *analyze.Analyzed, e ast.Expr) bool {
	ok := true
	ast.Walk(e, func(n ast.Expr) {
		switch v := n.(type) {
		case *ast.ColumnRef:
			if cb, bound := a.Binds[v]; !bound || cb.Level != 0 {
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

// resetLocked re-targets the cache at db, dropping all entries when the
// database changed. Caller holds c.mu.
func (c *execCache) resetLocked(db *storage.Database) {
	if c.db != db {
		c.db = db
		c.sources = nil
		c.parts = nil
	}
	if c.sources == nil {
		c.sources = make(map[int]*cachedSource)
	}
	if c.parts == nil {
		c.parts = make(map[string]*cachedPartition)
	}
}

// cachedSourceRows serves source si of the top-level statement from the
// query cache when eligible: the base relation is not overridden in this
// run and its pushdown filters are cache-pure. On success the filters the
// cached rows already incorporate are marked in applied. ok=false means
// the caller must materialize the source itself.
func (r *runner) cachedSourceRows(a *analyze.Analyzed, si int, conjs []conjunctInfo, applied []bool) (*cachedSource, bool, error) {
	q := r.q
	if a != q.A {
		return nil, false, nil
	}
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
	if !q.cache.eligibleSources(q)[si] {
		return nil, false, nil
	}
	t := r.db.Table(name)
	if t == nil {
		return nil, false, nil // surfaced as an error by the uncached path
	}
	for x, ci := range conjs {
		if ci.pushdown && !applied[x] && len(ci.srcs) == 1 && ci.srcs[0] == si {
			applied[x] = true
		}
	}
	cs, err := q.cache.sourceEntry(r, a, si, t, conjs)
	if err != nil {
		return nil, false, err
	}
	return cs, true, nil
}

// sourceEntry returns (building or rebuilding as the version demands) the
// cache entry for source si over table t: its rows that pass every
// single-source pushdown conjunct, filtered in conjunct order.
func (c *execCache) sourceEntry(r *runner, a *analyze.Analyzed, si int, t *storage.Table, conjs []conjunctInfo) (*cachedSource, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked(r.db)
	if cs := c.sources[si]; cs != nil && cs.version == t.Version() {
		c.hits++
		return cs, nil
	}
	c.misses++
	c.sourceBuilds++
	rows, filtered := t.Rows, false
	e, one := &env{a: a}, make([][]value.Value, len(a.Sources))
	for _, ci := range conjs {
		if !ci.pushdown || len(ci.srcs) != 1 || ci.srcs[0] != si {
			continue
		}
		var err error
		if rows, err = r.filterSource(e, one, ci.expr, si, rows); err != nil {
			return nil, err
		}
		filtered = true
	}
	if filtered {
		// filterSource grows its result by appending; the entry lives as
		// long as the query, so it keeps the rows at exact length.
		rows = append(make([][]value.Value, 0, len(rows)), rows...)
	}
	cs := &cachedSource{version: t.Version(), rows: rows, indexes: make(map[string]*hashIndex)}
	c.sources[si] = cs
	return cs, nil
}

// joinIndex returns (building if needed) cs's hash index keyed by the probe
// expressions: each key's rows of cs.rows in row order, exactly the index
// joinPhase builds for an uncached source. NULL keys are absent (SQL
// equality never matches them).
func (c *execCache) joinIndex(r *runner, a *analyze.Analyzed, cs *cachedSource, next int, probeExprs []ast.Expr) (*hashIndex, error) {
	sig := exprSig(probeExprs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix, ok := cs.indexes[sig]; ok {
		c.hits++
		return ix, nil
	}
	c.misses++
	ix, err := r.buildIndex(&env{a: a}, make([][]value.Value, len(a.Sources)), cs.rows, next, probeExprs)
	if err != nil {
		return nil, err
	}
	cs.indexes[sig] = ix
	return ix, nil
}

// partition returns (building if needed) the shared hash partition of base
// relation rel by column col, version-stamped like every cache entry. The
// build is a pure row scan, so it runs under the cache mutex.
func (c *execCache) partition(db *storage.Database, rel string, col int) map[string][][]value.Value {
	t := db.Table(rel)
	if t == nil {
		return nil
	}
	key := partKey(rel, col)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked(db)
	if cp := c.parts[key]; cp != nil && cp.version == t.Version() {
		c.hits++
		return cp.part
	}
	c.misses++
	part := buildPartition(t.Rows, col)
	c.parts[key] = &cachedPartition{version: t.Version(), part: part}
	return part
}

// buildPartition hashes rows by column col, skipping NULLs.
func buildPartition(rows [][]value.Value, col int) map[string][][]value.Value {
	part := make(map[string][][]value.Value, len(rows)/2+1)
	buf := make([]value.Value, 1)
	for _, row := range rows {
		if row[col].IsNull() {
			continue
		}
		buf[0] = row[col]
		k := value.Key(buf)
		part[k] = append(part[k], row)
	}
	return part
}

func partKey(rel string, col int) string {
	// Small manual itoa keeps this allocation-light on the probe path.
	var b []byte
	b = append(b, rel...)
	b = append(b, '#')
	if col == 0 {
		b = append(b, '0')
	} else {
		var d [8]byte
		n := 0
		for col > 0 {
			d[n] = byte('0' + col%10)
			col /= 10
			n++
		}
		for n > 0 {
			n--
			b = append(b, d[n])
		}
	}
	return string(b)
}

// exprSig canonically identifies an ordered probe-expression list within
// one analyzed statement.
func exprSig(exprs []ast.Expr) string {
	if len(exprs) == 1 {
		return exprs[0].String()
	}
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, "\x00")
}
