// Package exec is qirana's query executor. It runs analyzed SELECT
// statements against the in-memory store with three entry points the
// pricing framework needs:
//
//   - Run: ordinary execution of Q(D);
//   - RunOverride: execution of Q over D with one or more relations
//     replaced by supplied rows — this implements the Q((D \ R) ∪ {u})
//     primitive of the disagreement algorithms (paper §4.1);
//   - RunTagged: delta evaluation, the batching device of §4.2 — only the
//     ± rows of a batch of updates of one relation flow through the join
//     pipeline, first-order or, for self-joins, higher-order terms; the
//     rows carry a hidden trailing "upid" column and the output is grouped
//     per upid, so one run of each delta term answers the check for the
//     entire batch, and a batch of one answers a single update's check.
//
// The executor is materialized and order-agnostic: filtered scans feed a
// greedy hash-join over the equi-join graph extracted from WHERE, residual
// predicates apply as soon as their sources are joined, then grouping,
// HAVING, projection, DISTINCT, ORDER BY and LIMIT.
package exec

import (
	"fmt"
	"sort"
	"sync"

	"qirana/internal/result"
	"qirana/internal/schema"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/parser"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// Overrides maps lower-cased relation names to replacement row sets.
type Overrides map[string][][]value.Value

// Query is a compiled (parsed + analyzed) statement, reusable across
// executions and databases sharing the schema. It carries the execution
// index cache (see cache.go): filtered source rows, hash-join build sides
// and probe partitions built once per relation version and shared —
// concurrency-safe — across every Run/RunOverride/RunTagged call.
type Query struct {
	Stmt *ast.SelectStmt
	A    *analyze.Analyzed
	SQL  string

	cache execCache
	// plans holds each statement's classified WHERE conjuncts
	// (*analyze.Analyzed -> []conjunctInfo), see conjuncts.
	plans sync.Map
}

// Compile parses and analyzes a SQL string against a schema.
func Compile(sql string, sch *schema.Schema) (*Query, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	a, err := analyze.Analyze(stmt, sch)
	if err != nil {
		return nil, fmt.Errorf("analyze %q: %w", sql, err)
	}
	return &Query{Stmt: stmt, A: a, SQL: sql}, nil
}

// CompileStmt analyzes an already-parsed statement.
func CompileStmt(stmt *ast.SelectStmt, sch *schema.Schema) (*Query, error) {
	a, err := analyze.Analyze(stmt, sch)
	if err != nil {
		return nil, err
	}
	return &Query{Stmt: stmt, A: a, SQL: stmt.String()}, nil
}

// MustCompile compiles or panics; for statically-known workload queries.
func MustCompile(sql string, sch *schema.Schema) *Query {
	q, err := Compile(sql, sch)
	if err != nil {
		panic(err)
	}
	return q
}

// Run executes the query against db.
func (q *Query) Run(db *storage.Database) (*result.Result, error) {
	return q.RunOverride(db, nil)
}

// RunOverride executes the query with the given relation overrides.
func (q *Query) RunOverride(db *storage.Database, ov Overrides) (*result.Result, error) {
	r := &runner{q: q, db: db, ov: ov}
	return r.exec(q.A, nil)
}

// SourceEval evaluates expressions of a query with only one source bound,
// to a given row. The disagreement checker's conservative C[u⁺]
// satisfiability test (§4.1) uses it to evaluate the WHERE conjuncts that
// mention only the updated relation against the new tuple. A SourceEval is
// scratch a worker reuses from element to element, for any query: a call
// keeps nothing of its row, and it is never shared between goroutines.
type SourceEval struct {
	r      runner
	e      env
	tuples [][]value.Value
}

// Eval evaluates expression x of query q with source si bound to row.
func (s *SourceEval) Eval(q *Query, db *storage.Database, si int, row []value.Value, x ast.Expr) (value.Value, error) {
	n := len(q.A.Sources)
	if cap(s.tuples) < n {
		s.tuples = make([][]value.Value, n)
	}
	s.tuples = s.tuples[:n]
	s.tuples[si] = row
	s.r = runner{q: q, db: db}
	s.e = env{a: q.A, tuples: s.tuples}
	v, err := s.r.eval(x, &s.e)
	s.tuples[si] = nil
	return v, err
}

// subResult caches a materialized subquery: the full result plus the
// derived IN-set when used as an IN probe.
type subResult struct {
	res       *result.Result
	inSet     map[string]bool
	inHasNull bool
	// correlated memo: key = correlated outer values
	memo map[string]*subResult
}

type runner struct {
	// q is the compiled query this runner executes; nil-safe (a nil q
	// disables the shared execution cache, as in ad-hoc evaluation).
	q  *Query
	db *storage.Database
	ov Overrides
	// sov overrides single top-level FROM sources by index (a nil entry
	// overrides nothing). Unlike ov, which replaces every occurrence of a
	// relation name, sov replaces exactly one occurrence — the per-slot
	// substitution the higher-order delta expansion needs for self-joins.
	// sov wins over ov for its source.
	sov [][][]value.Value
	// edges are equi-join conjuncts the top-level statement joins on
	// besides its own: a tagged delta run's upid keys (see deltaTerms).
	edges    []conjunctInfo
	subCache map[*analyze.Analyzed]*subResult // lazily allocated by runSub
	// partitions caches, per runner, pointers to the hash partitions of
	// base tables by (rel, column) used for correlated equality filters.
	// The partitions themselves live in the query's shared cache (version-
	// stamped); the per-runner map just avoids the cache mutex on repeated
	// probes within one execution.
	partitions map[string]map[string][][]value.Value
}

// env is the evaluation environment for one statement level.
type env struct {
	a        *analyze.Analyzed
	tuples   [][]value.Value // per source; nil when not bound
	aggs     map[*ast.FuncCall]value.Value
	itemVals []value.Value // select-item values for alias refs, nil until computed
	outer    *env
}

func (e *env) at(level int) *env {
	for ; level > 0; level-- {
		e = e.outer
	}
	return e
}

// exec runs one statement level and returns its result.
func (r *runner) exec(a *analyze.Analyzed, outer *env) (*result.Result, error) {
	tuples, err := r.joinPhase(a, outer)
	if err != nil {
		return nil, err
	}
	var rows [][]value.Value
	var orderKeys [][]value.Value

	cols := make([]string, len(a.OutCols))
	for i, oc := range a.OutCols {
		cols[i] = oc.Name
	}

	emit := func(env *env) error {
		row, err := r.projectRow(a, env)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		if len(a.Stmt.OrderBy) > 0 {
			keys := make([]value.Value, len(a.Stmt.OrderBy))
			for i, o := range a.Stmt.OrderBy {
				v, err := r.eval(o.Expr, env)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			orderKeys = append(orderKeys, keys)
		}
		return nil
	}

	if a.IsAgg {
		groups, err := r.groupPhase(a, tuples, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			genv := &env{a: a, tuples: g.rep, aggs: g.aggs, outer: outer}
			if a.Stmt.Having != nil {
				hv, err := r.eval(a.Stmt.Having, genv)
				if err != nil {
					return nil, err
				}
				if value.TristateOf(hv) != value.True {
					continue
				}
			}
			if err := emit(genv); err != nil {
				return nil, err
			}
		}
	} else {
		env := &env{a: a, outer: outer}
		for _, tup := range tuples {
			env.tuples = tup
			env.itemVals = nil
			if err := emit(env); err != nil {
				return nil, err
			}
		}
	}

	if a.Stmt.Distinct {
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		var keptKeys [][]value.Value
		if orderKeys != nil {
			keptKeys = orderKeys[:0]
		}
		var buf [64]byte
		key := buf[:0]
		for i, row := range rows {
			key = value.AppendKey(key[:0], row)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			kept = append(kept, row)
			if orderKeys != nil {
				keptKeys = append(keptKeys, orderKeys[i])
			}
		}
		rows = kept
		orderKeys = keptKeys
	}

	ordered := false
	if len(a.Stmt.OrderBy) > 0 {
		ordered = true
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool {
			kx, ky := orderKeys[idx[x]], orderKeys[idx[y]]
			for i, o := range a.Stmt.OrderBy {
				c := compareForSort(kx[i], ky[i])
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]value.Value, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}

	if a.Stmt.Limit >= 0 {
		ordered = true
		off := a.Stmt.Offset
		if off > int64(len(rows)) {
			off = int64(len(rows))
		}
		end := off + a.Stmt.Limit
		if end > int64(len(rows)) {
			end = int64(len(rows))
		}
		rows = rows[off:end]
	}

	return &result.Result{Cols: cols, Rows: rows, Ordered: ordered}, nil
}

// compareForSort gives NULLs-first total order for ORDER BY.
func compareForSort(a, b value.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	c, _ := value.Compare(a, b)
	return c
}

func (r *runner) projectRow(a *analyze.Analyzed, e *env) ([]value.Value, error) {
	return r.projectInto(a, e, make([]value.Value, len(a.OutCols)))
}

// projectInto is projectRow writing into row, which holds one value per
// output column.
func (r *runner) projectInto(a *analyze.Analyzed, e *env, row []value.Value) ([]value.Value, error) {
	for i, oc := range a.OutCols {
		v, err := r.eval(oc.Expr, e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	e.itemVals = row // enables alias references in HAVING/ORDER BY
	return row, nil
}

// sourceRows materializes the rows of one FROM source, honoring overrides.
func (r *runner) sourceRows(a *analyze.Analyzed, si int, outer *env) ([][]value.Value, error) {
	src := a.Sources[si]
	if src.Sub != nil {
		res, err := r.exec(src.Sub, outer)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	if r.sov != nil && r.sov[si] != nil {
		return r.sov[si], nil
	}
	name := ast.LowerName(src.Rel.Name)
	if r.ov != nil {
		if rows, ok := r.ov[name]; ok {
			return rows, nil
		}
	}
	t := r.db.Table(src.Rel.Name)
	if t == nil {
		return nil, fmt.Errorf("relation %q not present in database", src.Rel.Name)
	}
	return t.Rows, nil
}
