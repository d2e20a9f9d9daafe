package exec

import (
	"fmt"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// GroupTable is the fold input of a single-source GROUP BY aggregate over
// the base rows of its relation: per row the WHERE verdict, the group key
// and the aggregate arguments, each evaluated once by the executor's own
// eval. Fold replays the executor's aggregation (groupFold, projectRow)
// over any sequence of these rows and fresh ones (Eval), so the output
// over a database that differs from D in a few rows of the relation
// follows from folding the groups those rows touch, with no scan, filter
// or key evaluation of the untouched rows (the entropy sweep's group
// refold in disagree.CheckBatch). A GroupTable is read-only once built, and
// every Eval and Fold call runs on a runner of its own, so concurrent
// calls are safe.
type GroupTable struct {
	q     *Query
	db    *storage.Database
	rel   string     // lower-case relation name
	where []ast.Expr // the single-source WHERE conjuncts, in filter order
	// open reports whether the source-free WHERE conjuncts hold; when
	// they do not, no row passes.
	open bool
	rows []FoldRow
}

// FoldRow is the fold input of one row of a GroupTable's relation.
type FoldRow struct {
	// Key is the row's group key, keyed as groupPhase keys it. Every row
	// has one, WHERE-failing rows included, so a caller can place a row
	// among the groups whatever its verdict.
	Key  string
	pass bool            // the row satisfies WHERE
	tup  [][]value.Value // the row as a one-source tuple (the group representative)
	args []value.Value   // aggregate arguments as foldArgs lays them out; nil unless pass
}

// NewGroupTable evaluates the fold input of the query on every row of its
// relation in db. The query must be a GROUP BY aggregate over one base
// relation without HAVING, DISTINCT, ORDER BY, LIMIT or subqueries. An
// eval error on any row is returned, as a run of the query might report
// it.
func (q *Query) NewGroupTable(db *storage.Database) (*GroupTable, error) {
	a := q.A
	if !a.IsAgg || len(a.Stmt.GroupBy) == 0 || len(a.Sources) != 1 || a.Sources[0].Rel == nil ||
		a.Stmt.Having != nil || a.Stmt.Distinct || len(a.Stmt.OrderBy) > 0 || a.Stmt.Limit >= 0 || len(a.Subs) > 0 {
		return nil, fmt.Errorf("group table: %q is not a single-source GROUP BY aggregate", q.SQL)
	}
	rel := ast.LowerName(a.Sources[0].Rel.Name)
	tbl := db.Table(rel)
	if tbl == nil {
		return nil, fmt.Errorf("relation %q not present in database", rel)
	}
	t := &GroupTable{q: q, db: db, rel: rel, open: true}
	r := &runner{q: q, db: db}
	// joinPhase filters by the single-source conjuncts in order and
	// evaluates the source-free ones once.
	for _, ci := range q.conjuncts(a) {
		if len(ci.srcs) == 1 {
			t.where = append(t.where, ci.expr)
			continue
		}
		keep, err := r.filterTuple(a, ci.expr, make([][]value.Value, 1), nil)
		if err != nil {
			return nil, err
		}
		t.open = t.open && keep
	}
	t.rows = make([]FoldRow, len(tbl.Rows))
	var key []byte
	for ri, row := range tbl.Rows {
		var err error
		if t.rows[ri], key, err = t.eval(r, row, key); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// eval computes the fold input of one row with runner r: the WHERE
// conjuncts in joinPhase's order (a row stops at the first that does not
// hold), the group key, and for a passing row the aggregate arguments.
// key is the buffer to write the group key bytes over, handed back for
// reuse.
func (t *GroupTable) eval(r *runner, row []value.Value, key []byte) (FoldRow, []byte, error) {
	a := t.q.A
	e := &env{a: a, tuples: [][]value.Value{row}}
	in := FoldRow{pass: true, tup: e.tuples}
	for _, c := range t.where {
		v, err := r.eval(c, e)
		if err != nil {
			return FoldRow{}, key, err
		}
		if value.TristateOf(v) != value.True {
			in.pass = false
			break
		}
	}
	in.pass = in.pass && t.open
	var err error
	if key, err = r.groupKey(a, e, key); err != nil {
		return FoldRow{}, key, err
	}
	in.Key = string(key)
	if in.pass {
		if in.args, err = r.foldArgs(a, e, nil); err != nil {
			return FoldRow{}, key, err
		}
	}
	return in, key, nil
}

// Rel returns the lower-case name of the table's relation.
func (t *GroupTable) Rel() string { return t.rel }

// Len returns the number of base rows.
func (t *GroupTable) Len() int { return len(t.rows) }

// Row returns the fold input of base row ri.
func (t *GroupTable) Row(ri int) *FoldRow { return &t.rows[ri] }

// Eval computes the fold input of a row that is not a base row (a new
// tuple u⁺ of an update), with the same evaluation the base rows had.
func (t *GroupTable) Eval(row []value.Value) (FoldRow, error) {
	var buf [64]byte
	in, _, err := t.eval(&runner{q: t.q, db: t.db}, row, buf[:0])
	return in, err
}

// Fold returns the output rows of the query over a relation whose rows
// are exactly rows, in order: the passing rows fold into their groups in
// first-appearance order, and each group projects one output row. The
// result is the row sequence RunOverride gives with the relation replaced
// by those rows.
func (t *GroupTable) Fold(rows []*FoldRow) ([][]value.Value, error) {
	a := t.q.A
	f := newGroupFold(a)
	for _, in := range rows {
		if in.pass {
			f.add(f.open(in.Key, in.tup), in.args)
		}
	}
	r := &runner{q: t.q, db: t.db}
	out := make([][]value.Value, len(f.order))
	for x, g := range f.finish() {
		row, err := r.projectRow(a, &env{a: a, tuples: g.rep, aggs: g.aggs})
		if err != nil {
			return nil, err
		}
		out[x] = row
	}
	return out, nil
}
