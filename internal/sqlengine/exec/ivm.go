// This file implements incremental view maintenance (IVM) intermediates:
// materialized summaries of a query's core-row multiset over the base
// state (runs with overrides never consult them). Two shapes exist:
//
//   - GroupView: per group key, the contributing row count and, per
//     aggregate, the non-null input count, float input sum, current
//     extremum, and (optionally) the full candidate multiset of MIN/MAX
//     inputs. The candidate multisets let the disagreement checker
//     resolve "the current extremum was removed" incrementally instead of
//     re-running the query (the dominant NeedFull source on aggregate
//     workloads).
//   - MultiplicityView: the projected core-row multiset of a DISTINCT
//     query as a key → count map. Netting a delta against it decides
//     whether any key's count crosses zero — the exact condition for the
//     DISTINCT output (a set) to change.
//
// Both are folded from a Join, one pass of the query's join whose tuples
// keep every source's base row. The same pass yields every source's
// contributing primary keys and primes the execution cache later runs
// reuse, so the disagreement checker is built from exactly one pass and
// holds its view, like its contribution sets, for the database it was
// built over.

package exec

import (
	"fmt"

	"qirana/internal/storage"
	"qirana/internal/value"
)

// ViewAgg names one aggregate column of a GroupView: the function
// (COUNT/SUM/AVG/MIN/MAX, upper-cased) and the input column index in the
// view query's output rows.
type ViewAgg struct {
	Fn     string
	ArgCol int
}

// GroupViewSpec describes the GroupView to maintain over a query whose
// output rows are (group key columns..., aggregate input columns...).
type GroupViewSpec struct {
	NumGroups int
	Aggs      []ViewAgg
}

// CandCount is one entry of an extremum candidate multiset.
type CandCount struct {
	Val value.Value
	N   int
}

// GroupAgg is the maintained state of one group.
type GroupAgg struct {
	Rows     int64
	N        []int64
	Sum      []float64
	Min, Max []value.Value
	// Cand[j], for MIN/MAX aggregates (nil for the others), maps
	// value.Key(v) to the value and its multiplicity among the group's
	// non-null inputs: the candidates an extremum removal resolves
	// against. Costs O(rows) memory on MIN/MAX queries.
	Cand []map[string]CandCount
}

// GroupView is the materialized aggregate view: group key → state.
type GroupView struct {
	Groups map[string]*GroupAgg
}

// MultiplicityView is the materialized core-row multiset of a DISTINCT
// query: value.Key(projected row) → multiplicity.
type MultiplicityView struct {
	Counts map[string]int
}

// Join is one pass of a query's FROM/WHERE over a database: every joined
// tuple, holding at index i the base row of FROM source i. The pass runs
// through the query's execution cache, so it leaves behind the filtered
// sources and join indexes that later runs of the query serve from.
type Join struct {
	tuples [][][]value.Value
	q      *Query
	db     *storage.Database
}

// Join joins the query's FROM/WHERE over db once.
func (q *Query) Join(db *storage.Database) (*Join, error) {
	r := &runner{q: q, db: db}
	tuples, err := r.joinPhase(q.A, nil)
	if err != nil {
		return nil, err
	}
	return &Join{tuples: tuples, q: q, db: db}, nil
}

// Contributions returns, per FROM source, the primary keys of the base
// rows the join placed at that source, each the value.AppendKey bytes of
// the relation's key columns: the contributing tuples of the paper's
// augmented query (§4.1). Each occurrence of a self-joined relation gets a
// set of its own. Every source must be a base relation.
func (j *Join) Contributions() []map[string]bool {
	srcs := j.q.A.Sources
	out := make([]map[string]bool, len(srcs))
	var key []byte
	for i, src := range srcs {
		out[i] = make(map[string]bool)
		for _, tup := range j.tuples {
			key = key[:0]
			for _, k := range src.Rel.Key {
				key = value.AppendKey(key, tup[i][k:k+1])
			}
			if !out[i][string(key)] {
				out[i][string(key)] = true
			}
		}
	}
	return out
}

// GroupView folds the join's tuples, projected by the query, into the
// aggregate view under spec. The query must be a plain SPJ whose output
// rows match the spec layout — in practice the checker's unrolled
// aggregate query.
func (j *Join) GroupView(spec GroupViewSpec) (*GroupView, error) {
	a := j.q.A
	if len(a.OutCols) < spec.NumGroups {
		return nil, fmt.Errorf("group view row narrower than its %d group columns", spec.NumGroups)
	}
	na := len(spec.Aggs)
	gv := &GroupView{Groups: make(map[string]*GroupAgg)}
	var key []byte
	r := &runner{q: j.q, db: j.db}
	err := r.eachRow(j.tuples, func(row []value.Value) {
		key = value.AppendKey(key[:0], row[:spec.NumGroups])
		st := gv.Groups[string(key)]
		if st == nil {
			st = &GroupAgg{N: make([]int64, na), Sum: make([]float64, na),
				Min: make([]value.Value, na), Max: make([]value.Value, na)}
			for j := range st.Min {
				st.Min[j], st.Max[j] = value.Null, value.Null
			}
			st.Cand = make([]map[string]CandCount, na)
			for j, ag := range spec.Aggs {
				if ag.Fn == "MIN" || ag.Fn == "MAX" {
					st.Cand[j] = make(map[string]CandCount)
				}
			}
			gv.Groups[string(key)] = st
		}
		st.Rows++
		for j, ag := range spec.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			st.N[j]++
			switch ag.Fn {
			case "SUM", "AVG":
				st.Sum[j] += v.AsFloat()
			case "MIN":
				if st.Min[j].IsNull() {
					st.Min[j] = v
				} else if cmp, ok := value.Compare(v, st.Min[j]); ok && cmp < 0 {
					st.Min[j] = v
				}
				st.addCand(j, v)
			case "MAX":
				if st.Max[j].IsNull() {
					st.Max[j] = v
				} else if cmp, ok := value.Compare(v, st.Max[j]); ok && cmp > 0 {
					st.Max[j] = v
				}
				st.addCand(j, v)
			}
		}
	})
	return gv, err
}

// eachRow projects the query's joined tuples, one at a time, into one
// reused row and calls fn on it; fn must not keep the row.
func (r *runner) eachRow(tuples [][][]value.Value, fn func(row []value.Value)) error {
	a := r.q.A
	row := make([]value.Value, len(a.OutCols))
	e := &env{a: a}
	for _, tup := range tuples {
		e.tuples, e.itemVals = tup, nil
		if _, err := r.projectInto(a, e, row); err != nil {
			return err
		}
		fn(row)
	}
	return nil
}

func (st *GroupAgg) addCand(j int, v value.Value) {
	if st.Cand[j] == nil {
		return
	}
	k := value.Key([]value.Value{v})
	e := st.Cand[j][k]
	if e.N == 0 {
		e.Val = v
	}
	e.N++
	st.Cand[j][k] = e
}

// MultiplicityView counts the join's core rows: its tuples projected by
// the query without the DISTINCT step.
func (j *Join) MultiplicityView() (*MultiplicityView, error) {
	mv := &MultiplicityView{Counts: make(map[string]int, len(j.tuples))}
	r := &runner{q: j.q, db: j.db}
	err := r.eachRow(j.tuples, func(row []value.Value) { mv.Counts[value.Key(row)]++ })
	return mv, err
}
