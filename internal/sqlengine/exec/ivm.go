// This file implements incremental view maintenance (IVM) intermediates:
// per-query materialized summaries of the core-row multiset, stored in
// the same version-stamped execution cache as the filtered sources and
// join indexes (cache.go) and obeying the same invalidation discipline —
// a view is valid only while every top-level base source's
// storage.Table.Version() matches the stamps taken at build time, and
// runs with overrides never consult it (views describe the base state).
//
// Two shapes exist:
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
// Views are built outside the cache mutex (builds run the join pipeline)
// and published with a store-if-still-absent handoff: concurrent builders
// race benignly, the first stored pointer wins, and all readers share it
// read-only afterwards.

package exec

import (
	"fmt"
	"strconv"
	"strings"

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

// GroupView returns the (building or cached) aggregate view of this query
// under spec. The query must be a plain SPJ whose output rows match the
// spec layout — in practice the checker's unrolled aggregate query.
func (q *Query) GroupView(db *storage.Database, spec GroupViewSpec) (*GroupView, error) {
	key := groupViewKey(spec)
	v, err := q.fetchView(db, key, func() (any, error) { return q.buildGroupView(db, spec) })
	if err != nil {
		return nil, err
	}
	return v.(*GroupView), nil
}

// MultiplicityView returns the (building or cached) core-row multiplicity
// view of this non-aggregating query.
func (q *Query) MultiplicityView(db *storage.Database) (*MultiplicityView, error) {
	v, err := q.fetchView(db, "mult", func() (any, error) { return q.buildMultiplicityView(db) })
	if err != nil {
		return nil, err
	}
	return v.(*MultiplicityView), nil
}

func groupViewKey(spec GroupViewSpec) string {
	var b strings.Builder
	b.WriteString("gv|")
	b.WriteString(strconv.Itoa(spec.NumGroups))
	for _, ag := range spec.Aggs {
		b.WriteByte('|')
		b.WriteString(ag.Fn)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(ag.ArgCol))
	}
	return b.String()
}

// tableVersions stamps the current version of every top-level base
// source, in source order. ok=false means the query is not view-cacheable
// (derived tables, subqueries, or a missing base table).
func (q *Query) tableVersions(db *storage.Database) ([]uint64, bool) {
	if len(q.A.Subs) > 0 {
		return nil, false
	}
	out := make([]uint64, 0, len(q.A.Sources))
	for _, src := range q.A.Sources {
		if src.Rel == nil {
			return nil, false
		}
		t := db.Table(src.Rel.Name)
		if t == nil {
			return nil, false
		}
		out = append(out, t.Version())
	}
	return out, true
}

func versionsMatch(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fetchView serves a view from the cache when its version stamps still
// match, building (outside the mutex) and publishing it otherwise.
func (q *Query) fetchView(db *storage.Database, key string, build func() (any, error)) (any, error) {
	vers, cacheable := q.tableVersions(db)
	if !cacheable {
		return build()
	}
	c := &q.cache
	c.mu.Lock()
	c.resetLocked(db)
	if cv := c.views[key]; cv != nil && versionsMatch(cv.versions, vers) {
		c.hits++
		c.mu.Unlock()
		return cv.val, nil
	}
	c.misses++
	c.mu.Unlock()

	val, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked(db)
	if cv := c.views[key]; cv != nil && versionsMatch(cv.versions, vers) {
		// A concurrent builder published first; share its copy so every
		// reader holds the same pointer.
		return cv.val, nil
	}
	// The stamps were taken before the build read the tables: if a table
	// moved in between, the stored stamps are older than the data and the
	// next fetch rebuilds — stale data is never served as current.
	c.views[key] = &cachedView{versions: vers, val: val}
	return val, nil
}

func (q *Query) buildGroupView(db *storage.Database, spec GroupViewSpec) (*GroupView, error) {
	rows, err := q.rawRows(db)
	if err != nil {
		return nil, err
	}
	na := len(spec.Aggs)
	gv := &GroupView{Groups: make(map[string]*GroupAgg)}
	var key []byte
	for _, row := range rows {
		if len(row) < spec.NumGroups {
			return nil, fmt.Errorf("group view row narrower than its %d group columns", spec.NumGroups)
		}
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
	}
	return gv, nil
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

func (q *Query) buildMultiplicityView(db *storage.Database) (*MultiplicityView, error) {
	rows, err := q.rawRows(db)
	if err != nil {
		return nil, err
	}
	mv := &MultiplicityView{Counts: make(map[string]int, len(rows))}
	for _, row := range rows {
		mv.Counts[value.Key(row)]++
	}
	return mv, nil
}
