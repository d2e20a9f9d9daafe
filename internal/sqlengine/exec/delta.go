package exec

import (
	"fmt"

	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// This file implements delta evaluation: running only the ± rows of an
// updated relation through the join pipeline instead of re-executing the
// query over the whole database. For a plain SPJ query Q referencing the
// updated relation once, multiset semantics give the first-order rewrite
//
//	Q(up(D)) = Q(D) − Q(D[rel ← minus]) + Q(D[rel ← plus])
//
// where D[rel ← rows] replaces rel by just the delta rows. When rel
// occurs k > 1 times (a self-join), Q is multilinear in its k occurrence
// slots, so substituting R − minus + plus into every slot and expanding
// yields the higher-order form (the DBToaster recipe): one term per
// assignment vector in {base, minus, plus}^k except all-base — 3^k − 1
// terms, each with sign (−1)^{#minus-slots}. Positive terms accumulate
// into outPlus, negative ones into outMinus, and the first-order identity
// above still holds with SIGNED multiset counts (an individual term may
// overshoot; only the net count per row is guaranteed non-negative).
//
// Every term joins a handful of delta rows against the cached filtered
// sources and hash indexes of the untouched relations (cache.go), so a
// disagreement check that would otherwise re-run Q over O(|D|) tuples
// costs O(|delta| probes) per term. Callers that need Q(up(D)) ≟ Q(D)
// compare the two correction multisets: the outputs differ iff
// outMinus ≢ outPlus (signed counts cancel exactly when the bags match).
//
// RunTagged runs these terms for a batch of updates at once, their rows
// tagged with a trailing upid column that keeps each update's rows apart;
// a batch of one is the single update's check.
//
// DISTINCT queries are handled one level up: RunTagged never applies the
// deduplication step, so for a DISTINCT query the correction terms are
// deltas of the pre-DISTINCT core multiset; the disagreement checker nets
// them against its multiplicity view (ivm.go) to decide set-level
// change. The tier matrix (analyze.DeltaTier) encodes which of these
// modes applies per (query, relation).

// DeltaTier reports the incremental tier RunTagged offers for updates of
// rel: DeltaFull (first-order rewrite alone is exact), DeltaPartial
// (DISTINCT and/or self-joins — correction terms must be resolved against
// materialized intermediates), or DeltaNone (aggregation at this level,
// ORDER BY, LIMIT, HAVING, derived tables, subqueries, or rel absent).
func (q *Query) DeltaTier(rel string) analyze.DeltaTier {
	return q.A.DeltaTierOf(rel)
}

// RunTagged is exec's delta entry and the batching device of §4.2: the ±
// rows (minus, plus; either side may be empty) of many updates of rel,
// each row extended by one trailing INT value, the upid of its update, run
// through the delta expansion at once, and every upid gets back its own two
// correction terms — exactly the ones a batch holding that update alone
// returns. The query's DeltaTier for rel must not be DeltaNone. With one
// occurrence of rel these are two runs, Q over the tagged minus rows and
// over the tagged plus rows, grouped per upid. With k > 1 occurrences
// every term of the expansion runs once for all updates: its delta slots
// are hash-joined on equal upid, so rows of different updates never meet
// in one tuple.
//
// DISTINCT queries are admitted, but the deduplication step is NOT
// applied: the grouped rows are the pre-DISTINCT core rows, which is what
// the disagreement checker needs to net against its multiplicity view.
func (q *Query) RunTagged(db *storage.Database, rel string, minus, plus [][]value.Value) (outMinus, outPlus map[int64][][]value.Value, err error) {
	si := q.A.SourceIndex(rel)
	if si < 0 {
		return nil, nil, fmt.Errorf("relation %q not in query %q", rel, q.SQL)
	}
	arity := q.A.Sources[si].Rel.Arity()
	terms, err := q.deltaTerms(db, rel, minus, plus, arity)
	if err != nil {
		return nil, nil, err
	}
	// Size every upid's two row lists first, so the lists are windows of
	// one slice.
	counts := [2]map[int64]int{{}, {}} // by deltaTerm.side
	total := 0
	for _, t := range terms {
		for _, tup := range t.tuples {
			counts[t.side][tup[t.first][arity].I]++
		}
		total += len(t.tuples)
	}
	var out [2]map[int64][][]value.Value
	all := make([][]value.Value, total)
	for s, c := range counts {
		out[s] = make(map[int64][][]value.Value, len(c))
		for upid, n := range c {
			out[s][upid], all = all[:0:n], all[n:]
		}
	}
	r := &runner{q: q, db: db}
	for _, t := range terms {
		rows, err := r.project(t.tuples)
		if err != nil {
			return nil, nil, err
		}
		o := out[t.side]
		for i, tup := range t.tuples {
			upid := tup[t.first][arity].I
			o[upid] = append(o[upid], rows[i])
		}
	}
	return out[1], out[0], nil
}

// deltaTerm is one term of the delta expansion: the joined tuples of the
// query with delta rows substituted at some occurrences of the updated
// relation, the side its sign puts them on, and first, the source index
// of the first substituted occurrence.
type deltaTerm struct {
	tuples [][][]value.Value
	side   int // 0: a positive term, of outPlus; 1: a negative one, of outMinus
	first  int
}

// deltaTerms joins the delta terms for an update of rel, which occurs at
// the k top-level sources SourcesOf(rel): every assignment of {base,
// minus, plus} to the k slots except all-base, enumerated in a fixed
// ternary order so the output row order — and therefore any
// floating-point accumulation over it — is deterministic. A term's sign is
// (−1)^{#minus slots}. Terms that would substitute an empty delta side are
// skipped (they are empty). For k = 1 these are the two first-order terms.
//
// Column tagCol of every delta row holds its upid: every delta slot after
// a term's first is hash-joined to the first on that column, so a term
// joins the rows of each update only with rows of the same update, as if
// each ran alone.
func (q *Query) deltaTerms(db *storage.Database, rel string, minus, plus [][]value.Value, tagCol int) ([]deltaTerm, error) {
	if q.DeltaTier(rel) == analyze.DeltaNone {
		return nil, fmt.Errorf("delta execution does not apply to %q for updates of %q", q.SQL, rel)
	}
	srcs := q.A.SourcesOf(rel)
	k := len(srcs)
	total := 1
	for i := 0; i < k; i++ {
		total *= 3
	}
	asn := make([]int, k) // 0 = base, 1 = minus, 2 = plus
	sov := make([][][]value.Value, len(q.A.Sources))
	var terms []deltaTerm
	for code := 1; code < total; code++ {
		c := code
		skip := false
		negs := 0
		for i := 0; i < k; i++ {
			asn[i] = c % 3
			c /= 3
			switch asn[i] {
			case 1:
				negs++
				skip = skip || len(minus) == 0
			case 2:
				skip = skip || len(plus) == 0
			}
		}
		if skip {
			continue
		}
		first := -1
		var edges []conjunctInfo
		for i, s := range srcs {
			switch asn[i] {
			case 0:
				sov[s] = nil
				continue
			case 1:
				sov[s] = minus
			case 2:
				sov[s] = plus
			}
			if first < 0 {
				first = s
			} else {
				edges = append(edges, conjunctInfo{srcs: []int{first, s}, edge: &joinEdge{srcA: first, srcB: s,
					exprA: &ast.SourceCol{Source: first, Col: tagCol}, exprB: &ast.SourceCol{Source: s, Col: tagCol}}})
			}
		}
		r := &runner{q: q, db: db, sov: sov, edges: edges}
		tuples, err := r.joinPhase(q.A, nil)
		if err != nil {
			return nil, err
		}
		terms = append(terms, deltaTerm{tuples: tuples, side: negs % 2, first: first})
	}
	return terms, nil
}

// project projects joined tuples of the query's top level into rows of
// one value slab.
func (r *runner) project(tuples [][][]value.Value) ([][]value.Value, error) {
	a := r.q.A
	out := make([][]value.Value, len(tuples))
	w := len(a.OutCols)
	slab := make([]value.Value, len(tuples)*w)
	env := &env{a: a}
	for i, tup := range tuples {
		env.tuples = tup
		env.itemVals = nil
		row, err := r.projectInto(a, env, slab[i*w:(i+1)*w:(i+1)*w])
		if err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}
