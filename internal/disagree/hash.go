package disagree

import (
	"sort"

	"qirana/internal/result"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Hasher derives Result.Hash of a checker's query over a neighbouring
// instance u(D) from the query's output over D, without running the query
// over u(D): the entropy pricing functions need that hash on every support
// element the static classification cannot settle. The unordered hash
// finishes a result.Parts, which is linear in the row multiset, so the
// hash of u(D)'s output is the base Parts corrected by what u removes from
// and adds to the output (plan.HashDelta names the two shapes where that
// correction is cheap and exact). A Hasher is read-only after
// NewHasher, so the workers of one sweep share it.
type Hasher struct {
	c    *Checker
	kind plan.HashDelta
	base result.Parts
	g    *groupIndex // HashGroups only
}

// groupIndex partitions the base rows of a single-source GROUP BY query's
// relation by group key, the key the query's exec.GroupTable gives each
// row. Rows WHERE drops have a key too, so an update's new tuple is
// folded at its own position even when the old row failed WHERE.
type groupIndex struct {
	t       *exec.GroupTable
	of      []int          // group id of each base row
	ids     map[string]int // group key -> id
	members [][]int        // base rows of each group, ascending
	parts   []result.Parts // Parts of each group's output rows over D
}

// NewHasher returns the delta hasher of the checker's query given its
// output over D, or nil when every element the classification cannot
// settle must be re-executed: plan.HashRerun shapes, and group-by queries
// whose fold input does not evaluate on every base row. A group's base
// Parts come from the base output: each output row carries its group key
// in the columns plan.SPJ.GroupOut names.
func (c *Checker) NewHasher(base *result.Result) *Hasher {
	kind := c.SPJ.HashDelta()
	if kind == plan.HashRerun || base.Ordered {
		return nil
	}
	h := &Hasher{c: c, kind: kind, base: result.PartsOf(base.Rows)}
	if kind == plan.HashGroups {
		t, err := c.Q.NewGroupTable(c.db)
		if err != nil {
			return nil
		}
		g := &groupIndex{t: t, of: make([]int, t.Len()), ids: make(map[string]int)}
		for ri := range g.of {
			k := t.Row(ri).Key
			id, ok := g.ids[k]
			if !ok {
				id = len(g.members)
				g.ids[k] = id
				g.members = append(g.members, nil)
			}
			g.of[ri] = id
			g.members[id] = append(g.members[id], ri)
		}
		g.parts = make([]result.Parts, len(g.members))
		key := make([]value.Value, len(c.SPJ.GroupOut))
		for _, row := range base.Rows {
			for x, col := range c.SPJ.GroupOut {
				key[x] = row[col]
			}
			id, ok := g.ids[value.Key(key)]
			if !ok {
				return nil
			}
			g.parts[id] = g.parts[id].Add(result.PartsOf([][]value.Value{row}))
		}
		h.g = g
	}
	return h
}

// Hash returns Result.Hash of the query over u(D), with the tier it was
// decided at counted as CheckBatch counts a residual check of that tier:
// a single-occurrence delta as Batched and DeltaFullRuns, a self-join
// delta as DeltaPartialRuns alone, a group refold as Batched and
// DeltaPartialRuns. ok is false when only a run over u(D) can answer,
// which includes a delta run that fails: the run over u(D) then reports
// the error if the query really fails there.
func (h *Hasher) Hash(u *support.Update) (hash uint64, s CheckStats, ok bool) {
	c := h.c
	if h.kind == plan.HashGroups {
		return h.refold(u)
	}
	rel := u.LowerRel()
	if c.Q.DeltaTier(rel) == analyze.DeltaNone {
		return 0, s, false
	}
	// Q(u(D)) = Q(D) − outMinus + outPlus as signed multisets.
	outMinus, outPlus, err := c.Q.RunDelta(c.db, rel, u.MinusRows(c.db), u.PlusRows(c.db))
	if err != nil {
		return 0, s, false
	}
	if c.multi[rel] {
		s.DeltaPartialRuns = 1
	} else {
		s.Batched, s.DeltaFullRuns = 1, 1
	}
	return h.base.Sub(result.PartsOf(outMinus)).Add(result.PartsOf(outPlus)).Finish(), s, true
}

// refold hashes a single-source GROUP BY query over u(D) by folding the
// rows of the groups u touches only: the old group of every row u
// rewrites and the group each new tuple joins, in base-row order with the
// new tuples at their own positions. The base rows bring the fold input
// their GroupTable computed once; only the new tuples are evaluated. The
// fold feeds every touched group the row sequence a full run over u(D)
// feeds it and no other rows, through the executor's own accumulators and
// projection, so its output is exactly the touched groups' new output
// rows, float SUM/AVG included; the untouched groups keep their rows and
// their output.
func (h *Hasher) refold(u *support.Update) (uint64, CheckStats, bool) {
	c, g := h.c, h.g
	if u.LowerRel() != g.t.Rel() {
		return 0, CheckStats{}, false
	}
	plus := u.PlusRows(c.db)
	pos := []int{u.Row1}
	if u.Swap {
		pos = append(pos, u.Row2)
	}
	in := make([]exec.FoldRow, len(pos))
	var touched []int
	note := func(id int) {
		for _, t := range touched {
			if t == id {
				return
			}
		}
		touched = append(touched, id)
	}
	for x, ri := range pos {
		note(g.of[ri])
		var err error
		if in[x], err = g.t.Eval(plus[x]); err != nil {
			return 0, CheckStats{}, false
		}
		if id, ok := g.ids[in[x].Key]; ok {
			note(id)
		}
	}
	old := result.Parts{}
	var idx []int
	for _, id := range touched {
		old = old.Add(g.parts[id])
		idx = append(idx, g.members[id]...)
	}
	sort.Ints(idx)
	rows := make([]*exec.FoldRow, len(idx))
	for x, ri := range idx {
		rows[x] = g.t.Row(ri)
		for y, p := range pos {
			if ri == p {
				rows[x] = &in[y]
			}
		}
	}
	out, err := g.t.Fold(rows)
	if err != nil {
		return 0, CheckStats{}, false
	}
	return h.base.Sub(old).Add(result.PartsOf(out)).Finish(), CheckStats{Batched: 1, DeltaPartialRuns: 1}, true
}
