package disagree

import (
	"sort"

	"qirana/internal/result"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
	"qirana/internal/value"
)

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

// newGroupIndex indexes the base rows of a single-source GROUP BY query
// for refold, given the query's output over D: a group's base Parts come
// from the output rows, each of which carries its group key in the
// columns plan.SPJ.GroupOut names. It returns nil when the fold input
// does not evaluate on every base row or an output row has no group;
// refold then declines every element.
func newGroupIndex(c *Checker, base *result.Result) *groupIndex {
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
	return g
}

// refold hashes a single-source GROUP BY query over u(D), given the Parts
// of its output over D, by folding the rows of the groups u touches only:
// the old group of every row u rewrites and the group each new tuple
// joins, in base-row order with the new tuples at their own positions.
// The base rows bring the fold input their GroupTable computed once; only
// the new tuples are evaluated. The fold feeds every touched group the row
// sequence a full run over u(D) feeds it and no other rows, through the
// executor's own accumulators and projection, so its output is exactly the
// touched groups' new output rows, float SUM/AVG included; the untouched
// groups keep their rows and their output. ok is false when only a run
// over u(D) can answer (a nil index, a new tuple that fails to evaluate),
// which then reports the error if the query really fails there.
func (g *groupIndex) refold(c *Checker, base result.Parts, u *support.Update) (hash uint64, ok bool) {
	if g == nil || u.LowerRel() != g.t.Rel() {
		return 0, false
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
			return 0, false
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
		return 0, false
	}
	return base.Sub(old).Add(result.PartsOf(out)).Finish(), true
}
