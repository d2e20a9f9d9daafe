package exec

import (
	"fmt"

	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// group is one finished aggregation group: a representative tuple (for
// evaluating grouping and MySQL-permissive non-grouped expressions) and
// the computed aggregate values.
type group struct {
	rep  [][]value.Value
	aggs map[*ast.FuncCall]value.Value
}

// aggAcc accumulates one aggregate call within one group.
type aggAcc struct {
	fn       *ast.FuncCall
	n        int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max value.Value
	distinct map[string]bool
}

func newAcc(fn *ast.FuncCall) aggAcc {
	a := aggAcc{fn: fn, min: value.Null, max: value.Null}
	if fn.Distinct {
		a.distinct = make(map[string]bool)
	}
	return a
}

func (a *aggAcc) addStar() { a.n++ }

func (a *aggAcc) add(vals []value.Value) {
	for _, v := range vals {
		if v.IsNull() {
			return // SQL aggregates ignore NULL inputs
		}
	}
	if a.distinct != nil {
		k := value.Key(vals)
		if a.distinct[k] {
			return
		}
		a.distinct[k] = true
	}
	a.n++
	v := vals[0]
	switch a.fn.Name {
	case "SUM", "AVG":
		if v.K == value.KindFloat {
			a.isFloat = true
			a.sumF += v.F
		} else {
			a.sumI += v.AsInt()
		}
	case "MIN":
		if a.min.IsNull() {
			a.min = v
		} else if c, ok := value.Compare(v, a.min); ok && c < 0 {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() {
			a.max = v
		} else if c, ok := value.Compare(v, a.max); ok && c > 0 {
			a.max = v
		}
	}
}

func (a *aggAcc) final() value.Value {
	switch a.fn.Name {
	case "COUNT":
		return value.NewInt(a.n)
	case "SUM":
		if a.n == 0 {
			return value.Null
		}
		if a.isFloat {
			return value.NewFloat(a.sumF + float64(a.sumI))
		}
		return value.NewInt(a.sumI)
	case "AVG":
		if a.n == 0 {
			return value.Null
		}
		return value.NewFloat((a.sumF + float64(a.sumI)) / float64(a.n))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return value.Null
}

type groupAcc struct {
	rep  [][]value.Value
	accs []aggAcc
}

// groupFold folds tuples into aggregation groups in first-appearance
// order. It is the one accumulate-and-finish routine of aggregation:
// groupPhase feeds it the joined tuples of a run, a GroupTable refold
// (refold.go) the rows of the groups an update touches.
type groupFold struct {
	aggs  []*ast.FuncCall
	byKey map[string]*groupAcc
	order []*groupAcc
}

func newGroupFold(a *analyze.Analyzed) *groupFold {
	return &groupFold{aggs: a.Aggs, byKey: make(map[string]*groupAcc)}
}

// open returns group k, opening it with representative tuple rep on k's
// first appearance.
func (f *groupFold) open(k string, rep [][]value.Value) *groupAcc {
	ga := f.byKey[k]
	if ga == nil {
		ga = &groupAcc{rep: rep, accs: make([]aggAcc, len(f.aggs))}
		for i, fn := range f.aggs {
			ga.accs[i] = newAcc(fn)
		}
		f.byKey[k] = ga
		f.order = append(f.order, ga)
	}
	return ga
}

// group is open for a key held in a reused buffer: only a group's first
// appearance allocates its key string.
func (f *groupFold) group(key []byte, rep [][]value.Value) *groupAcc {
	if ga := f.byKey[string(key)]; ga != nil {
		return ga
	}
	return f.open(string(key), rep)
}

// add folds one tuple's aggregate arguments, laid out as foldArgs lays
// them out, into group ga.
func (f *groupFold) add(ga *groupAcc, args []value.Value) {
	for i := range ga.accs {
		acc := &ga.accs[i]
		if acc.fn.Star {
			acc.addStar()
			continue
		}
		n := len(acc.fn.Args)
		acc.add(args[:n])
		args = args[n:]
	}
}

// finish computes every group's aggregate values, in first-appearance
// order.
func (f *groupFold) finish() []*group {
	groups := make([]*group, len(f.order))
	for x, ga := range f.order {
		g := &group{rep: ga.rep, aggs: make(map[*ast.FuncCall]value.Value, len(ga.accs))}
		for i := range ga.accs {
			g.aggs[ga.accs[i].fn] = ga.accs[i].final()
		}
		groups[x] = g
	}
	return groups
}

// groupKey evaluates the GROUP BY expressions on the tuple bound in e and
// returns their value.Key bytes, written over dst.
func (r *runner) groupKey(a *analyze.Analyzed, e *env, dst []byte) ([]byte, error) {
	key := dst[:0]
	for _, g := range a.Stmt.GroupBy {
		v, err := r.eval(g, e)
		if err != nil {
			return key, err
		}
		key = value.AppendKey(key, []value.Value{v})
	}
	return key, nil
}

// foldArgs appends to args the argument values of every non-star
// aggregate of a, in order, evaluated on the tuple bound in e.
func (r *runner) foldArgs(a *analyze.Analyzed, e *env, args []value.Value) ([]value.Value, error) {
	for _, fn := range a.Aggs {
		if fn.Star {
			continue
		}
		if len(fn.Args) == 0 {
			return nil, fmt.Errorf("aggregate %s requires an argument", fn.Name)
		}
		for _, arg := range fn.Args {
			v, err := r.eval(arg, e)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
	}
	return args, nil
}

// groupPhase partitions the joined tuples into groups and computes the
// aggregate values. A query with aggregates but no GROUP BY forms a single
// global group, which exists even over empty input (SQL semantics).
func (r *runner) groupPhase(a *analyze.Analyzed, tuples [][][]value.Value, outer *env) ([]*group, error) {
	f := newGroupFold(a)
	e := &env{a: a, outer: outer}
	global := len(a.Stmt.GroupBy) == 0
	if global {
		f.open("", make([][]value.Value, len(a.Sources)))
	}
	var key []byte
	var args []value.Value
	for _, tup := range tuples {
		e.tuples = tup
		e.itemVals = nil
		var err error
		if !global {
			if key, err = r.groupKey(a, e, key); err != nil {
				return nil, err
			}
		}
		ga := f.group(key, tup)
		if args, err = r.foldArgs(a, e, args[:0]); err != nil {
			return nil, err
		}
		f.add(ga, args)
	}
	return f.finish(), nil
}
