package exec

import (
	"fmt"

	"qirana/internal/result"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/value"
)

// eval evaluates an expression in the environment of its statement.
func (r *runner) eval(e ast.Expr, env *env) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil

	case *ast.Placeholder:
		return value.Null, fmt.Errorf("unbound placeholder $%d: bind parameters before executing", x.Idx)

	case *ast.SourceCol:
		return env.tuples[x.Source][x.Col], nil

	case *ast.ColumnRef:
		if itemIdx, ok := env.a.AliasRefs[x]; ok {
			outIdx := env.a.ItemOutIdx[itemIdx]
			if env.itemVals != nil {
				return env.itemVals[outIdx], nil
			}
			return r.eval(env.a.OutCols[outIdx].Expr, env)
		}
		cb, ok := env.a.Binds[x]
		if !ok {
			return value.Null, fmt.Errorf("unresolved column %q", x.String())
		}
		target := env.at(cb.Level)
		tup := target.tuples[cb.Table]
		if tup == nil {
			return value.Null, nil // empty-group representative
		}
		return tup[cb.Col], nil

	case *ast.BinaryExpr:
		switch x.Op {
		case ast.OpAnd, ast.OpOr:
			lv, err := r.eval(x.L, env)
			if err != nil {
				return value.Null, err
			}
			lt := value.TristateOf(lv)
			// Short-circuit.
			if x.Op == ast.OpAnd && lt == value.False {
				return value.NewBool(false), nil
			}
			if x.Op == ast.OpOr && lt == value.True {
				return value.NewBool(true), nil
			}
			rv, err := r.eval(x.R, env)
			if err != nil {
				return value.Null, err
			}
			rt := value.TristateOf(rv)
			if x.Op == ast.OpAnd {
				return value.And(lt, rt).ToValue(), nil
			}
			return value.Or(lt, rt).ToValue(), nil
		}

		lv, err := r.eval(x.L, env)
		if err != nil {
			return value.Null, err
		}
		// Interval arithmetic: <date expr> ± INTERVAL 'n' UNIT.
		if iv, ok := x.R.(*ast.Interval); ok {
			if lv.IsNull() {
				return value.Null, nil
			}
			n := int(iv.N)
			if x.Op == ast.OpSub {
				n = -n
			} else if x.Op != ast.OpAdd {
				return value.Null, fmt.Errorf("interval only supports + and -")
			}
			switch iv.Unit {
			case "DAY":
				return value.NewDateDays(lv.I + int64(n)), nil
			case "MONTH":
				return value.AddMonths(lv, n), nil
			case "YEAR":
				return value.AddYears(lv, n), nil
			}
		}
		rv, err := r.eval(x.R, env)
		if err != nil {
			return value.Null, err
		}
		if x.Op.IsComparison() {
			c, ok := value.Compare(lv, rv)
			if !ok {
				return value.Null, nil
			}
			var b bool
			switch x.Op {
			case ast.OpEq:
				b = c == 0
			case ast.OpNeq:
				b = c != 0
			case ast.OpLt:
				b = c < 0
			case ast.OpLe:
				b = c <= 0
			case ast.OpGt:
				b = c > 0
			case ast.OpGe:
				b = c >= 0
			}
			return value.NewBool(b), nil
		}
		var op byte
		switch x.Op {
		case ast.OpAdd:
			op = '+'
		case ast.OpSub:
			op = '-'
		case ast.OpMul:
			op = '*'
		case ast.OpDiv:
			op = '/'
		case ast.OpMod:
			op = '%'
		default:
			return value.Null, fmt.Errorf("unsupported operator %v", x.Op)
		}
		return value.Arith(op, lv, rv)

	case *ast.UnaryExpr:
		v, err := r.eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		if x.Op == "NOT" {
			return value.Not(value.TristateOf(v)).ToValue(), nil
		}
		// Unary minus.
		switch v.K {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			return value.NewInt(-v.I), nil
		default:
			return value.NewFloat(-v.AsFloat()), nil
		}

	case *ast.FuncCall:
		if x.IsAggregate() {
			if env.aggs != nil {
				if v, ok := env.aggs[x]; ok {
					return v, nil
				}
			}
			return value.Null, fmt.Errorf("aggregate %s used outside aggregation context", x.Name)
		}
		return r.evalScalarFunc(x, env)

	case *ast.LikeExpr:
		v, err := r.eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		p, err := r.eval(x.Pattern, env)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() || p.IsNull() {
			return value.Null, nil
		}
		m := value.Like(v.String(), p.String())
		if x.Not {
			m = !m
		}
		return value.NewBool(m), nil

	case *ast.BetweenExpr:
		v, err := r.eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		lo, err := r.eval(x.Lo, env)
		if err != nil {
			return value.Null, err
		}
		hi, err := r.eval(x.Hi, env)
		if err != nil {
			return value.Null, err
		}
		ge := cmpTri(v, lo, func(c int) bool { return c >= 0 })
		le := cmpTri(v, hi, func(c int) bool { return c <= 0 })
		t := value.And(ge, le)
		if x.Not {
			t = value.Not(t)
		}
		return t.ToValue(), nil

	case *ast.IsNullExpr:
		v, err := r.eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		b := v.IsNull()
		if x.Not {
			b = !b
		}
		return value.NewBool(b), nil

	case *ast.InExpr:
		return r.evalIn(x, env)

	case *ast.ExistsExpr:
		sr, err := r.runSub(env.a.Subs[x.Sub], env)
		if err != nil {
			return value.Null, err
		}
		b := !sr.res.IsEmpty()
		if x.Not {
			b = !b
		}
		return value.NewBool(b), nil

	case *ast.SubqueryExpr:
		sr, err := r.runSub(env.a.Subs[x.Sub], env)
		if err != nil {
			return value.Null, err
		}
		if sr.res.IsEmpty() {
			return value.Null, nil
		}
		return sr.res.Rows[0][0], nil

	case *ast.CaseExpr:
		var opv value.Value
		if x.Operand != nil {
			v, err := r.eval(x.Operand, env)
			if err != nil {
				return value.Null, err
			}
			opv = v
		}
		for _, w := range x.Whens {
			cv, err := r.eval(w.Cond, env)
			if err != nil {
				return value.Null, err
			}
			hit := false
			if x.Operand != nil {
				if c, ok := value.Compare(opv, cv); ok && c == 0 {
					hit = true
				}
			} else if value.TristateOf(cv) == value.True {
				hit = true
			}
			if hit {
				return r.eval(w.Result, env)
			}
		}
		if x.Else != nil {
			return r.eval(x.Else, env)
		}
		return value.Null, nil

	case *ast.Interval:
		return value.Null, fmt.Errorf("INTERVAL literal outside date arithmetic")
	}
	return value.Null, fmt.Errorf("unsupported expression %T", e)
}

func cmpTri(a, b value.Value, ok func(int) bool) value.Tristate {
	c, valid := value.Compare(a, b)
	if !valid {
		return value.Unknown
	}
	if ok(c) {
		return value.True
	}
	return value.False
}

func (r *runner) evalScalarFunc(f *ast.FuncCall, env *env) (value.Value, error) {
	if len(f.Args) != 1 {
		return value.Null, fmt.Errorf("function %s expects 1 argument", f.Name)
	}
	v, err := r.eval(f.Args[0], env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	switch f.Name {
	case "YEAR":
		return value.NewInt(int64(v.Time().Year())), nil
	case "MONTH":
		return value.NewInt(int64(v.Time().Month())), nil
	case "DAY":
		return value.NewInt(int64(v.Time().Day())), nil
	case "ABS":
		if v.K == value.KindInt {
			if v.I < 0 {
				return value.NewInt(-v.I), nil
			}
			return v, nil
		}
		fv := v.AsFloat()
		if fv < 0 {
			fv = -fv
		}
		return value.NewFloat(fv), nil
	}
	return value.Null, fmt.Errorf("unknown function %s", f.Name)
}

func (r *runner) evalIn(x *ast.InExpr, env *env) (value.Value, error) {
	v, err := r.eval(x.X, env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	var t value.Tristate
	if x.Sub != nil {
		sr, err := r.runSub(env.a.Subs[x.Sub], env)
		if err != nil {
			return value.Null, err
		}
		sr.buildInSet()
		switch {
		case sr.inSet[value.Key([]value.Value{v})]:
			t = value.True
		case sr.inHasNull:
			t = value.Unknown
		default:
			t = value.False
		}
	} else {
		t = value.False
		for _, item := range x.List {
			iv, err := r.eval(item, env)
			if err != nil {
				return value.Null, err
			}
			if iv.IsNull() {
				if t == value.False {
					t = value.Unknown
				}
				continue
			}
			if c, ok := value.Compare(v, iv); ok && c == 0 {
				t = value.True
				break
			}
		}
	}
	if x.Not {
		t = value.Not(t)
	}
	return t.ToValue(), nil
}

func (sr *subResult) buildInSet() {
	if sr.inSet != nil {
		return
	}
	sr.inSet = make(map[string]bool, sr.res.Len())
	for _, row := range sr.res.Rows {
		if row[0].IsNull() {
			sr.inHasNull = true
			continue
		}
		sr.inSet[value.Key(row[:1])] = true
	}
}

// runSub executes a subquery in the context of env, memoizing uncorrelated
// subqueries globally and correlated ones per binding of their outer
// column references.
func (r *runner) runSub(sa *analyze.Analyzed, env *env) (*subResult, error) {
	if sa == nil {
		return nil, fmt.Errorf("internal: subquery not analyzed")
	}
	if r.subCache == nil {
		r.subCache = make(map[*analyze.Analyzed]*subResult)
	}
	root := r.subCache[sa]
	if root == nil {
		root = &subResult{}
		r.subCache[sa] = root
	}
	if !sa.Correlated {
		if root.res == nil {
			res, err := r.execSub(sa, env)
			if err != nil {
				return nil, err
			}
			root.res = res
		}
		return root, nil
	}
	// Correlated: memoize on the referenced outer values. A binding at
	// level L relative to the subquery is level L-1 relative to env.
	keyVals := make([]value.Value, len(sa.CorrelatedCols))
	for i, cb := range sa.CorrelatedCols {
		target := env.at(cb.Level - 1)
		tup := target.tuples[cb.Table]
		if tup == nil {
			keyVals[i] = value.Null
		} else {
			keyVals[i] = tup[cb.Col]
		}
	}
	k := value.Key(keyVals)
	if root.memo == nil {
		root.memo = make(map[string]*subResult)
	}
	if sr, ok := root.memo[k]; ok {
		return sr, nil
	}
	res, err := r.execSub(sa, env)
	if err != nil {
		return nil, err
	}
	sr := &subResult{res: res}
	root.memo[k] = sr
	return sr, nil
}

func (r *runner) execSub(sa *analyze.Analyzed, env *env) (*result.Result, error) {
	return r.exec(sa, env)
}
