package ast

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"qirana/internal/value"
)

// A Template is the literal-stripped canonical form of a statement plus the
// extracted constant vector: the generalization of Fingerprint that lets
// `price > 5` and `price > 9` share one cache-key prefix. Canon is the
// canonical rendering (see Fingerprint) with every constant — Literal or $N
// Placeholder — replaced by '?'; Sites records, in the textual order of
// those '?' marks, which parameter or which stripped literal feeds each one.
//
// Soundness: two (Template.Canon, ParamKey) pairs that compare equal denote
// semantically identical queries. Substituting the site values into Canon in
// textual order yields one well-defined statement; the canonical sorts
// (AND/OR flattening, commutative swaps, IN-list and GROUP BY ordering)
// applied during lifted rendering are semantics-preserving under any tie
// order, so whatever original statement produced the template, its bound
// form is equivalent to that substituted statement.
type Template struct {
	Canon     string         // canonical form, constants replaced by '?'
	Sites     []TemplateSite // one per '?', in textual order
	NumParams int            // number of distinct $N parameters (0 = constant-only)
	Tables    []string       // base tables read at any depth, lower-cased, sorted
}

// TemplateSite is one stripped constant position in a template.
type TemplateSite struct {
	Param int         // 1-based $N feeding the site, or 0 for a literal site
	Val   value.Value // the stripped literal when Param == 0
}

// ErrNotTemplatable reports that a statement negates a parameter: a
// bound -$1 folds into a negative literal for a number but stays a minus
// over anything else, so no one template and parameter key could match
// its written-out twin for every argument. Prepare rejects such
// statements.
var ErrNotTemplatable = errors.New("statement is not templatable")

// NewTemplate extracts the template of a statement. Statements without
// placeholders are templated too (every literal becomes a site with
// Param == 0): that is how the ad-hoc Price path auto-detects templates and
// shares cache entries with prepared statements. Placeholders must be
// numbered contiguously from $1.
func NewTemplate(s *SelectStmt) (*Template, error) {
	c := &canoner{lift: true}
	f := c.stmt(s)
	t := &Template{Canon: f.text, Sites: make([]TemplateSite, len(f.sites)), Tables: c.relations()}
	for i, e := range f.sites {
		switch e := e.(type) {
		case *Placeholder:
			t.Sites[i].Param = e.Idx
			t.NumParams = max(t.NumParams, e.Idx)
		case *Literal:
			t.Sites[i].Val = e.Val
		}
	}
	// The distinct parameters, sorted, must read 1, 2, …, NumParams.
	var params []int
	for _, st := range t.Sites {
		if st.Param > 0 {
			params = append(params, st.Param)
		}
	}
	slices.Sort(params)
	for i, p := range slices.Compact(params) {
		if p != i+1 {
			return nil, fmt.Errorf("placeholder $%d is missing: parameters must be numbered contiguously from $1 to $%d", i+1, t.NumParams)
		}
	}
	if c.neg != nil {
		return nil, fmt.Errorf("%w: -$%d negates a parameter; bind the negated value instead", ErrNotTemplatable, c.neg.Idx)
	}
	return t, nil
}

// ParamKey renders the per-call constant signature: the values that fill the
// template's sites, in textual site order, in an exact kind-tagged encoding.
// Template.Canon + ParamKey together identify the bound query for caching.
// args must have exactly NumParams values (nil for constant-only templates).
func (t *Template) ParamKey(args []value.Value) (string, error) {
	if len(args) != t.NumParams {
		return "", fmt.Errorf("template takes %d parameter(s), got %d", t.NumParams, len(args))
	}
	b := make([]byte, 0, 16*len(t.Sites))
	for _, s := range t.Sites {
		v := s.Val
		if s.Param > 0 {
			v = args[s.Param-1]
		}
		b = appendValueKey(b, v)
	}
	return string(b), nil
}

// appendValueKey appends an exact, kind-tagged, self-delimiting encoding of
// v. Unlike value.Key (which canonicalizes integral floats with ints for
// comparison semantics) this must distinguish every distinct Value: Int 5
// and Float 5.0 can flow into different output encodings and therefore
// different prices.
func appendValueKey(b []byte, v value.Value) []byte {
	switch v.K {
	case value.KindNull:
		return append(b, 'n', ';')
	case value.KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.I, 10)
		return append(b, ';')
	case value.KindFloat:
		b = append(b, 'f')
		b = strconv.AppendUint(b, math.Float64bits(v.F), 16)
		return append(b, ';')
	case value.KindBool:
		if v.I != 0 {
			return append(b, 'b', '1', ';')
		}
		return append(b, 'b', '0', ';')
	case value.KindDate:
		b = append(b, 'd')
		b = strconv.AppendInt(b, v.I, 10)
		return append(b, ';')
	default: // KindString: length-prefixed, so ';' in content cannot confuse
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		return append(b, v.S...)
	}
}
