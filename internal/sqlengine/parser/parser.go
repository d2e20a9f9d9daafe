// Package parser implements a recursive-descent parser for qirana's SQL
// dialect, producing ast nodes.
package parser

import (
	"strconv"
	"strings"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/lexer"
	"qirana/internal/sqlengine/token"
	"qirana/internal/value"
)

// Parse parses a single SELECT statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (*ast.SelectStmt, error) {
	toks, err := lexer.New(sql).All()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().Type == token.SEMI {
		p.next()
	}
	if p.cur().Type != token.EOF {
		return nil, token.ErrorAt(p.cur().Pos, "unexpected trailing input %q", p.cur().String())
	}
	return stmt, nil
}

// MustParse parses or panics; for statically-known workload queries.
func MustParse(sql string) *ast.SelectStmt {
	s, err := Parse(sql)
	if err != nil {
		panic("parse " + sql + ": " + err.Error())
	}
	return s
}

type parser struct {
	toks []token.Token
	i    int
}

func (p *parser) cur() token.Token { return p.toks[p.i] }
func (p *parser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.Type == token.KEYWORD && t.Lit == kw
}

func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return token.ErrorAt(p.cur().Pos, "expected %s, got %q", kw, p.cur().String())
	}
	return nil
}

func (p *parser) expect(tt token.Type, what string) (token.Token, error) {
	if p.cur().Type != tt {
		return token.Token{}, token.ErrorAt(p.cur().Pos, "expected %s, got %q", what, p.cur().String())
	}
	return p.next(), nil
}

func (p *parser) parseSelect() (*ast.SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	stmt := &ast.SelectStmt{Limit: -1}
	if p.acceptKw("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.cur().Type != token.COMMA {
			break
		}
		p.next()
	}
	// FROM.
	if p.acceptKw("FROM") {
		refs, conds, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		stmt.From = refs
		stmt.Where = ast.Conjoin(conds)
	}
	// WHERE.
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if stmt.Where == nil {
			stmt.Where = w
		} else {
			stmt.Where = &ast.BinaryExpr{Op: ast.OpAnd, L: stmt.Where, R: w}
		}
	}
	// GROUP BY.
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if p.cur().Type != token.COMMA {
				break
			}
			p.next()
		}
	}
	// HAVING.
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	// ORDER BY.
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			o := ast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				o.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if p.cur().Type != token.COMMA {
				break
			}
			p.next()
		}
	}
	// LIMIT / OFFSET.
	if p.acceptKw("LIMIT") {
		n, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
		if p.cur().Type == token.COMMA { // MySQL LIMIT offset, count
			p.next()
			m, err := p.parseIntLit()
			if err != nil {
				return nil, err
			}
			stmt.Offset, stmt.Limit = n, m
		} else if p.acceptKw("OFFSET") {
			m, err := p.parseIntLit()
			if err != nil {
				return nil, err
			}
			stmt.Offset = m
		}
	}
	return stmt, nil
}

func (p *parser) parseIntLit() (int64, error) {
	t, err := p.expect(token.NUMBER, "integer")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.Lit, 10, 64)
	if err != nil {
		return 0, token.ErrorAt(t.Pos, "invalid integer %q", t.Lit)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	// Bare * or qualified t.*.
	if p.cur().Type == token.STAR {
		p.next()
		return ast.SelectItem{Star: true}, nil
	}
	if p.cur().Type == token.IDENT && p.peek().Type == token.DOT {
		// Look two ahead for ".*".
		if p.i+2 < len(p.toks) && p.toks[p.i+2].Type == token.STAR {
			tbl := p.next().Lit
			p.next() // .
			p.next() // *
			return ast.SelectItem{Star: true, StarTable: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		t, err := p.expect(token.IDENT, "alias")
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = t.Lit
	} else if p.cur().Type == token.IDENT {
		item.Alias = p.next().Lit
	}
	return item, nil
}

// parseFrom parses the FROM clause. INNER JOIN ... ON chains are folded
// into a flat table list plus extracted join conditions.
func (p *parser) parseFrom() ([]ast.TableRef, []ast.Expr, error) {
	var refs []ast.TableRef
	var conds []ast.Expr
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, ref)
		// JOIN chains.
		for {
			if p.acceptKw("INNER") {
				if err := p.expectKw("JOIN"); err != nil {
					return nil, nil, err
				}
			} else if !p.acceptKw("JOIN") {
				break
			}
			r2, err := p.parseTableRef()
			if err != nil {
				return nil, nil, err
			}
			refs = append(refs, r2)
			if p.acceptKw("ON") {
				c, err := p.parseExpr()
				if err != nil {
					return nil, nil, err
				}
				conds = append(conds, c)
			}
		}
		if p.cur().Type != token.COMMA {
			break
		}
		p.next()
	}
	return refs, conds, nil
}

func (p *parser) parseTableRef() (ast.TableRef, error) {
	if p.cur().Type == token.LPAREN {
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return ast.TableRef{}, err
		}
		if _, err := p.expect(token.RPAREN, ")"); err != nil {
			return ast.TableRef{}, err
		}
		ref := ast.TableRef{Sub: sub}
		p.acceptKw("AS")
		if p.cur().Type == token.IDENT {
			ref.Alias = p.next().Lit
		} else {
			return ast.TableRef{}, token.ErrorAt(p.cur().Pos, "derived table requires an alias")
		}
		return ref, nil
	}
	// "date" is a keyword (date literals) but also the name of the SSB
	// dimension table; accept it as a table name.
	if p.isKw("DATE") {
		p.next()
		ref := ast.TableRef{Name: "date"}
		if p.acceptKw("AS") {
			a, err := p.expect(token.IDENT, "alias")
			if err != nil {
				return ast.TableRef{}, err
			}
			ref.Alias = a.Lit
		} else if p.cur().Type == token.IDENT {
			ref.Alias = p.next().Lit
		}
		return ref, nil
	}
	t, err := p.expect(token.IDENT, "table name")
	if err != nil {
		return ast.TableRef{}, err
	}
	ref := ast.TableRef{Name: t.Lit}
	if p.acceptKw("AS") {
		a, err := p.expect(token.IDENT, "alias")
		if err != nil {
			return ast.TableRef{}, err
		}
		ref.Alias = a.Lit
	} else if p.cur().Type == token.IDENT {
		ref.Alias = p.next().Lit
	}
	return ref, nil
}

// Expression grammar, lowest precedence first: OR, AND, NOT, predicates
// (comparison, LIKE, BETWEEN, IN, IS NULL), additive, multiplicative, unary.

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryExpr{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryExpr{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (ast.Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[token.Type]ast.BinOp{
	token.EQ: ast.OpEq, token.NEQ: ast.OpNeq, token.LT: ast.OpLt,
	token.LE: ast.OpLe, token.GT: ast.OpGt, token.GE: ast.OpGe,
}

func (p *parser) parsePredicate() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		if op, ok := cmpOps[p.cur().Type]; ok {
			p.next()
			// Support "= ANY (subquery)" as IN.
			if p.isKw("ANY") && op == ast.OpEq {
				p.next()
				if _, err := p.expect(token.LPAREN, "("); err != nil {
					return nil, err
				}
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.RPAREN, ")"); err != nil {
					return nil, err
				}
				l = &ast.InExpr{X: l, Sub: sub}
				continue
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		not := false
		save := p.i
		if p.isKw("NOT") {
			nk := p.peek()
			if nk.Type == token.KEYWORD && (nk.Lit == "LIKE" || nk.Lit == "BETWEEN" || nk.Lit == "IN") {
				p.next()
				not = true
			}
		}
		switch {
		case p.acceptKw("LIKE"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.LikeExpr{Not: not, X: l, Pattern: pat}
		case p.acceptKw("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.BetweenExpr{Not: not, X: l, Lo: lo, Hi: hi}
		case p.acceptKw("IN"):
			in, err := p.parseInTail(not, l)
			if err != nil {
				return nil, err
			}
			l = in
		case p.acceptKw("IS"):
			isNot := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &ast.IsNullExpr{Not: isNot, X: l}
		default:
			p.i = save
			return l, nil
		}
	}
}

func (p *parser) parseInTail(not bool, x ast.Expr) (ast.Expr, error) {
	if _, err := p.expect(token.LPAREN, "("); err != nil {
		return nil, err
	}
	if p.isKw("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN, ")"); err != nil {
			return nil, err
		}
		return &ast.InExpr{Not: not, X: x, Sub: sub}, nil
	}
	var list []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.cur().Type != token.COMMA {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN, ")"); err != nil {
		return nil, err
	}
	return &ast.InExpr{Not: not, X: x, List: list}, nil
}

func (p *parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Type {
		case token.PLUS:
			op = ast.OpAdd
		case token.MINUS:
			op = ast.OpSub
		default:
			return l, nil
		}
		p.next()
		// INTERVAL on the right-hand side of date arithmetic.
		if p.isKw("INTERVAL") {
			iv, err := p.parseInterval()
			if err != nil {
				return nil, err
			}
			l = &ast.BinaryExpr{Op: op, L: l, R: iv}
			continue
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseInterval() (ast.Expr, error) {
	if err := p.expectKw("INTERVAL"); err != nil {
		return nil, err
	}
	var n int64
	switch p.cur().Type {
	case token.STRING, token.NUMBER:
		v, err := strconv.ParseInt(strings.TrimSpace(p.next().Lit), 10, 64)
		if err != nil {
			return nil, token.ErrorAt(p.cur().Pos, "invalid interval quantity")
		}
		n = v
	default:
		return nil, token.ErrorAt(p.cur().Pos, "expected interval quantity")
	}
	t := p.cur()
	if t.Type != token.KEYWORD || (t.Lit != "DAY" && t.Lit != "MONTH" && t.Lit != "YEAR") {
		return nil, token.ErrorAt(t.Pos, "expected DAY, MONTH or YEAR")
	}
	p.next()
	return &ast.Interval{N: n, Unit: t.Lit}, nil
}

func (p *parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Type {
		case token.STAR:
			op = ast.OpMul
		case token.SLASH:
			op = ast.OpDiv
		case token.PERCENT:
			op = ast.OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	switch p.cur().Type {
	case token.MINUS:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ast.Neg(x), nil
	case token.PLUS:
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Type {
	case token.NUMBER:
		p.next()
		if strings.ContainsAny(t.Lit, ".eE") {
			f, err := strconv.ParseFloat(t.Lit, 64)
			if err != nil {
				return nil, token.ErrorAt(t.Pos, "invalid number %q", t.Lit)
			}
			return &ast.Literal{Val: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, token.ErrorAt(t.Pos, "invalid integer %q", t.Lit)
		}
		return &ast.Literal{Val: value.NewInt(n)}, nil
	case token.STRING:
		p.next()
		return &ast.Literal{Val: value.NewString(t.Lit)}, nil
	case token.PARAM:
		p.next()
		idx, err := strconv.Atoi(t.Lit)
		if err != nil || idx < 1 {
			return nil, token.ErrorAt(t.Pos, "invalid placeholder $%s", t.Lit)
		}
		return &ast.Placeholder{Idx: idx}, nil
	case token.LPAREN:
		p.next()
		if p.isKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN, ")"); err != nil {
				return nil, err
			}
			return &ast.SubqueryExpr{Sub: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case token.KEYWORD:
		switch t.Lit {
		case "NULL":
			p.next()
			return &ast.Literal{Val: value.Null}, nil
		case "TRUE":
			p.next()
			return &ast.Literal{Val: value.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &ast.Literal{Val: value.NewBool(false)}, nil
		case "DATE":
			// date 'YYYY-MM-DD'
			if p.peek().Type == token.STRING {
				p.next()
				s := p.next()
				v, err := value.ParseDate(s.Lit)
				if err != nil {
					return nil, token.ErrorAt(s.Pos, "%v", err)
				}
				return &ast.Literal{Val: v}, nil
			}
			// Otherwise DATE is being used as a table/column identifier
			// (the SSB schema has a relation literally named "date").
			p.next()
			return p.identTail(ast.ColumnRef{Name: "date"})
		case "INTERVAL":
			return p.parseInterval()
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if _, err := p.expect(token.LPAREN, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN, ")"); err != nil {
				return nil, err
			}
			return &ast.ExistsExpr{Sub: sub}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall(t.Lit)
		case "YEAR", "MONTH", "DAY":
			// Scalar date-part functions: YEAR(expr) etc.
			if p.peek().Type == token.LPAREN {
				return p.parseFuncCall(t.Lit)
			}
		}
		return nil, token.ErrorAt(t.Pos, "unexpected keyword %q in expression", t.Lit)
	case token.IDENT:
		if p.peek().Type == token.LPAREN {
			name := strings.ToUpper(t.Lit)
			return p.parseFuncCall(name)
		}
		p.next()
		return p.identTail(ast.ColumnRef{Name: t.Lit})
	}
	return nil, token.ErrorAt(t.Pos, "unexpected token %q", t.String())
}

// identTail handles the optional ".column" after an identifier.
func (p *parser) identTail(base ast.ColumnRef) (ast.Expr, error) {
	if p.cur().Type == token.DOT {
		p.next()
		col, err := p.expect(token.IDENT, "column name")
		if err != nil {
			// allow keywords as column names after a qualifier (e.g. d.year)
			if p.cur().Type == token.KEYWORD {
				kw := p.next()
				return &ast.ColumnRef{Table: base.Name, Name: strings.ToLower(kw.Lit)}, nil
			}
			return nil, err
		}
		return &ast.ColumnRef{Table: base.Name, Name: col.Lit}, nil
	}
	c := base
	return &c, nil
}

func (p *parser) parseFuncCall(name string) (ast.Expr, error) {
	p.next() // function name token
	if _, err := p.expect(token.LPAREN, "("); err != nil {
		return nil, err
	}
	f := &ast.FuncCall{Name: name}
	if p.cur().Type == token.STAR {
		p.next()
		f.Star = true
		if _, err := p.expect(token.RPAREN, ")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	if p.cur().Type != token.RPAREN {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if p.cur().Type != token.COMMA {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(token.RPAREN, ")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (ast.Expr, error) {
	p.next() // CASE
	c := &ast.CaseExpr{}
	if !p.isKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.WhenClause{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, token.ErrorAt(p.cur().Pos, "CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
