package sparql

import (
	"fmt"
	"strconv"

	"srdf/internal/dict"
)

// Parse parses one SELECT query.
func Parse(src string) (*Query, error) {
	p := &parser{lx: lexer{src: src, line: 1}, q: &Query{Prefixes: map[string]string{}, Limit: -1, Offset: -1}}
	p.tok = p.lx.token()
	err := p.query()
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	if err != nil {
		return nil, err
	}
	return p.q, nil
}

type parser struct {
	lx  lexer
	tok token // the current token
	q   *Query
}

// advance returns the current token and moves to the next; it stays on
// tEOF.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tEOF {
		p.tok = p.lx.token()
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, got %s", s, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) isPunct(s string) bool { return p.tok.kind == tPunct && p.tok.text == s }

func (p *parser) isKeyword(kw string) bool { return p.tok.kind == tKeyword && p.tok.text == kw }

func (p *parser) query() error {
	for p.isKeyword("PREFIX") {
		p.advance()
		if err := p.prefixDecl(); err != nil {
			return err
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return err
	}
	if p.isKeyword("DISTINCT") {
		p.advance()
		p.q.Distinct = true
	}
	if err := p.selectClause(); err != nil {
		return err
	}
	if p.isKeyword("WHERE") {
		p.advance()
	}
	if err := p.groupGraphPattern(); err != nil {
		return err
	}
	if err := p.solutionModifiers(); err != nil {
		return err
	}
	if p.tok.kind != tEOF {
		return p.errf("trailing input %s", p.tok)
	}
	return p.validate()
}

func (p *parser) prefixDecl() error {
	pn := p.lx.term
	if p.tok.kind != tTerm || !pn.PName || pn.Value != "" {
		return p.errf("expected prefix name, got %s", p.tok)
	}
	p.advance()
	iri := p.lx.term
	if p.tok.kind != tTerm || iri.PName || iri.Kind != dict.KindIRI {
		return p.errf("expected IRI after PREFIX %s:", pn.Prefix)
	}
	p.advance()
	p.q.Prefixes[pn.Prefix] = iri.Value
	return nil
}

func (p *parser) selectClause() error {
	if p.isPunct("*") {
		p.advance()
		p.q.SelectAll = true
		return nil
	}
	for {
		t := p.tok
		switch {
		case t.kind == tVar:
			p.advance()
			p.q.Select = append(p.q.Select, SelectItem{Expr: &ExVar{Name: t.text}, As: t.text})
		case t.kind == tPunct && t.text == "(":
			p.advance()
			e, err := p.expr()
			if err != nil {
				return err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return err
			}
			av := p.tok
			if av.kind != tVar {
				return p.errf("expected variable after AS")
			}
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			p.q.Select = append(p.q.Select, SelectItem{Expr: e, As: av.text})
		default:
			if len(p.q.Select) == 0 {
				return p.errf("empty SELECT clause")
			}
			return nil
		}
	}
}

func (p *parser) groupGraphPattern() error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for {
		t := p.tok
		switch {
		case t.kind == tPunct && t.text == "}":
			p.advance()
			return nil
		case t.kind == tKeyword && t.text == "FILTER":
			p.advance()
			e, err := p.bracketedOrBuiltin()
			if err != nil {
				return err
			}
			p.q.Filters = append(p.q.Filters, e)
			if p.isPunct(".") {
				p.advance()
			}
		case t.kind == tEOF:
			return p.errf("unterminated group pattern")
		default:
			if err := p.triplesSameSubject(); err != nil {
				return err
			}
		}
	}
}

func (p *parser) bracketedOrBuiltin() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// triplesSameSubject parses `subject p o (, o)* (; p o ...)* .`
func (p *parser) triplesSameSubject() error {
	s, err := p.node(true)
	if err != nil {
		return err
	}
	for {
		pr, err := p.predicateNode()
		if err != nil {
			return err
		}
		for {
			o, err := p.node(false)
			if err != nil {
				return err
			}
			p.q.Patterns = append(p.q.Patterns, TriplePattern{S: s, P: pr, O: o})
			if p.isPunct(",") {
				p.advance()
				continue
			}
			break
		}
		if p.isPunct(";") {
			p.advance()
			if p.isPunct(".") || p.isPunct("}") { // trailing semicolon
				break
			}
			continue
		}
		break
	}
	if p.isPunct(".") {
		p.advance()
	}
	return nil
}

func (p *parser) predicateNode() (Node, error) {
	if p.tok.kind == tA {
		p.advance()
		return Constant(dict.IRI(dict.RDFType)), nil
	}
	n, err := p.node(true)
	if err != nil {
		return Node{}, err
	}
	if !n.IsVar() && n.Term.Kind != dict.KindIRI {
		return Node{}, p.errf("predicate must be an IRI or variable")
	}
	return n, nil
}

// node parses a variable, IRI, prefixed name, or (for objects) literal.
func (p *parser) node(subjPos bool) (Node, error) {
	t := p.tok
	switch t.kind {
	case tVar:
		p.advance()
		return Variable(t.text), nil
	case tTerm:
		term, err := p.term()
		if err != nil {
			return Node{}, err
		}
		if subjPos && term.Kind == dict.KindLiteral {
			return Node{}, p.errf("literal in subject/predicate position")
		}
		p.advance()
		return Constant(term), nil
	}
	return Node{}, p.errf("expected term, got %s", t)
}

// term resolves the prefixed name of the current term token. Blank
// nodes are not supported.
func (p *parser) term() (dict.Term, error) {
	lx := &p.lx.term
	if lx.Kind == dict.KindBlank {
		return dict.Term{}, p.errf("blank node %s is not supported", p.tok)
	}
	term, ok := lx.Resolve(p.q.Prefixes)
	if !ok {
		return dict.Term{}, p.errf("undefined prefix %q", lx.Prefix)
	}
	return term, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &ExBin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("&&") {
		p.advance()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &ExBin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]Op{"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.tok
	if t.kind == tPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &ExBin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := OpAdd
		if p.tok.text == "-" {
			op = OpSub
		}
		p.advance()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &ExBin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := OpMul
		if p.tok.text == "/" {
			op = OpDiv
		}
		p.advance()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &ExBin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	switch {
	case p.isPunct("!"):
		p.advance()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ExUn{Op: OpNot, E: e}, nil
	case p.isPunct("-"):
		p.advance()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ExUn{Op: OpNeg, E: e}, nil
	}
	return p.primary()
}

var aggFuncs = map[string]AggFunc{
	"SUM": AggSum, "COUNT": AggCount, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) primary() (Expr, error) {
	t := p.tok
	switch t.kind {
	case tVar:
		p.advance()
		return &ExVar{Name: t.text}, nil
	case tTerm:
		term, err := p.term()
		if err != nil {
			return nil, err
		}
		p.advance()
		return litExpr(term), nil
	case tPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tKeyword:
		if fn, ok := aggFuncs[t.text]; ok {
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			agg := &ExAgg{Func: fn}
			if p.isKeyword("DISTINCT") {
				p.advance()
				agg.Distinct = true
			}
			if p.isPunct("*") {
				if fn != AggCount {
					return nil, p.errf("%s(*) is only valid for COUNT", fn)
				}
				p.advance()
			} else {
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
	}
	return nil, p.errf("expected expression, got %s", t)
}

func litExpr(t dict.Term) *ExLit {
	e := &ExLit{Term: t}
	if t.Kind == dict.KindLiteral {
		e.Val = dict.ParseLiteral(t.Value, t.Datatype, t.Lang)
	} else {
		e.Val = dict.Value{Kind: dict.VString, Str: t.Value}
	}
	return e
}

func (p *parser) solutionModifiers() error {
	for {
		t := p.tok
		if t.kind != tKeyword {
			return nil
		}
		switch t.text {
		case "GROUP":
			p.advance()
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for p.tok.kind == tVar {
				p.q.GroupBy = append(p.q.GroupBy, p.advance().text)
			}
			if len(p.q.GroupBy) == 0 {
				return p.errf("GROUP BY needs at least one variable")
			}
		case "ORDER":
			p.advance()
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			if err := p.orderKeys(); err != nil {
				return err
			}
		case "LIMIT":
			p.advance()
			n, err := p.intTok()
			if err != nil {
				return err
			}
			p.q.Limit = n
		case "OFFSET":
			p.advance()
			n, err := p.intTok()
			if err != nil {
				return err
			}
			p.q.Offset = n
		default:
			return nil
		}
	}
}

func (p *parser) orderKeys() error {
	for {
		switch {
		case p.isKeyword("ASC") || p.isKeyword("DESC"):
			desc := p.advance().text == "DESC"
			e, err := p.bracketedOrBuiltin()
			if err != nil {
				return err
			}
			p.q.OrderBy = append(p.q.OrderBy, OrderKey{Expr: e, Desc: desc})
		case p.tok.kind == tVar:
			p.q.OrderBy = append(p.q.OrderBy, OrderKey{Expr: &ExVar{Name: p.advance().text}})
		default:
			if len(p.q.OrderBy) == 0 {
				return p.errf("ORDER BY needs at least one key")
			}
			return nil
		}
	}
}

func (p *parser) intTok() (int, error) {
	t := p.tok
	if t.kind != tTerm || p.lx.term.Datatype != dict.XSDInt {
		return 0, p.errf("expected number, got %s", t)
	}
	n, err := strconv.Atoi(p.lx.term.Value)
	p.advance()
	if err != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	return n, nil
}

// validate performs post-parse semantic checks.
func (p *parser) validate() error {
	if len(p.q.Patterns) == 0 {
		return &ParseError{Line: 1, Msg: "query has no triple patterns"}
	}
	known := map[string]bool{}
	for _, v := range p.q.PatternVars() {
		known[v] = true
	}
	if p.q.Aggregating() {
		grouped := map[string]bool{}
		for _, g := range p.q.GroupBy {
			if !known[g] {
				return &ParseError{Line: 1, Msg: fmt.Sprintf("GROUP BY ?%s: unknown variable", g)}
			}
			grouped[g] = true
		}
		for _, s := range p.q.Select {
			if HasAgg(s.Expr) {
				continue
			}
			for _, v := range s.Expr.Vars(nil) {
				if !grouped[v] {
					return &ParseError{Line: 1, Msg: fmt.Sprintf("?%s must be aggregated or grouped", v)}
				}
			}
		}
	} else {
		for _, s := range p.q.Select {
			for _, v := range s.Expr.Vars(nil) {
				if !known[v] {
					return &ParseError{Line: 1, Msg: fmt.Sprintf("SELECT ?%s: unknown variable", v)}
				}
			}
		}
	}
	for _, f := range p.q.Filters {
		if HasAgg(f) {
			return &ParseError{Line: 1, Msg: "aggregates are not allowed in FILTER"}
		}
		for _, v := range f.Vars(nil) {
			if !known[v] {
				return &ParseError{Line: 1, Msg: fmt.Sprintf("FILTER ?%s: unknown variable", v)}
			}
		}
	}
	return nil
}
