package harness

// The oracle is a naive SPARQL evaluator over a plain triple list: nested-
// loop pattern matching, a tree-walking FILTER, plain-Go grouping and
// sorting. It shares no code with the engine — no dictionary OIDs, plan,
// operators or compiled expressions — so a planner, pushdown, scan or
// head bug cannot hide on both sides of a comparison. It may import only
// dict (term values and their order), nt, sparql and the standard
// library; TestOracleImports enforces that.

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/sparql"
)

// Oracle evaluates queries over one triple set.
type Oracle struct {
	all    []nt.Triple
	byPred map[dict.Term][]nt.Triple
	bySP   map[[2]dict.Term][]nt.Triple
}

// NewOracle indexes ts by predicate and by subject+predicate, so the
// nested loops only visit triples that can match a pattern.
func NewOracle(ts []nt.Triple) *Oracle {
	o := &Oracle{all: ts, byPred: map[dict.Term][]nt.Triple{}, bySP: map[[2]dict.Term][]nt.Triple{}}
	for _, t := range ts {
		o.byPred[t.P] = append(o.byPred[t.P], t)
		o.bySP[[2]dict.Term{t.S, t.P}] = append(o.bySP[[2]dict.Term{t.S, t.P}], t)
	}
	return o
}

// Answer is the oracle's result for one query: every solution after
// DISTINCT and ORDER BY, before OFFSET and LIMIT.
type Answer struct {
	Q    *sparql.Query
	Vars []string
	Rows [][]dict.Value
}

type binding map[string]dict.Term

// Eval parses and evaluates one query.
func (o *Oracle) Eval(text string) (*Answer, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	var sols []binding
	o.match(q.Patterns, binding{}, func(b binding) {
		for _, f := range q.Filters {
			if ok, known := truth(eval(f, b.value, nil)); !ok || !known {
				return
			}
		}
		sols = append(sols, b)
	})
	a := &Answer{Q: q}
	items := q.Select
	if q.SelectAll {
		for _, v := range q.PatternVars() {
			items = append(items, sparql.SelectItem{Expr: &sparql.ExVar{Name: v}, As: v})
		}
	}
	for _, it := range items {
		a.Vars = append(a.Vars, it.As)
	}
	// from is the binding each row's variables read: its solution, or
	// its group's first solution
	var from []binding
	if q.Aggregating() {
		a.Rows, from = group(q, items, sols)
	} else {
		for _, b := range sols {
			row := make([]dict.Value, len(items))
			for i, it := range items {
				row[i] = eval(it.Expr, b.value, nil)
			}
			a.Rows = append(a.Rows, row)
		}
		from = sols
	}
	if q.Distinct {
		seen := map[string]bool{}
		rows := a.Rows[:0]
		for r, row := range a.Rows {
			var kb strings.Builder
			for i, it := range items {
				kb.WriteString(cellKey(it.Expr, from[r], row[i]))
			}
			if k := kb.String(); !seen[k] {
				seen[k] = true
				rows = append(rows, row)
			}
		}
		a.Rows = rows
	}
	sort.SliceStable(a.Rows, func(i, j int) bool { return a.Before(a.Rows[i], a.Rows[j]) < 0 })
	return a, nil
}

// match extends b through the remaining patterns, calling emit per
// complete solution.
func (o *Oracle) match(pats []sparql.TriplePattern, b binding, emit func(binding)) {
	if len(pats) == 0 {
		emit(b)
		return
	}
	tp := pats[0]
	cands := o.all
	if p, ok := b.term(tp.P); ok {
		cands = o.byPred[p]
		if s, ok := b.term(tp.S); ok {
			cands = o.bySP[[2]dict.Term{s, p}]
		}
	}
	for _, t := range cands {
		nb := maps.Clone(b)
		if nb.unify(tp.S, t.S) && nb.unify(tp.P, t.P) && nb.unify(tp.O, t.O) {
			o.match(pats[1:], nb, emit)
		}
	}
}

// term returns the term n stands for under b, if it is fixed.
func (b binding) term(n sparql.Node) (dict.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	t, ok := b[n.Var]
	return t, ok
}

// unify binds or checks n against t.
func (b binding) unify(n sparql.Node, t dict.Term) bool {
	if cur, ok := b.term(n); ok {
		return cur == t
	}
	b[n.Var] = t
	return true
}

// value is a variable's typed value (termValue); unbound variables are
// invalid.
func (b binding) value(name string) dict.Value {
	t, ok := b[name]
	if !ok {
		return dict.Value{}
	}
	return termValue(t)
}

// termValue is a term's typed value: a literal's parsed value, an IRI or
// blank node as its string.
func termValue(t dict.Term) dict.Value {
	switch t.Kind {
	case dict.KindLiteral:
		return dict.ParseLiteral(t.Value, t.Datatype, t.Lang)
	case dict.KindBlank:
		return dict.Value{Kind: dict.VString, Str: "_:" + t.Value}
	}
	return dict.Value{Kind: dict.VString, Str: t.Value}
}

// eval evaluates e with variables from vars and aggregates from aggs.
// Errors (unbound variables, type mismatches) yield an invalid value.
func eval(e sparql.Expr, vars func(string) dict.Value, aggs map[*sparql.ExAgg]dict.Value) dict.Value {
	switch x := e.(type) {
	case *sparql.ExVar:
		return vars(x.Name)
	case *sparql.ExLit:
		return x.Val
	case *sparql.ExAgg:
		return aggs[x]
	case *sparql.ExUn:
		v := eval(x.E, vars, aggs)
		switch {
		case x.Op == sparql.OpNot:
			if b, ok := truth(v); ok {
				return boolean(!b)
			}
		case v.Kind == dict.VInt:
			return dict.Value{Kind: dict.VInt, Int: -v.Int}
		case v.Kind == dict.VFloat:
			return dict.Value{Kind: dict.VFloat, Float: -v.Float}
		}
		return dict.Value{}
	}
	x := e.(*sparql.ExBin)
	l, r := eval(x.L, vars, aggs), eval(x.R, vars, aggs)
	switch x.Op {
	case sparql.OpAnd, sparql.OpOr:
		// three-valued: an error is absorbed by false && or true ||
		lb, lok := truth(l)
		rb, rok := truth(r)
		short := x.Op == sparql.OpOr
		if (lok && lb == short) || (rok && rb == short) {
			return boolean(short)
		}
		if lok && rok {
			return boolean(!short)
		}
		return dict.Value{}
	case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
		return arithmetic(x.Op, l, r)
	}
	if l.Kind == dict.VInvalid || r.Kind == dict.VInvalid {
		return dict.Value{}
	}
	c := dict.Compare(l, r)
	return boolean(map[sparql.Op]bool{
		sparql.OpEq: c == 0, sparql.OpNe: c != 0, sparql.OpLt: c < 0,
		sparql.OpLe: c <= 0, sparql.OpGt: c > 0, sparql.OpGe: c >= 0,
	}[x.Op])
}

// arithmetic: integers stay integers except under division; anything
// non-numeric, and division by zero, is an error.
func arithmetic(op sparql.Op, l, r dict.Value) dict.Value {
	if !l.Numeric() || !r.Numeric() {
		return dict.Value{}
	}
	if l.Kind == dict.VInt && r.Kind == dict.VInt && op != sparql.OpDiv {
		n := map[sparql.Op]int64{sparql.OpAdd: l.Int + r.Int, sparql.OpSub: l.Int - r.Int, sparql.OpMul: l.Int * r.Int}[op]
		return dict.Value{Kind: dict.VInt, Int: n}
	}
	a, b := l.AsFloat(), r.AsFloat()
	if op == sparql.OpDiv && b == 0 {
		return dict.Value{}
	}
	f := map[sparql.Op]float64{sparql.OpAdd: a + b, sparql.OpSub: a - b, sparql.OpMul: a * b, sparql.OpDiv: a / b}[op]
	return dict.Value{Kind: dict.VFloat, Float: f}
}

// truth is the effective boolean value; ok is false for an error.
func truth(v dict.Value) (b, ok bool) {
	switch v.Kind {
	case dict.VBool, dict.VInt:
		return v.Int != 0, true
	case dict.VFloat:
		return v.Float != 0, true
	case dict.VString:
		return v.Str != "", true
	case dict.VDate, dict.VDateTime:
		return true, true
	}
	return false, false
}

func boolean(b bool) dict.Value {
	if b {
		return dict.Value{Kind: dict.VBool, Int: 1}
	}
	return dict.Value{Kind: dict.VBool}
}

// acc folds one aggregate over a group. COUNT counts the bound values;
// SUM and AVG add the numeric ones (SUM stays an integer while every
// counted value is one); MIN and MAX follow dict.Compare.
type acc struct {
	n        int64
	sumInt   int64
	sum      float64
	floaty   bool
	min, max dict.Value
	seen     map[string]bool
}

// add folds v; a DISTINCT aggregate passes v's cellKey, which skips a
// value already seen, and any other passes "".
func (a *acc) add(v dict.Value, key string) {
	if v.Kind == dict.VInvalid {
		return
	}
	if key != "" {
		if a.seen[key] {
			return
		}
		a.seen[key] = true
	}
	if v.Numeric() {
		a.sum += v.AsFloat()
	}
	if v.Kind == dict.VInt {
		a.sumInt += v.Int
	} else {
		a.floaty = true
	}
	if a.n == 0 || dict.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.n == 0 || dict.Compare(v, a.max) > 0 {
		a.max = v
	}
	a.n++
}

func (a *acc) result(f sparql.AggFunc) dict.Value {
	switch {
	case f == sparql.AggCount:
		return dict.Value{Kind: dict.VInt, Int: a.n}
	case f == sparql.AggSum && !a.floaty:
		return dict.Value{Kind: dict.VInt, Int: a.sumInt}
	case f == sparql.AggSum:
		return dict.Value{Kind: dict.VFloat, Float: a.sum}
	case a.n == 0:
		return dict.Value{}
	case f == sparql.AggAvg:
		return dict.Value{Kind: dict.VFloat, Float: a.sum / float64(a.n)}
	case f == sparql.AggMin:
		return a.min
	}
	return a.max
}

// group evaluates an aggregating query: one row per GROUP BY key (one
// row overall without GROUP BY, even over no solutions), and each
// row's group's first solution.
func group(q *sparql.Query, items []sparql.SelectItem, sols []binding) ([][]dict.Value, []binding) {
	var leaves []*sparql.ExAgg
	for _, it := range items {
		sparql.WalkExpr(it.Expr, func(e sparql.Expr) bool {
			if x, ok := e.(*sparql.ExAgg); ok {
				leaves = append(leaves, x)
			}
			return true
		})
	}
	type grp struct {
		first binding
		accs  []acc
	}
	groups := map[string]*grp{}
	var order []string
	add := func(k string, first binding) *grp {
		g := &grp{first: first, accs: make([]acc, len(leaves))}
		for i := range g.accs {
			g.accs[i].seen = map[string]bool{}
		}
		groups[k] = g
		order = append(order, k)
		return g
	}
	if len(q.GroupBy) == 0 {
		add("", binding{})
	}
	for _, b := range sols {
		var kb strings.Builder
		for _, v := range q.GroupBy {
			fmt.Fprintf(&kb, "%v\x00", b[v])
		}
		g, ok := groups[kb.String()]
		if !ok {
			g = add(kb.String(), b)
		}
		for i, x := range leaves {
			if x.Arg == nil { // COUNT(*)
				g.accs[i].n++
				continue
			}
			v, key := eval(x.Arg, b.value, nil), ""
			if x.Distinct {
				key = cellKey(x.Arg, b, v)
			}
			g.accs[i].add(v, key)
		}
	}
	rows, firsts := make([][]dict.Value, 0, len(order)), make([]binding, 0, len(order))
	for _, k := range order {
		g := groups[k]
		aggs := map[*sparql.ExAgg]dict.Value{}
		for i, x := range leaves {
			aggs[x] = g.accs[i].result(x.Func)
		}
		row := make([]dict.Value, len(items))
		for i, it := range items {
			row[i] = eval(it.Expr, g.first.value, aggs)
		}
		rows, firsts = append(rows, row), append(firsts, g.first)
	}
	return rows, firsts
}

// cellKey is the DISTINCT identity of the cell v that e evaluated to
// under b: a bound variable's RDF term, so "chat"@en, "chat"@fr and
// <chat> stay apart, or else the value's kind and lexical form.
func cellKey(e sparql.Expr, b binding, v dict.Value) string {
	if x, ok := e.(*sparql.ExVar); ok {
		if t, ok := b[x.Name]; ok {
			return fmt.Sprintf("t%d:%q:%q:%q|", t.Kind, t.Value, t.Datatype, t.Lang)
		}
	}
	return fmt.Sprintf("v%d:%q|", v.Kind, v.Lexical())
}

// Before compares two result rows under the query's ORDER BY keys
// (evaluated over the result columns): <0 when x sorts first, 0 for a
// tie.
func (a *Answer) Before(x, y []dict.Value) int {
	col := func(row []dict.Value) func(string) dict.Value {
		return func(name string) dict.Value {
			for i, v := range a.Vars {
				if v == name {
					return row[i]
				}
			}
			return dict.Value{}
		}
	}
	for _, k := range a.Q.OrderBy {
		c := dict.Compare(eval(k.Expr, col(x), nil), eval(k.Expr, col(y), nil))
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}
