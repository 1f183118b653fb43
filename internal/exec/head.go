package exec

import (
	"fmt"
	"sort"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// Result is a fully decoded query result.
type Result struct {
	Vars []string
	Rows [][]dict.Value
}

// Len returns the row count.
func (r *Result) Len() int { return len(r.Rows) }

// String renders the result as a text table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t"))
	b.WriteString("\n")
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.Lexical())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Head applies the query's solution modifiers to a fully materialized
// BGP relation: residual FILTERs, aggregation or projection, DISTINCT,
// ORDER BY, OFFSET and LIMIT.
//
// This is the PR-1 materializing head, kept as the reference
// implementation: the streaming head (Stream / the Aggregate, Distinct
// and Sort value operators) must stay row-identical to it, which the
// parity tests and the head benchmarks assert.
func Head(ctx *Ctx, rel *Rel, q *sparql.Query) (*Result, error) {
	for _, f := range q.Filters {
		rel = Filter(ctx, rel, f)
	}
	return MaterializedHead(ctx, rel, q)
}

// MaterializedHead is Head for an already-filtered relation (exported so
// benchmarks can contrast it with the streaming head over the same
// operator tree).
func MaterializedHead(ctx *Ctx, rel *Rel, q *sparql.Query) (*Result, error) {
	var res *Result
	if q.Aggregating() {
		res = aggregate(ctx, rel, q)
	} else {
		res = project(ctx, rel, q)
	}
	if q.Distinct {
		res = distinct(res)
	}
	if len(q.OrderBy) > 0 {
		if err := orderBy(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	off := 0
	if q.Offset > 0 {
		off = q.Offset
	}
	if off > len(res.Rows) {
		off = len(res.Rows)
	}
	res.Rows = res.Rows[off:]
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

func project(ctx *Ctx, rel *Rel, q *sparql.Query) *Result {
	items := q.Select
	if q.SelectAll {
		items = nil
		for _, v := range rel.Vars {
			items = append(items, sparql.SelectItem{Expr: &sparql.ExVar{Name: v}, As: v})
		}
	}
	res := &Result{}
	for _, it := range items {
		res.Vars = append(res.Vars, it.As)
	}
	env := newEvalEnv(ctx, rel)
	for i := 0; i < rel.Len(); i++ {
		env.row = i
		row := make([]dict.Value, len(items))
		for c, it := range items {
			row[c] = env.evalValue(it.Expr)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// aggState accumulates one aggregate expression over a group for the
// materializing reference head (the streaming AggregateOp keeps typed
// per-function states instead).
type aggState struct {
	count   int
	sum     float64
	sumInt  int64
	allInt  bool
	started bool
	min     dict.Value
	max     dict.Value
	seen    map[string]bool // DISTINCT values already folded
}

func newAggState() *aggState { return &aggState{allInt: true} }

func (a *aggState) add(v dict.Value, distinct bool) {
	if v.Kind == dict.VInvalid {
		return
	}
	if distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		k := fmt.Sprintf("%d|%s", v.Kind, v.Lexical())
		if a.seen[k] {
			return
		}
		a.seen[k] = true
	}
	a.count++
	if v.Numeric() {
		a.sum += v.AsFloat()
		if v.Kind == dict.VInt {
			a.sumInt += v.Int
		} else {
			a.allInt = false
		}
	} else {
		a.allInt = false
	}
	if !a.started {
		a.min, a.max, a.started = v, v, true
	} else {
		if dict.Compare(v, a.min) < 0 {
			a.min = v
		}
		if dict.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
}

func (a *aggState) result(fn sparql.AggFunc) dict.Value {
	switch fn {
	case sparql.AggCount:
		return dict.Value{Kind: dict.VInt, Int: int64(a.count)}
	case sparql.AggSum:
		if a.allInt {
			return dict.Value{Kind: dict.VInt, Int: a.sumInt}
		}
		return dict.Value{Kind: dict.VFloat, Float: a.sum}
	case sparql.AggAvg:
		if a.count == 0 {
			return dict.Value{}
		}
		return dict.Value{Kind: dict.VFloat, Float: a.sum / float64(a.count)}
	case sparql.AggMin:
		if !a.started {
			return dict.Value{}
		}
		return a.min
	default:
		if !a.started {
			return dict.Value{}
		}
		return a.max
	}
}

// collectAggs gathers the aggregate leaves of a select expression.
func collectAggs(e sparql.Expr, dst []*sparql.ExAgg) []*sparql.ExAgg {
	switch x := e.(type) {
	case *sparql.ExAgg:
		return append(dst, x)
	case *sparql.ExBin:
		return collectAggs(x.R, collectAggs(x.L, dst))
	case *sparql.ExUn:
		return collectAggs(x.E, dst)
	default:
		return dst
	}
}

func aggregate(ctx *Ctx, rel *Rel, q *sparql.Query) *Result {
	res := &Result{}
	for _, it := range q.Select {
		res.Vars = append(res.Vars, it.As)
	}
	groupIdx := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groupIdx[i] = rel.ColIdx(g)
	}
	// Collect the distinct aggregate leaves across all select items.
	var leaves []*sparql.ExAgg
	for _, it := range q.Select {
		leaves = collectAggs(it.Expr, leaves)
	}
	type group struct {
		keyRow int // a representative row for grouped vars
		states []*aggState
	}
	groups := map[string]*group{}
	var order []string
	env := newEvalEnv(ctx, rel)
	var kb []byte
	for i := 0; i < rel.Len(); i++ {
		kb = kb[:0]
		for _, gi := range groupIdx {
			kb = appendOIDKey(kb, rel.Cols[gi][i])
		}
		k := string(kb)
		g, ok := groups[k]
		if !ok {
			g = &group{keyRow: i, states: make([]*aggState, len(leaves))}
			for j := range g.states {
				g.states[j] = newAggState()
			}
			groups[k] = g
			order = append(order, k)
		}
		env.row = i
		for j, leaf := range leaves {
			if leaf.Arg == nil { // COUNT(*)
				g.states[j].count++
				continue
			}
			g.states[j].add(env.evalValue(leaf.Arg), leaf.Distinct)
		}
	}
	// Edge case: aggregate query with no GROUP BY over an empty input
	// still yields one row (SUM=0 via empty state).
	if len(order) == 0 && len(q.GroupBy) == 0 {
		g := &group{keyRow: -1, states: make([]*aggState, len(leaves))}
		for j := range g.states {
			g.states[j] = newAggState()
		}
		groups[""] = g
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		// Resolve each select item with aggregate leaves substituted.
		leafVals := make(map[*sparql.ExAgg]dict.Value, len(leaves))
		for j, leaf := range leaves {
			leafVals[leaf] = g.states[j].result(leaf.Func)
		}
		row := make([]dict.Value, len(q.Select))
		for c, it := range q.Select {
			row[c] = evalWithAggs(ctx, rel, g.keyRow, it.Expr, leafVals)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// evalWithAggs evaluates an expression where aggregate sub-expressions
// are replaced by their computed group values; plain variables resolve
// against the group's representative row (valid because they are
// validated to be grouped).
func evalWithAggs(ctx *Ctx, rel *Rel, row int, e sparql.Expr, aggVals map[*sparql.ExAgg]dict.Value) dict.Value {
	switch x := e.(type) {
	case *sparql.ExAgg:
		return aggVals[x]
	case *sparql.ExVar:
		if row < 0 {
			return dict.Value{}
		}
		return EvalRow(ctx, rel, row, x)
	case *sparql.ExLit:
		return x.Val
	case *sparql.ExUn:
		inner := evalWithAggs(ctx, rel, row, x.E, aggVals)
		return applyUnary(x.Op, inner)
	case *sparql.ExBin:
		l := evalWithAggs(ctx, rel, row, x.L, aggVals)
		r := evalWithAggs(ctx, rel, row, x.R, aggVals)
		return applyBinary(x.Op, l, r)
	default:
		return dict.Value{}
	}
}

func applyUnary(op sparql.Op, v dict.Value) dict.Value {
	switch op {
	case sparql.OpNeg:
		switch v.Kind {
		case dict.VInt:
			return dict.Value{Kind: dict.VInt, Int: -v.Int}
		case dict.VFloat:
			return dict.Value{Kind: dict.VFloat, Float: -v.Float}
		}
	case sparql.OpNot:
		if b, ok := truth(v); ok {
			return boolVal(!b)
		}
	}
	return dict.Value{}
}

func applyBinary(op sparql.Op, l, r dict.Value) dict.Value {
	switch op {
	case sparql.OpAnd, sparql.OpOr:
		return logic(op, l, r)
	case sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe:
		if l.Kind == dict.VInvalid || r.Kind == dict.VInvalid {
			return dict.Value{}
		}
		c := dict.Compare(l, r)
		switch op {
		case sparql.OpEq:
			return boolVal(c == 0)
		case sparql.OpNe:
			return boolVal(c != 0)
		case sparql.OpLt:
			return boolVal(c < 0)
		case sparql.OpLe:
			return boolVal(c <= 0)
		case sparql.OpGt:
			return boolVal(c > 0)
		default:
			return boolVal(c >= 0)
		}
	default:
		return arith(op, l, r)
	}
}

func distinct(res *Result) *Result {
	seen := map[string]bool{}
	out := &Result{Vars: res.Vars}
	var kb []byte
	for _, row := range res.Rows {
		kb = appendDistinctKey(kb[:0], row)
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		out.Rows = append(out.Rows, row)
	}
	return out
}

// orderBy sorts result rows. Order keys may reference output aliases
// (the common case after aggregation) — they are evaluated against the
// result row itself.
func orderBy(res *Result, keys []sparql.OrderKey) error {
	colOf := map[string]int{}
	for i, v := range res.Vars {
		colOf[v] = i
	}
	eval := func(row []dict.Value, e sparql.Expr) (dict.Value, error) {
		switch x := e.(type) {
		case *sparql.ExVar:
			ci, ok := colOf[x.Name]
			if !ok {
				return dict.Value{}, fmt.Errorf("exec: ORDER BY ?%s is not a result column", x.Name)
			}
			return row[ci], nil
		case *sparql.ExLit:
			return x.Val, nil
		case *sparql.ExUn:
			v, err := evalOrderSub(row, colOf, x.E)
			if err != nil {
				return dict.Value{}, err
			}
			return applyUnary(x.Op, v), nil
		case *sparql.ExBin:
			l, err := evalOrderSub(row, colOf, x.L)
			if err != nil {
				return dict.Value{}, err
			}
			r, err := evalOrderSub(row, colOf, x.R)
			if err != nil {
				return dict.Value{}, err
			}
			return applyBinary(x.Op, l, r), nil
		default:
			return dict.Value{}, fmt.Errorf("exec: unsupported ORDER BY expression")
		}
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for _, k := range keys {
			vi, err := eval(res.Rows[i], k.Expr)
			if err != nil {
				sortErr = err
				return false
			}
			vj, _ := eval(res.Rows[j], k.Expr)
			c := dict.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

func evalOrderSub(row []dict.Value, colOf map[string]int, e sparql.Expr) (dict.Value, error) {
	switch x := e.(type) {
	case *sparql.ExVar:
		ci, ok := colOf[x.Name]
		if !ok {
			return dict.Value{}, fmt.Errorf("exec: ORDER BY ?%s is not a result column", x.Name)
		}
		return row[ci], nil
	case *sparql.ExLit:
		return x.Val, nil
	case *sparql.ExUn:
		v, err := evalOrderSub(row, colOf, x.E)
		if err != nil {
			return dict.Value{}, err
		}
		return applyUnary(x.Op, v), nil
	case *sparql.ExBin:
		l, err := evalOrderSub(row, colOf, x.L)
		if err != nil {
			return dict.Value{}, err
		}
		r, err := evalOrderSub(row, colOf, x.R)
		if err != nil {
			return dict.Value{}, err
		}
		return applyBinary(x.Op, l, r), nil
	default:
		return dict.Value{}, fmt.Errorf("exec: unsupported ORDER BY expression")
	}
}
