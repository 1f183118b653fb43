package exec

import (
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
