package exec

import (
	"fmt"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// evalEnv resolves variables for one row.
type evalEnv struct {
	ctx  *Ctx
	rel  *Rel
	row  int
	cols map[string]int // var -> column
}

func newEvalEnv(ctx *Ctx, rel *Rel) *evalEnv {
	m := make(map[string]int, len(rel.Vars))
	for i, v := range rel.Vars {
		m[v] = i
	}
	return &evalEnv{ctx: ctx, rel: rel, cols: m}
}

// evalValue evaluates an expression to a typed value. Unbound variables
// and type errors yield VInvalid (SPARQL's error semantics: the filter
// rejects the row).
func (env *evalEnv) evalValue(e sparql.Expr) dict.Value {
	switch x := e.(type) {
	case *sparql.ExVar:
		ci, ok := env.cols[x.Name]
		if !ok {
			return dict.Value{}
		}
		return env.ctx.valueOf(env.rel.Cols[ci][env.row])
	case *sparql.ExLit:
		return x.Val
	case *sparql.ExUn:
		v := env.evalValue(x.E)
		switch x.Op {
		case sparql.OpNeg:
			switch v.Kind {
			case dict.VInt:
				return dict.Value{Kind: dict.VInt, Int: -v.Int}
			case dict.VFloat:
				return dict.Value{Kind: dict.VFloat, Float: -v.Float}
			}
			return dict.Value{}
		case sparql.OpNot:
			b, ok := truth(v)
			if !ok {
				return dict.Value{}
			}
			return boolVal(!b)
		}
		return dict.Value{}
	case *sparql.ExBin:
		return env.evalBin(x)
	case *sparql.ExAgg:
		// Aggregates are computed by the Aggregate operator; reaching
		// here is a planner bug surfaced as an eval error value.
		return dict.Value{}
	default:
		return dict.Value{}
	}
}

func (env *evalEnv) evalBin(x *sparql.ExBin) dict.Value {
	switch x.Op {
	case sparql.OpAnd, sparql.OpOr:
		return logic(x.Op, env.evalValue(x.L), env.evalValue(x.R))
	}
	l := env.evalValue(x.L)
	r := env.evalValue(x.R)
	if l.Kind == dict.VInvalid || r.Kind == dict.VInvalid {
		return dict.Value{}
	}
	switch x.Op {
	case sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe:
		c := dict.Compare(l, r)
		switch x.Op {
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
	case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
		return arith(x.Op, l, r)
	}
	return dict.Value{}
}

// logic is SPARQL's three-valued && / ||: an error operand is absorbed
// by a false (&&) or true (||) other side, else the result is an error.
func logic(op sparql.Op, l, r dict.Value) dict.Value {
	lb, lok := truth(l)
	rb, rok := truth(r)
	if !lok || !rok {
		if op == sparql.OpAnd && ((lok && !lb) || (rok && !rb)) {
			return boolVal(false)
		}
		if op == sparql.OpOr && ((lok && lb) || (rok && rb)) {
			return boolVal(true)
		}
		return dict.Value{}
	}
	if op == sparql.OpAnd {
		return boolVal(lb && rb)
	}
	return boolVal(lb || rb)
}

func arith(op sparql.Op, l, r dict.Value) dict.Value {
	if !l.Numeric() || !r.Numeric() {
		return dict.Value{}
	}
	if l.Kind == dict.VInt && r.Kind == dict.VInt && op != sparql.OpDiv {
		var n int64
		switch op {
		case sparql.OpAdd:
			n = l.Int + r.Int
		case sparql.OpSub:
			n = l.Int - r.Int
		default:
			n = l.Int * r.Int
		}
		return dict.Value{Kind: dict.VInt, Int: n}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	var f float64
	switch op {
	case sparql.OpAdd:
		f = lf + rf
	case sparql.OpSub:
		f = lf - rf
	case sparql.OpMul:
		f = float64(lf * rf) // explicit rounding: never fused into an FMA
	default:
		if rf == 0 {
			return dict.Value{}
		}
		f = lf / rf
	}
	return dict.Value{Kind: dict.VFloat, Float: f}
}

func boolVal(b bool) dict.Value {
	if b {
		return dict.Value{Kind: dict.VBool, Int: 1}
	}
	return dict.Value{Kind: dict.VBool, Int: 0}
}

// truth computes the effective boolean value.
func truth(v dict.Value) (bool, bool) {
	switch v.Kind {
	case dict.VBool:
		return v.Int != 0, true
	case dict.VInt:
		return v.Int != 0, true
	case dict.VFloat:
		return v.Float != 0, true
	case dict.VString:
		return v.Str != "", true
	case dict.VDate, dict.VDateTime:
		return true, true
	default:
		return false, false
	}
}

func (r *Rel) String() string {
	return fmt.Sprintf("Rel(%v, %d rows)", r.Vars, r.Len())
}
