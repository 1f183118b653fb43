package exec

import (
	"math"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// Compiled expression evaluation for the streaming operators.
//
// FilterOp, ProjectOp and AggregateOp compile their expressions once,
// when the operator is built, against the input's variable list: a
// variable becomes a column index (one decode per batch however often it
// occurs), a literal is decoded once, and the tree flattens into a
// postorder instruction list. A program then runs one instruction at a
// time over a whole batch, each writing an unboxed vector — numbers,
// dates and booleans never become dict.Values, and literal cells decode
// from the query's literal table without taking the dictionary lock.
//
// The semantics are exactly those of the reference interpreter
// (evalEnv.evalValue): arith's int/float rules (int∘int stays int except
// for division, division by zero is an error), dict.Compare's cross-kind
// order, truth's effective boolean value, and SPARQL's three-valued
// &&/||. FuzzCompiledExpr holds the two to it.

// num is one unboxed expression value. The text of a VString value lives
// beside it, in its vec.
type num struct {
	k dict.ValueKind
	i int64   // VBool (0/1), VInt, VDate (epoch days), VDateTime (unix sec)
	f float64 // VFloat
}

// vec is one instruction's output over a batch: a value per logical row.
type vec struct {
	v []num
	s []string // text of the VString rows; nil until one occurs
	// lane is the kind every row has when all rows are VInt or all are
	// VFloat — a typed lane, which arithmetic and the SUM/AVG/COUNT folds
	// run through without a per-row kind switch — and VInvalid otherwise.
	lane dict.ValueKind
}

// laneOf is the lane of a vector whose rows' kinds are the set bits of
// kinds (bit k for kind k).
func laneOf(kinds uint) dict.ValueKind {
	switch kinds {
	case 1 << dict.VInt:
		return dict.VInt
	case 1 << dict.VFloat:
		return dict.VFloat
	}
	return dict.VInvalid
}

// setStr records the text of row k (whose kind is VString).
func (x *vec) setStr(k int, s string) {
	if len(x.s) < len(x.v) {
		x.s = append(x.s, make([]string, len(x.v)-len(x.s))...)
	}
	x.s[k] = s
}

// text returns row k's string, "" for every other kind.
func (x *vec) text(k int) string {
	if x.v[k].k != dict.VString {
		return ""
	}
	return x.s[k]
}

// value boxes row k as a dict.Value (no OID: computed values have none).
func (x *vec) value(k int) dict.Value {
	v := x.v[k]
	return dict.Value{Kind: v.k, Int: v.i, Float: v.f, Str: x.text(k)}
}

type opcode uint8

const (
	opErr   opcode = iota // the error value: unbound variables, misplaced aggregates
	opVar                 // decode an input column
	opLit                 // a constant
	opAgg                 // an aggregate's per-group result (finishing programs)
	opNeg                 // unary minus
	opNot                 // !
	opLogic               // && and ||
	opCmp                 // = != < <= > >=
	opArith               // + - * /
)

// instr is one program step; its operands are earlier instructions.
type instr struct {
	op   opcode
	bop  sparql.Op
	arg  int // opVar: input column; opAgg: aggregate leaf
	l, r int
	lit  num    // opLit
	litS string // opLit text when lit is a VString
	out  vec
}

// program is a compiled expression set over one operator's input.
// Identical subexpressions compile to one instruction, so a column or a
// shared term such as (1 - ?disc) is computed once per batch however
// many expressions use it.
type program struct {
	code []instr
}

// reserve makes room for n more instructions (see exprSize), so
// compiling appends without regrowing the code.
func (p *program) reserve(n int) {
	if cap(p.code)-len(p.code) < n {
		p.code = append(make([]instr, 0, len(p.code)+n), p.code...)
	}
}

// exprSize is the number of nodes of e, an upper bound on the
// instructions it compiles to.
func exprSize(e sparql.Expr) int {
	switch x := e.(type) {
	case *sparql.ExBin:
		return 1 + exprSize(x.L) + exprSize(x.R)
	case *sparql.ExUn:
		return 1 + exprSize(x.E)
	case *sparql.ExAgg:
		return 1 + exprSize(x.Arg)
	case nil:
		return 0
	}
	return 1
}

// compile appends e's instructions and returns the index of its result.
// vars is the input schema; aggs lists the aggregate leaves a finishing
// program resolves (nil everywhere else, where an aggregate is an error).
func (p *program) compile(e sparql.Expr, vars []string, aggs []*sparql.ExAgg) int {
	switch x := e.(type) {
	case *sparql.ExVar:
		if col := varIndex(vars, x.Name); col >= 0 {
			return p.emit(instr{op: opVar, arg: col})
		}
	case *sparql.ExLit:
		v := x.Val
		return p.emit(instr{op: opLit, lit: num{v.Kind, v.Int, v.Float}, litS: v.Str})
	case *sparql.ExAgg:
		for j, a := range aggs {
			if a == x {
				return p.emit(instr{op: opAgg, arg: j})
			}
		}
	case *sparql.ExUn:
		l := p.compile(x.E, vars, aggs)
		switch x.Op {
		case sparql.OpNeg:
			return p.emit(instr{op: opNeg, l: l})
		case sparql.OpNot:
			return p.emit(instr{op: opNot, l: l})
		}
	case *sparql.ExBin:
		l := p.compile(x.L, vars, aggs)
		r := p.compile(x.R, vars, aggs)
		switch x.Op {
		case sparql.OpAnd, sparql.OpOr:
			return p.emit(instr{op: opLogic, bop: x.Op, l: l, r: r})
		case sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe:
			return p.emit(instr{op: opCmp, bop: x.Op, l: l, r: r})
		case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
			return p.emit(instr{op: opArith, bop: x.Op, l: l, r: r})
		}
	}
	return p.emit(instr{op: opErr})
}

// emit appends in, or returns the identical instruction already there.
func (p *program) emit(in instr) int {
	for i := range p.code {
		c := &p.code[i]
		if c.op == in.op && c.bop == in.bop && c.arg == in.arg && c.l == in.l && c.r == in.r &&
			c.lit.k == in.lit.k && c.lit.i == in.lit.i && c.litS == in.litS &&
			math.Float64bits(c.lit.f) == math.Float64bits(in.lit.f) { // -0 is not 0 here
			return i
		}
	}
	p.code = append(p.code, in)
	return len(p.code) - 1
}

func varIndex(vars []string, name string) int {
	for i, v := range vars {
		if v == name {
			return i
		}
	}
	return -1
}

// run evaluates every instruction over the n logical rows of the batch
// (cols, sel): logical row k is cols[c][k], or cols[c][sel[k]] under a
// selection. aggVals feeds opAgg (finishing programs only).
func (p *program) run(ctx *Ctx, cols [][]dict.OID, sel []int32, n int, aggVals [][]dict.Value) {
	for i := range p.code {
		if v := p.code[i].out.v; cap(v) < n {
			if n <= BatchRows {
				p.code[i].out.v = numBlocks.get()
			} else {
				p.code[i].out.v = make([]num, n)
			}
		}
	}
	for i := range p.code {
		in := &p.code[i]
		in.out.v = in.out.v[:n]
		out := &in.out
		out.lane = dict.VInvalid
		switch in.op {
		case opErr:
			clear(out.v)
		case opVar:
			ctx.decodeCol(out, cols[in.arg], sel)
		case opLit:
			for k := range out.v {
				out.v[k] = in.lit
			}
			if in.lit.k == dict.VString {
				for k := range out.v {
					out.setStr(k, in.litS)
				}
			}
			out.lane = laneOf(1 << in.lit.k)
		case opAgg:
			for k, v := range aggVals[in.arg][:n] {
				out.v[k] = num{v.Kind, v.Int, v.Float}
				if v.Kind == dict.VString {
					out.setStr(k, v.Str)
				}
			}
		case opNeg:
			negKernel(out.v, p.code[in.l].out.v)
			out.lane = p.code[in.l].out.lane
		case opNot:
			l := &p.code[in.l].out
			for k := range out.v {
				b, ok := l.truth(k)
				if ok {
					out.v[k] = boolNum(!b)
				} else {
					out.v[k] = num{}
				}
			}
		case opLogic:
			logicKernel(in.bop, out.v, &p.code[in.l].out, &p.code[in.r].out)
		case opCmp:
			cmpKernel(in.bop, out.v, &p.code[in.l].out, &p.code[in.r].out)
		case opArith:
			arithKernel(in.bop, out, &p.code[in.l].out, &p.code[in.r].out)
		}
	}
}

// release returns the output vectors to their free list; the program
// may run again afterwards (it takes new ones).
func (p *program) release() {
	for i := range p.code {
		numBlocks.put(p.code[i].out.v)
		p.code[i].out = vec{}
	}
}

// result is the output vector of instruction i after run.
func (p *program) result(i int) *vec { return &p.code[i].out }

// decodeCol decodes the selected rows of one OID column into x and sets
// its lane. Literal cells index the query's literal table; resources,
// Nil and literals minted after the table was bound take valueOf's
// general path.
func (c *Ctx) decodeCol(x *vec, col []dict.OID, sel []int32) {
	lits := c.lits
	kinds := uint(0)
	for k := range x.v {
		phys := k
		if sel != nil {
			phys = int(sel[k])
		}
		o := col[phys]
		if o.IsLiteral() {
			if p := o.Payload() - 1; p < uint64(len(lits)) {
				lv := &lits[p]
				x.v[k] = num{lv.Kind, lv.Int, lv.Float}
				kinds |= 1 << lv.Kind
				if lv.Kind == dict.VString {
					x.setStr(k, lv.Str)
				}
				continue
			}
		}
		v := c.valueOf(o)
		x.v[k] = num{v.Kind, v.Int, v.Float}
		kinds |= 1 << v.Kind
		if v.Kind == dict.VString {
			x.setStr(k, v.Str)
		}
	}
	x.lane = laneOf(kinds)
}

func boolNum(b bool) num {
	if b {
		return num{k: dict.VBool, i: 1}
	}
	return num{k: dict.VBool}
}

// truth is the effective boolean value of row k (see truth).
func (x *vec) truth(k int) (bool, bool) {
	v := x.v[k]
	switch v.k {
	case dict.VBool, dict.VInt:
		return v.i != 0, true
	case dict.VFloat:
		return v.f != 0, true
	case dict.VString:
		return x.s[k] != "", true
	case dict.VDate, dict.VDateTime:
		return true, true
	default:
		return false, false
	}
}

func negKernel(out, l []num) {
	for k, a := range l {
		switch a.k {
		case dict.VInt:
			out[k] = num{k: dict.VInt, i: -a.i}
		case dict.VFloat:
			out[k] = num{k: dict.VFloat, f: -a.f}
		default:
			out[k] = num{}
		}
	}
}

// logicKernel is SPARQL's three-valued && / ||: an error operand is
// absorbed by a false (&&) or true (||) other side, else the result is
// an error.
func logicKernel(op sparql.Op, out []num, l, r *vec) {
	and := op == sparql.OpAnd
	for k := range out {
		lb, lok := l.truth(k)
		rb, rok := r.truth(k)
		switch {
		case lok && rok:
			if and {
				out[k] = boolNum(lb && rb)
			} else {
				out[k] = boolNum(lb || rb)
			}
		case and && ((lok && !lb) || (rok && !rb)):
			out[k] = boolNum(false)
		case !and && ((lok && lb) || (rok && rb)):
			out[k] = boolNum(true)
		default:
			out[k] = num{}
		}
	}
}

func cmpKernel(op sparql.Op, out []num, l, r *vec) {
	for k := range out {
		a, b := l.v[k], r.v[k]
		if a.k == dict.VInvalid || b.k == dict.VInvalid {
			out[k] = num{}
			continue
		}
		c := compareNum(a, l.text(k), b, r.text(k))
		var t bool
		switch op {
		case sparql.OpEq:
			t = c == 0
		case sparql.OpNe:
			t = c != 0
		case sparql.OpLt:
			t = c < 0
		case sparql.OpLe:
			t = c <= 0
		case sparql.OpGt:
			t = c > 0
		default:
			t = c >= 0
		}
		out[k] = boolNum(t)
	}
}

// compareNum is dict.Compare over unboxed values: kinds order by kind
// with int and float collapsed into one numeric kind, numbers compare as
// floats (ties broken int before float), strings by text.
func compareNum(a num, as string, b num, bs string) int {
	ka, kb := a.k, b.k
	if ka == dict.VInt {
		ka = dict.VFloat
	}
	if kb == dict.VInt {
		kb = dict.VFloat
	}
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case dict.VFloat:
		fa, fb := a.asFloat(), b.asFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return cmpInt(int64(a.k), int64(b.k))
	case dict.VBool, dict.VDate, dict.VDateTime:
		return cmpInt(a.i, b.i)
	default:
		return strings.Compare(as, bs)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (a num) asFloat() float64 {
	if a.k == dict.VInt {
		return float64(a.i)
	}
	return a.f
}

// arithKernel is arith over unboxed operands. Two typed lanes take
// arithLanes; any other pair, and every division (its zero divisor is a
// per-row error), the general per-row loop.
func arithKernel(op sparql.Op, out, l, r *vec) {
	if op != sparql.OpDiv && l.lane != dict.VInvalid && r.lane != dict.VInvalid {
		arithLanes(op, out, l, r)
		return
	}
	for k := range out.v {
		a, b := l.v[k], r.v[k]
		if (a.k != dict.VInt && a.k != dict.VFloat) || (b.k != dict.VInt && b.k != dict.VFloat) {
			out.v[k] = num{}
			continue
		}
		if a.k == dict.VInt && b.k == dict.VInt && op != sparql.OpDiv {
			var n int64
			switch op {
			case sparql.OpAdd:
				n = a.i + b.i
			case sparql.OpSub:
				n = a.i - b.i
			default:
				n = a.i * b.i
			}
			out.v[k] = num{k: dict.VInt, i: n}
			continue
		}
		fa, fb := a.asFloat(), b.asFloat()
		var f float64
		switch op {
		case sparql.OpAdd:
			f = fa + fb
		case sparql.OpSub:
			f = fa - fb
		case sparql.OpMul:
			f = float64(fa * fb) // explicit rounding: never fused into an FMA
		default:
			if fb == 0 {
				out.v[k] = num{}
				continue
			}
			f = fa / fb
		}
		out.v[k] = num{k: dict.VFloat, f: f}
	}
}

// arithLanes is +, - or * over two typed lanes, one loop per operator
// with no per-row kind test. int∘int stays int; otherwise an int lane
// reads as float, as asFloat does, and the result is a float lane.
func arithLanes(op sparql.Op, out, l, r *vec) {
	o := out.v
	a, b := l.v[:len(o)], r.v[:len(o)]
	if l.lane == dict.VInt && r.lane == dict.VInt {
		out.lane = dict.VInt
		switch op {
		case sparql.OpAdd:
			for k := range o {
				o[k] = num{k: dict.VInt, i: a[k].i + b[k].i}
			}
		case sparql.OpSub:
			for k := range o {
				o[k] = num{k: dict.VInt, i: a[k].i - b[k].i}
			}
		default:
			for k := range o {
				o[k] = num{k: dict.VInt, i: a[k].i * b[k].i}
			}
		}
		return
	}
	out.lane = dict.VFloat
	lInt, rInt := l.lane == dict.VInt, r.lane == dict.VInt
	switch op {
	case sparql.OpAdd:
		for k := range o {
			o[k] = num{k: dict.VFloat, f: laneFloat(a[k], lInt) + laneFloat(b[k], rInt)}
		}
	case sparql.OpSub:
		for k := range o {
			o[k] = num{k: dict.VFloat, f: laneFloat(a[k], lInt) - laneFloat(b[k], rInt)}
		}
	default:
		for k := range o {
			// explicit rounding: never fused into an FMA
			o[k] = num{k: dict.VFloat, f: float64(laneFloat(a[k], lInt) * laneFloat(b[k], rInt))}
		}
	}
}

// laneFloat reads a typed-lane value as a float: an int lane converts,
// as asFloat does.
func laneFloat(v num, isInt bool) float64 {
	if isInt {
		return float64(v.i)
	}
	return v.f
}
