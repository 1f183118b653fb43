package exec

import (
	"math"
	"math/rand"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// exprEnv is a one-dictionary world for expression tests: named cells
// of every kind, bound per query the way a store binds them.
type exprEnv struct {
	d     *dict.Dictionary
	ctx   *Ctx
	cells map[string]dict.OID
}

func newExprEnv() *exprEnv {
	d := dict.New()
	e := &exprEnv{d: d, cells: map[string]dict.OID{
		"i":    d.Intern(dict.IntLit(7)),
		"j":    d.Intern(dict.IntLit(2)),
		"z":    d.Intern(dict.IntLit(0)),
		"big":  d.Intern(dict.IntLit(1<<53 + 1)),
		"f":    d.Intern(dict.FloatLit(2.5)),
		"f2":   d.Intern(dict.TypedLit("2.0", dict.XSDDouble)),
		"fz":   d.Intern(dict.TypedLit("0.0", dict.XSDDouble)),
		"d":    d.Intern(dict.DateLit("1998-09-02")),
		"dt":   d.Intern(dict.TypedLit("1998-09-02T10:00:00", dict.XSDDateTm)),
		"t":    d.Intern(dict.TypedLit("true", dict.XSDBool)),
		"s":    d.Intern(dict.StringLit("abc")),
		"e":    d.Intern(dict.StringLit("")),
		"lang": d.Intern(dict.LangLit("abc", "en")),
		"iri":  d.Intern(dict.IRI("http://x/a")),
		"bn":   d.Intern(dict.Blank("b1")),
		"nil":  dict.Nil,
	}}
	e.ctx = (&Ctx{Dict: d}).WithQueryContext(nil)
	return e
}

// rel is a one-row relation holding every named cell.
func (e *exprEnv) rel() *Rel {
	var vars []string
	for v := range e.cells {
		vars = append(vars, v)
	}
	r := NewRel(vars...)
	for i, v := range vars {
		r.Cols[i] = append(r.Cols[i], e.cells[v])
	}
	return r
}

// compiled evaluates x over every row of rel with a compiled program.
func compiled(ctx *Ctx, rel *Rel, x sparql.Expr) []dict.Value {
	var p program
	p.reserve(exprSize(x))
	root := p.compile(x, rel.Vars, nil)
	p.run(ctx, rel.Cols, nil, rel.Len(), nil)
	out := make([]dict.Value, rel.Len())
	for k := range out {
		out[k] = p.result(root).value(k)
	}
	return out
}

func vr(n string) sparql.Expr { return &sparql.ExVar{Name: n} }

func lit(t dict.Term) sparql.Expr {
	return &sparql.ExLit{Term: t, Val: dict.ParseLiteral(t.Value, t.Datatype, t.Lang)}
}

func iriLit(s string) sparql.Expr {
	return &sparql.ExLit{Term: dict.IRI(s), Val: dict.Value{Kind: dict.VString, Str: s}}
}

func bin(op sparql.Op, l, r sparql.Expr) sparql.Expr { return &sparql.ExBin{Op: op, L: l, R: r} }

func un(op sparql.Op, x sparql.Expr) sparql.Expr { return &sparql.ExUn{Op: op, E: x} }

var (
	vTrue  = dict.Value{Kind: dict.VBool, Int: 1}
	vFalse = dict.Value{Kind: dict.VBool}
	vErr   = dict.Value{}
)

func vInt(n int64) dict.Value     { return dict.Value{Kind: dict.VInt, Int: n} }
func vFloat(f float64) dict.Value { return dict.Value{Kind: dict.VFloat, Float: f} }

// sameValue compares everything but the OID, with NaN equal to itself.
func sameValue(a, b dict.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

// TestCompiledExprEdgeCases pins the compiled evaluator on the corners of
// SPARQL's expression semantics, and checks each case against the
// reference interpreter too.
func TestCompiledExprEdgeCases(t *testing.T) {
	e := newExprEnv()
	rel := e.rel()
	one, two := lit(dict.IntLit(1)), lit(dict.IntLit(2))
	yes, no := lit(dict.TypedLit("true", dict.XSDBool)), lit(dict.TypedLit("false", dict.XSDBool))
	errExpr := bin(sparql.OpGt, vr("nil"), one) // an unbound cell: error
	cases := []struct {
		name string
		x    sparql.Expr
		want dict.Value
	}{
		{"unknown variable", vr("nope"), vErr},
		{"unbound cell", vr("nil"), vErr},
		{"unbound compares to error", errExpr, vErr},
		{"iri decodes to its text", vr("iri"), dict.Value{Kind: dict.VString, Str: "http://x/a"}},
		{"blank node decodes with _:", vr("bn"), dict.Value{Kind: dict.VString, Str: "_:b1"}},
		{"iri equals iri constant", bin(sparql.OpEq, vr("iri"), iriLit("http://x/a")), vTrue},
		{"lang string equals plain", bin(sparql.OpEq, vr("lang"), vr("s")), vTrue},
		{"int + int stays int", bin(sparql.OpAdd, vr("i"), vr("j")), vInt(9)},
		{"int * int stays int", bin(sparql.OpMul, vr("i"), vr("j")), vInt(14)},
		{"int - int wraps like int64", bin(sparql.OpSub, vr("big"), vr("big")), vInt(0)},
		{"int / int is float", bin(sparql.OpDiv, vr("i"), vr("j")), vFloat(3.5)},
		{"int + float is float", bin(sparql.OpAdd, vr("i"), vr("f")), vFloat(9.5)},
		{"int / 0 is an error", bin(sparql.OpDiv, vr("i"), vr("z")), vErr},
		{"float / 0.0 is an error", bin(sparql.OpDiv, vr("f"), vr("fz")), vErr},
		{"string arithmetic is an error", bin(sparql.OpAdd, vr("s"), one), vErr},
		{"date arithmetic is an error", bin(sparql.OpAdd, vr("d"), one), vErr},
		{"bool arithmetic is an error", bin(sparql.OpAdd, vr("t"), one), vErr},
		{"unary minus int", un(sparql.OpNeg, vr("i")), vInt(-7)},
		{"unary minus float", un(sparql.OpNeg, vr("f")), vFloat(-2.5)},
		{"unary minus string", un(sparql.OpNeg, vr("s")), vErr},
		{"not zero", un(sparql.OpNot, vr("z")), vTrue},
		{"not non-empty string", un(sparql.OpNot, vr("s")), vFalse},
		{"not empty string", un(sparql.OpNot, vr("e")), vTrue},
		{"not date", un(sparql.OpNot, vr("d")), vFalse},
		{"not error", un(sparql.OpNot, vr("nil")), vErr},
		{"false && error", bin(sparql.OpAnd, no, errExpr), vFalse},
		{"error && false", bin(sparql.OpAnd, errExpr, no), vFalse},
		{"true && error", bin(sparql.OpAnd, yes, errExpr), vErr},
		{"true || error", bin(sparql.OpOr, errExpr, yes), vTrue},
		{"false || error", bin(sparql.OpOr, no, errExpr), vErr},
		{"error || error", bin(sparql.OpOr, errExpr, errExpr), vErr},
		{"int = equal float is false (kinds differ)", bin(sparql.OpEq, vr("j"), vr("f2")), vFalse},
		{"int < equal float (int orders first)", bin(sparql.OpLt, vr("j"), vr("f2")), vTrue},
		{"int < float by value", bin(sparql.OpLt, vr("i"), vr("f")), vFalse},
		{"number < bool? no: bool orders first", bin(sparql.OpLt, vr("i"), vr("t")), vFalse},
		{"number < date", bin(sparql.OpLt, vr("i"), vr("d")), vTrue},
		{"date < datetime", bin(sparql.OpLt, vr("d"), vr("dt")), vTrue},
		{"datetime < string", bin(sparql.OpLt, vr("dt"), vr("s")), vTrue},
		{"string > int", bin(sparql.OpGt, vr("s"), two), vTrue},
		{"string vs iri by text", bin(sparql.OpLt, vr("s"), vr("iri")), vTrue},
		{"date equals date literal", bin(sparql.OpEq, vr("d"), lit(dict.DateLit("1998-09-02"))), vTrue},
		{"big ints compare as floats", bin(sparql.OpEq, vr("big"), lit(dict.IntLit(1<<53))), vTrue},
		{"nested arithmetic", bin(sparql.OpMul, vr("f"), bin(sparql.OpSub, one, vr("f"))), vFloat(-3.75)},
	}
	env := newEvalEnv(e.ctx, rel)
	for _, c := range cases {
		got := compiled(e.ctx, rel, c.x)[0]
		if !sameValue(got, c.want) {
			t.Errorf("%s: %s = %+v, want %+v", c.name, sparql.ExprString(c.x), got, c.want)
		}
		if ref := env.evalValue(c.x); !sameValue(got, ref) {
			t.Errorf("%s: compiled %+v, reference interpreter %+v", c.name, got, ref)
		}
	}
}

// TestCompiledAggregates pins the typed folds: SUM over integers stays
// an integer and turns float on the first non-integer, AVG over integers
// is a float, COUNT skips errors, MIN/MAX order across kinds and keep
// the winning cell's term; every cell is checked against a hand-computed
// value.
func TestCompiledAggregates(t *testing.T) {
	d := dict.New()
	g1, g2 := d.Intern(dict.IRI("http://x/g1")), d.Intern(dict.IRI("http://x/g2"))
	cells := []struct {
		g dict.OID
		v dict.Term
	}{
		{g1, dict.IntLit(3)}, {g1, dict.IntLit(4)}, {g1, dict.IntLit(-1)},
		{g2, dict.IntLit(3)}, {g2, dict.FloatLit(0.5)}, {g2, dict.StringLit("x")},
		{g2, dict.DateLit("2001-01-01")}, {g1, dict.IntLit(4)},
	}
	rel := NewRel("g", "v")
	for _, c := range cells {
		rel.AppendRow(c.g, d.Intern(c.v))
	}
	rel.AppendRow(g2, dict.Nil) // an unbound cell counts nowhere
	ctx := (&Ctx{Dict: d}).WithQueryContext(nil)
	q, err := sparql.Parse(`SELECT ?g (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (COUNT(?v) AS ?n)
  (COUNT(*) AS ?rows) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(DISTINCT ?v) AS ?nd)
  (SUM(?v * 2) AS ?twice) (SUM(?v) / COUNT(?v) AS ?mean)
WHERE { ?g <http://x/p> ?v } GROUP BY ?g`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := HeadStream(ctx, NewRelSource(rel), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("%d groups, want 2", got.Len())
	}
	g1row, g2row := got.Rows[0], got.Rows[1]
	for _, c := range []struct {
		name      string
		got, want dict.Value
	}{
		{"g1 SUM of ints", g1row[1], vInt(10)},
		{"g1 AVG of ints", g1row[2], vFloat(2.5)},
		{"g1 COUNT", g1row[3], vInt(4)},
		{"g1 COUNT(*)", g1row[4], vInt(4)},
		{"g1 MIN", g1row[5], vInt(-1)},
		{"g1 MAX", g1row[6], vInt(4)},
		{"g1 COUNT DISTINCT", g1row[7], vInt(3)},
		{"g1 SUM(?v*2)", g1row[8], vInt(20)},
		{"g1 SUM/COUNT", g1row[9], vFloat(2.5)},
		{"g2 SUM turns float", g2row[1], vFloat(3.5)},
		// the string and the date count but add nothing
		{"g2 AVG", g2row[2], vFloat(0.875)},
		{"g2 COUNT skips the unbound cell", g2row[3], vInt(4)},
		{"g2 COUNT(*)", g2row[4], vInt(5)},
		{"g2 MIN is the smallest number", g2row[5], vFloat(0.5)},
		{"g2 COUNT DISTINCT", g2row[7], vInt(4)},
		{"g2 SUM(?v*2) skips the errors", g2row[8], vFloat(7)},
		{"g2 SUM/COUNT", g2row[9], vFloat(0.875)},
	} {
		if !sameValue(c.got, c.want) {
			t.Errorf("%s: %+v, want %+v", c.name, c.got, c.want)
		}
	}
	// MAX crosses kinds: the string orders last, and comes back with its
	// term.
	if hi := g2row[6]; hi.Kind != dict.VString || hi.Str != "x" || hi.OID == dict.Nil {
		t.Errorf("g2 MAX = %+v, want the string cell with its OID", hi)
	}
}

// fuzzTerms are the literal and resource cells fuzzed rows draw from.
var fuzzTerms = []dict.Term{
	dict.IntLit(0), dict.IntLit(1), dict.IntLit(-3), dict.IntLit(7), dict.IntLit(1 << 62),
	dict.FloatLit(0), dict.FloatLit(0.5), dict.FloatLit(-2.25), dict.FloatLit(1e300),
	dict.TypedLit("7.0", dict.XSDDouble), dict.TypedLit("INF", dict.XSDDouble),
	dict.TypedLit("-0.0", dict.XSDDouble),
	dict.DateLit("1998-09-02"), dict.DateLit("1970-01-01"),
	dict.TypedLit("2001-02-03T04:05:06", dict.XSDDateTm),
	dict.TypedLit("true", dict.XSDBool), dict.TypedLit("false", dict.XSDBool),
	dict.StringLit(""), dict.StringLit("abc"), dict.StringLit("7"), dict.LangLit("abc", "en"),
	dict.IRI("http://x/a"), dict.IRI("http://x/b"), dict.Blank("n1"),
}

var fuzzOps = []sparql.Op{
	sparql.OpAnd, sparql.OpOr, sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe,
	sparql.OpGt, sparql.OpGe, sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv,
}

// randExpr builds a random expression over vars (plus one unknown name).
func randExpr(rng *rand.Rand, vars []string, depth int) sparql.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			t := fuzzTerms[rng.Intn(len(fuzzTerms))]
			if t.Kind != dict.KindLiteral {
				return iriLit(t.Value)
			}
			return lit(t)
		case 1:
			if rng.Intn(8) == 0 {
				return vr("unknown")
			}
			fallthrough
		default:
			return vr(vars[rng.Intn(len(vars))])
		}
	}
	if rng.Intn(5) == 0 {
		op := sparql.OpNeg
		if rng.Intn(2) == 0 {
			op = sparql.OpNot
		}
		return un(op, randExpr(rng, vars, depth-1))
	}
	return bin(fuzzOps[rng.Intn(len(fuzzOps))], randExpr(rng, vars, depth-1), randExpr(rng, vars, depth-1))
}

// FuzzCompiledExpr checks that compiled programs equal the reference
// interpreter (evalEnv.evalValue) on random expression trees over random
// typed rows, read through a random selection vector — with the literal
// table bound, and with literals minted after the bind.
func FuzzCompiledExpr(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40))
	f.Add(int64(7), uint8(5), uint8(200))
	f.Add(int64(42), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, depth, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		oids := make([]dict.OID, 0, len(fuzzTerms)+1)
		for _, term := range fuzzTerms[:len(fuzzTerms)/2] {
			oids = append(oids, d.Intern(term))
		}
		ctx := (&Ctx{Dict: d}).WithQueryContext(nil)
		for _, term := range fuzzTerms[len(fuzzTerms)/2:] {
			oids = append(oids, d.Intern(term)) // past the bound table
		}
		oids = append(oids, dict.Nil)
		vars := []string{"a", "b", "c", "d"}
		rel := NewRel(vars...)
		n := 1 + int(rows)%BatchRows
		for r := 0; r < n; r++ {
			for c := range vars {
				rel.Cols[c] = append(rel.Cols[c], oids[rng.Intn(len(oids))])
			}
		}
		var sel []int32
		if rng.Intn(2) == 0 {
			for r := 0; r < n; r++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(r))
				}
			}
		}
		var p program
		exprs := make([]sparql.Expr, 4)
		roots := make([]int, len(exprs))
		for i := range exprs {
			exprs[i] = randExpr(rng, vars, 1+int(depth)%5)
			p.reserve(exprSize(exprs[i]))
			roots[i] = p.compile(exprs[i], vars, nil)
		}
		logical := n
		if sel != nil {
			logical = len(sel)
		}
		p.run(ctx, rel.Cols, sel, logical, nil)
		env := newEvalEnv(ctx, rel)
		for i, x := range exprs {
			res := p.result(roots[i])
			for k := 0; k < logical; k++ {
				env.row = k
				if sel != nil {
					env.row = int(sel[k])
				}
				want := env.evalValue(x)
				if got := res.value(k); !sameValue(got, want) {
					t.Fatalf("%s on row %d: compiled %+v, interpreter %+v", sparql.ExprString(x), env.row, got, want)
				}
				gb, gok := res.truth(k)
				wb, wok := truth(want)
				if gb != wb || gok != wok {
					t.Fatalf("%s on row %d: compiled truth %v/%v, interpreter %v/%v", sparql.ExprString(x), env.row, gb, gok, wb, wok)
				}
			}
		}
	})
}
