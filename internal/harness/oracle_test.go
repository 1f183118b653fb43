package harness

import (
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
)

// oracleSrc is the oracle's hand-checked fixture: a numeric predicate
// with an IRI object and a decimal, a date, a subject missing a
// property the others have, and four distinct tags, three of which read
// as the integer 7 and one of which reads as the IRI x:a.
const oracleSrc = `@prefix x: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
x:a x:name "ann" ; x:age 30 ; x:score 7 ; x:born "1990-05-01"^^xsd:date ; x:knows x:b ; x:tag "7" .
x:b x:name "bob" ; x:age 25 ; x:score "2.5"^^xsd:decimal ; x:knows x:c ; x:tag 7 .
x:c x:name "cat" ; x:score x:a ; x:born "1985-01-01"^^xsd:date ; x:tag "07"^^xsd:integer .
x:d x:age 30 ; x:score 7 ; x:tag "http://x/a" .
`

// oracleAnswer evaluates one query over the fixture.
func oracleAnswer(t *testing.T, q string) *Answer {
	t.Helper()
	ts, err := nt.ParseTurtle(strings.NewReader(oracleSrc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewOracle(ts).Eval("PREFIX x: <http://x/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> " + q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cells renders rows as kind:lexical cells, "|"-separated.
func cells(rows [][]dict.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Kind.String() + ":" + v.Lexical()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestOracleAnswers pins one hand-computed answer per query shape.
func TestOracleAnswers(t *testing.T) {
	const (
		a = "string:http://x/a"
		b = "string:http://x/b"
		c = "string:http://x/c"
		d = "string:http://x/d"
	)
	for _, tc := range []struct {
		name    string
		q       string
		ordered bool
		want    []string
	}{
		{"join", `SELECT ?s ?n WHERE { ?s x:knows ?t . ?t x:name ?n }`, false,
			[]string{a + "|string:bob", b + "|string:cat"}},
		{"missing property", `SELECT ?s WHERE { ?s x:age ?g . ?s x:name ?n }`, false,
			[]string{a, b}},
		// an IRI compares as a string, and strings sort after numbers
		{"mixed-kind filter", `SELECT ?s WHERE { ?s x:score ?v . FILTER (?v > 5) }`, false,
			[]string{a, c, d}},
		// the IRI's ?v * 2 is an error: && with a true side stays an
		// error, || with a true side is true
		{"three-valued and", `SELECT ?s WHERE { ?s x:score ?v . FILTER (?v * 2 > 10 && ?v > 0) }`, false,
			[]string{a, d}},
		{"three-valued or", `SELECT ?s WHERE { ?s x:score ?v . FILTER (?v * 2 > 10 || ?v > 0) }`, false,
			[]string{a, b, c, d}},
		{"date filter", `SELECT ?s WHERE { ?s x:born ?d . FILTER (?d < "1988-01-01"^^xsd:date) }`, false,
			[]string{c}},
		{"group by", `SELECT ?g (COUNT(*) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?lo)
  (MAX(?v) AS ?hi) (COUNT(DISTINCT ?v) AS ?nd) WHERE { ?s x:age ?g . ?s x:score ?v } GROUP BY ?g`, false,
			[]string{
				"int:30|int:2|int:14|float:7|int:7|int:7|int:1",
				"int:25|int:1|float:2.5|float:2.5|float:2.5|float:2.5|int:1",
			}},
		// the IRI counts (COUNT, AVG's divisor) but adds nothing, and
		// turns SUM into a float; it is the largest value
		{"aggregates over mixed kinds", `SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg)
  (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s x:score ?v }`, false,
			[]string{"int:4|float:16.5|float:4.125|float:2.5|" + a}},
		{"empty aggregate", `SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) WHERE { ?s x:nope ?v }`, false,
			[]string{"int:0|int:0|invalid:"}},
		{"distinct", `SELECT DISTINCT ?g WHERE { ?s x:age ?g }`, false,
			[]string{"int:25", "int:30"}},
		// DISTINCT tells a variable's terms apart, even where they read
		// alike, and a computed value by its value
		{"distinct terms", `SELECT DISTINCT ?t WHERE { ?s x:tag ?t }`, false,
			[]string{"int:7", "int:7", "int:7", "string:http://x/a"}},
		{"distinct values", `SELECT DISTINCT ((?t + 0) AS ?u) WHERE { ?s x:tag ?t }`, false,
			[]string{"int:7", "invalid:"}},
		{"count distinct", `SELECT (COUNT(DISTINCT ?t) AS ?n) (COUNT(DISTINCT (?t + 0)) AS ?m) WHERE { ?s x:tag ?t }`, false,
			[]string{"int:4|int:1"}},
		{"order by", `SELECT ?s ?v WHERE { ?s x:score ?v } ORDER BY ?v DESC(?s)`, true,
			[]string{b + "|float:2.5", d + "|int:7", a + "|int:7", c + "|" + a}},
	} {
		got := cells(oracleAnswer(t, tc.q).Rows)
		if !tc.ordered {
			sort.Strings(got)
			sort.Strings(tc.want)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestCheckAnswer covers the comparisons the engine's rows get: windows
// under LIMIT/OFFSET, ORDER BY positions, and float tolerance.
func TestCheckAnswer(t *testing.T) {
	iri := func(s string) dict.Value { return dict.Value{Kind: dict.VString, Str: "http://x/" + s} }
	num := func(v int64) dict.Value { return dict.Value{Kind: dict.VInt, Int: v} }
	flt := func(f float64) dict.Value { return dict.Value{Kind: dict.VFloat, Float: f} }
	res := func(vars []string, rows ...[]dict.Value) *exec.Result { return &exec.Result{Vars: vars, Rows: rows} }
	sv := []string{"s", "v"}

	limited := oracleAnswer(t, `SELECT ?s ?v WHERE { ?s x:score ?v } LIMIT 2 OFFSET 1`)
	for _, tc := range []struct {
		name string
		res  *exec.Result
		ok   bool
	}{
		{"any window", res(sv, []dict.Value{iri("d"), num(7)}, []dict.Value{iri("c"), iri("a")}), true},
		{"columns by name", res([]string{"v", "s"}, []dict.Value{num(7), iri("d")}, []dict.Value{num(7), iri("a")}), true},
		{"short", res(sv, []dict.Value{iri("d"), num(7)}), false},
		{"foreign row", res(sv, []dict.Value{iri("d"), num(7)}, []dict.Value{iri("d"), num(8)}), false},
		{"row twice", res(sv, []dict.Value{iri("d"), num(7)}, []dict.Value{iri("d"), num(7)}), false},
	} {
		if err := checkAnswer(limited, tc.res); (err == nil) != tc.ok {
			t.Errorf("LIMIT/OFFSET %s: err = %v", tc.name, err)
		}
	}

	// under ORDER BY, row i must sort where the oracle's row OFFSET+i does
	// (a tie may come back in either order)
	ordered := oracleAnswer(t, `SELECT ?s ?v WHERE { ?s x:score ?v } ORDER BY ?v LIMIT 2 OFFSET 1`)
	if err := checkAnswer(ordered, res(sv, []dict.Value{iri("d"), num(7)}, []dict.Value{iri("a"), num(7)})); err != nil {
		t.Errorf("tied top-k rejected: %v", err)
	}
	if err := checkAnswer(ordered, res(sv, []dict.Value{iri("b"), flt(2.5)}, []dict.Value{iri("a"), num(7)})); err == nil {
		t.Error("top-k window from the wrong offset accepted")
	}
	full := oracleAnswer(t, `SELECT ?s ?v WHERE { ?s x:score ?v } ORDER BY ?v`)
	rows := [][]dict.Value{{iri("b"), flt(2.5)}, {iri("a"), num(7)}, {iri("d"), num(7)}, {iri("c"), iri("a")}}
	if err := checkAnswer(full, res(sv, rows...)); err != nil {
		t.Errorf("ordered answer rejected: %v", err)
	}
	rows[0], rows[3] = rows[3], rows[0]
	if err := checkAnswer(full, res(sv, rows...)); err == nil {
		t.Error("rows out of ORDER BY order accepted")
	}

	// floats compare within 1e-9 relative; kinds and other cells exactly
	sum := oracleAnswer(t, `SELECT (SUM(?v) AS ?sum) WHERE { ?s x:score ?v }`)
	for _, tc := range []struct {
		v  dict.Value
		ok bool
	}{
		{flt(16.5), true}, {flt(16.5 + 1e-12), true}, {flt(16.5 + 1e-6), false},
		{dict.Value{Kind: dict.VString, Str: strconv.FormatFloat(16.5, 'g', -1, 64)}, false},
	} {
		if err := checkAnswer(sum, res([]string{"sum"}, []dict.Value{tc.v})); (err == nil) != tc.ok {
			t.Errorf("SUM = %+v: err = %v", tc.v, err)
		}
	}
}

// TestOracleImports keeps the oracle independent of the engine: it may
// import only dict, nt, sparql and the standard library.
func TestOracleImports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "oracle.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"srdf/internal/dict": true, "srdf/internal/nt": true, "srdf/internal/sparql": true}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && path != "srdf" && !strings.HasPrefix(path, "srdf/")
		if !std && !allowed[path] {
			t.Errorf("oracle.go imports %s", path)
		}
	}
}
