package sparql

import (
	"strings"
	"testing"
	"time"

	"srdf/internal/dict"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseSimpleStar(t *testing.T) {
	q := mustParse(t, `
SELECT ?a ?n WHERE {
  ?b <http://e/has_author> ?a .
  ?b <http://e/in_year> "1996" .
  ?b <http://e/isbn_no> ?n .
}`)
	if len(q.Patterns) != 3 {
		t.Fatalf("patterns = %d, want 3", len(q.Patterns))
	}
	if len(q.Select) != 2 || q.Select[0].As != "a" || q.Select[1].As != "n" {
		t.Errorf("select = %+v", q.Select)
	}
	if !q.Patterns[1].O.Term.IsLiteral() || q.Patterns[1].O.Term.Value != "1996" {
		t.Errorf("object literal: %+v", q.Patterns[1].O)
	}
	if vars := q.PatternVars(); len(vars) != 3 || vars[0] != "b" {
		t.Errorf("pattern vars = %v", vars)
	}
}

func TestParsePrefixesAndA(t *testing.T) {
	q := mustParse(t, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ?x a ex:Book ; ex:title ?t . }`)
	if q.Patterns[0].P.Term.Value != dict.RDFType {
		t.Errorf("'a' not expanded: %v", q.Patterns[0].P)
	}
	if q.Patterns[0].O.Term.Value != "http://example.org/Book" {
		t.Errorf("prefixed name: %v", q.Patterns[0].O)
	}
	if len(q.Patterns) != 2 || q.Patterns[1].S.Var != "x" {
		t.Errorf("semicolon list: %+v", q.Patterns)
	}
}

func TestParseObjectList(t *testing.T) {
	q := mustParse(t, `PREFIX e: <http://e/>
SELECT ?s WHERE { ?s e:tag "a" , "b" , "c" . }`)
	if len(q.Patterns) != 3 {
		t.Fatalf("patterns = %d, want 3", len(q.Patterns))
	}
	for _, tp := range q.Patterns {
		if tp.S.Var != "s" {
			t.Errorf("subject: %v", tp.S)
		}
	}
}

func TestParseFilterExpressions(t *testing.T) {
	q := mustParse(t, `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE {
  ?s <http://e/qty> ?q .
  ?s <http://e/price> ?p .
  FILTER (?q < 24 && (?p >= 10.5 || ?q != 3))
  FILTER (?p * (1 - ?q) > -100)
}`)
	if len(q.Filters) != 2 {
		t.Fatalf("filters = %d, want 2", len(q.Filters))
	}
	top, ok := q.Filters[0].(*ExBin)
	if !ok || top.Op != OpAnd {
		t.Fatalf("filter0 = %s", ExprString(q.Filters[0]))
	}
	if _, ok := top.R.(*ExBin); !ok {
		t.Errorf("nested or: %s", ExprString(top.R))
	}
	// precedence: ?p * (1-?q) > -100 parses as ((?p*(1-?q)) > -(100))
	cmp, ok := q.Filters[1].(*ExBin)
	if !ok || cmp.Op != OpGt {
		t.Fatalf("filter1 = %s", ExprString(q.Filters[1]))
	}
	if _, ok := cmp.L.(*ExBin); !ok {
		t.Errorf("left of > should be mul: %s", ExprString(cmp.L))
	}
	if un, ok := cmp.R.(*ExUn); !ok || un.Op != OpNeg {
		t.Errorf("right of > should be unary minus: %s", ExprString(cmp.R))
	}
}

func TestParseTypedLiteralsInFilter(t *testing.T) {
	q := mustParse(t, `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE {
  ?s <http://e/d> ?d .
  FILTER (?d >= "1996-01-01"^^xsd:date && ?d < "1997-01-01"^^<http://www.w3.org/2001/XMLSchema#date>)
}`)
	b := q.Filters[0].(*ExBin)
	l := b.L.(*ExBin).R.(*ExLit)
	if l.Val.Kind != dict.VDate {
		t.Errorf("prefixed datatype literal kind = %v, want date", l.Val.Kind)
	}
	r := b.R.(*ExBin).R.(*ExLit)
	if r.Val.Kind != dict.VDate {
		t.Errorf("full-IRI datatype literal kind = %v, want date", r.Val.Kind)
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, `PREFIX e: <http://e/>
SELECT ?flag (SUM(?price * (1 - ?disc)) AS ?rev) (COUNT(*) AS ?n) (AVG(?qty) AS ?aq)
WHERE {
  ?l e:flag ?flag .
  ?l e:price ?price .
  ?l e:disc ?disc .
  ?l e:qty ?qty .
}
GROUP BY ?flag
ORDER BY DESC(?rev) ?flag
LIMIT 10 OFFSET 5`)
	if !q.Aggregating() {
		t.Fatal("query should aggregate")
	}
	if len(q.Select) != 4 {
		t.Fatalf("select = %d items", len(q.Select))
	}
	agg, ok := q.Select[1].Expr.(*ExAgg)
	if !ok || agg.Func != AggSum || agg.Arg == nil {
		t.Errorf("sum agg: %+v", q.Select[1].Expr)
	}
	cnt := q.Select[2].Expr.(*ExAgg)
	if cnt.Func != AggCount || cnt.Arg != nil {
		t.Errorf("count(*): %+v", cnt)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "flag" {
		t.Errorf("group by: %v", q.GroupBy)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order by: %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("limit/offset: %d/%d", q.Limit, q.Offset)
	}
}

func TestParseDistinctAndStar(t *testing.T) {
	q := mustParse(t, `SELECT DISTINCT * WHERE { ?s ?p ?o }`)
	if !q.Distinct || !q.SelectAll {
		t.Errorf("distinct=%v selectAll=%v", q.Distinct, q.SelectAll)
	}
	if q.Patterns[0].P.Var != "p" {
		t.Errorf("variable predicate: %v", q.Patterns[0].P)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		`SELECT WHERE { ?s ?p ?o }`:                                        "empty select",
		`SELECT ?x WHERE { ?s ?p ?o }`:                                     "unknown select var",
		`SELECT ?s WHERE { }`:                                              "no patterns",
		`SELECT ?s WHERE { ?s <p> ?o`:                                      "unterminated",
		`SELECT ?s WHERE { "lit" <p> ?o }`:                                 "literal subject",
		`SELECT ?s WHERE { ?s <p> ?o . FILTER (?x > 1) }`:                  "unknown filter var",
		`SELECT ?s WHERE { ?s <p> ?o } GROUP BY ?z`:                        "unknown group var",
		`SELECT ?o WHERE { ?s <p> ?o } GROUP BY ?s`:                        "ungrouped select var",
		`SELECT (SUM(?o) AS ?x) WHERE { ?s <p> ?o . FILTER(SUM(?o) > 1) }`: "agg in filter",
		`SELECT ?s WHERE { ?s ex:undefined ?o }`:                           "undefined prefix",
		`SELECT (AVG(*) AS ?x) WHERE { ?s <p> ?o }`:                        "avg star",
		`SELECT ?s WHERE { ?s <p> ?o } LIMIT x`:                            "bad limit",
	}
	for src, why := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %s (%s)", src, why)
		}
	}
}

func TestRoundTripThroughString(t *testing.T) {
	srcs := []string{
		`SELECT ?a ?n WHERE { ?b <http://e/author> ?a . ?b <http://e/isbn> ?n . }`,
		`PREFIX e: <http://e/>
SELECT (SUM(?p * ?q) AS ?tot) WHERE { ?l e:p ?p . ?l e:q ?q . FILTER (?q < 24) }`,
		`SELECT DISTINCT ?s WHERE { ?s <http://e/x> "v"@en . } ORDER BY ?s LIMIT 3`,
		`SELECT ?g (COUNT(*) AS ?n) WHERE { ?s <http://e/g> ?g . } GROUP BY ?g ORDER BY DESC(?n)`,
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		q2 := mustParse(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip changed:\n%s\n->\n%s", q1.String(), q2.String())
		}
		if len(q1.Patterns) != len(q2.Patterns) || len(q1.Filters) != len(q2.Filters) {
			t.Errorf("round trip lost parts: %s", src)
		}
	}
}

func TestLexerLessThanVsIRI(t *testing.T) {
	// '<' as comparison operator must not be eaten as an IRI opener.
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://e/v> ?v . FILTER (?v < 10) }`)
	cmp := q.Filters[0].(*ExBin)
	if cmp.Op != OpLt {
		t.Errorf("op = %v", cmp.Op)
	}
	// and an IRI after FILTER-( still lexes as IRI
	q2 := mustParse(t, `SELECT ?s WHERE { ?s <http://e/v> ?v . FILTER (?v = <http://e/x>) }`)
	eq := q2.Filters[0].(*ExBin)
	if lit, ok := eq.R.(*ExLit); !ok || lit.Term.Kind != dict.KindIRI {
		t.Errorf("IRI in filter: %+v", eq.R)
	}
}

func TestCommentsIgnored(t *testing.T) {
	q := mustParse(t, `# leading comment
SELECT ?s # trailing
WHERE { ?s <http://e/p> ?o . # pattern comment
}`)
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func TestRDFHQ6Shape(t *testing.T) {
	// the exact text used by the benchmark harness must parse
	src := `
PREFIX rdfh: <http://example.com/rdfh/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT (SUM(?ep * ?disc) AS ?revenue)
WHERE {
  ?li rdfh:lineitem_shipdate ?sd .
  ?li rdfh:lineitem_extendedprice ?ep .
  ?li rdfh:lineitem_discount ?disc .
  ?li rdfh:lineitem_quantity ?q .
  FILTER (?sd >= "1994-01-01"^^xsd:date && ?sd < "1995-01-01"^^xsd:date)
  FILTER (?disc >= 0.05 && ?disc <= 0.07 && ?q < 24)
}`
	q := mustParse(t, src)
	if len(q.Patterns) != 4 || len(q.Filters) != 2 || !q.Aggregating() {
		t.Errorf("Q6 shape: %d patterns, %d filters", len(q.Patterns), len(q.Filters))
	}
}

func TestStringRendering(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://e/p> ?o . FILTER (?o > 3) } LIMIT 7`)
	s := q.String()
	for _, want := range []string{"SELECT ?s", "FILTER", "LIMIT 7", "<http://e/p>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestParseManyLessThans parses a FILTER of 50 000 comparisons written
// without spaces. Each '<' looks ahead for the '>' of an IRI ref; the
// look-ahead stops at the next '<', so the text lexes in linear time
// rather than rescanning the rest of the query at every '<'.
func TestParseManyLessThans(t *testing.T) {
	src := "SELECT ?a WHERE { ?a <http://e/p> ?b FILTER(?a<?b" + strings.Repeat("&&?a<?b", 50_000) + ") }"
	start := time.Now()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 {
		t.Fatalf("filters = %d, want 1", len(q.Filters))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("parse took %v", d)
	}
}
