package srdf_test

import (
	"context"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"

	"srdf"
	"srdf/internal/rdfh"
)

// The point-lookup shapes of a SPARQL endpoint's hot path, over RDF-H:
// one order by its subject IRI (three constant-subject patterns) and the
// lineitem star of one order (a CS-table scan with a bound FK).
const lookupPrologue = "PREFIX rdfh: <" + rdfh.NS + ">\n"

func orderLookup(key int) string {
	o := "<" + rdfh.OrderIRI(key) + ">"
	return lookupPrologue + "SELECT ?st ?tp ?od WHERE { " + o + " rdfh:order_status ?st . " +
		o + " rdfh:order_totalprice ?tp . " + o + " rdfh:order_orderdate ?od }"
}

func lineitemLookup(key int) string {
	return lookupPrologue + "SELECT ?li ?q ?ep WHERE { ?li rdfh:lineitem_order <" + rdfh.OrderIRI(key) +
		"> . ?li rdfh:lineitem_quantity ?q . ?li rdfh:lineitem_extendedprice ?ep }"
}

var lookupOpts = srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}

var (
	lookupOnce   sync.Once
	lookupSt     *srdf.Store
	lookupOrders int
)

// lookupStore is an organized RDF-H store shared by the lookup tests.
func lookupStore(t *testing.T) (*srdf.Store, int) {
	t.Helper()
	lookupOnce.Do(func() {
		d := rdfh.Generate(0.002, 1)
		st := srdf.New(srdf.Defaults())
		d.Emit(func(tr srdf.Triple) { st.Add(tr) })
		if _, err := st.Organize(); err != nil {
			panic(err)
		}
		lookupSt, lookupOrders = st, len(d.Orders)
	})
	return lookupSt, lookupOrders
}

// TestPointLookupAllocBound checks that executor memory follows the rows
// a query produces: a point lookup whose text the plan cache has never
// seen — parse, plan and execute included — allocates at most 64 KB,
// where vectors sized to a full batch per operator cost about four times
// that.
func TestPointLookupAllocBound(t *testing.T) {
	st, orders := lookupStore(t)
	run := func(i int) {
		k := 1 + (i*7919)%orders
		q := orderLookup(k)
		if i%2 == 1 {
			q = lineitemLookup(k)
		}
		res, err := st.QueryWith(q, lookupOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("lookup %d: no rows", k)
		}
	}
	run(0)
	run(1)
	const n = 200
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i < n+2; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B/query over %d fresh lookups", perQuery, n)
	if raceDetector() {
		t.Skip("the race detector's sync.Pool drops a random quarter of the blocks returned to it")
	}
	if perQuery > 64<<10 {
		t.Fatalf("point lookup allocates %d B/query, want <= 64 KiB", perQuery)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

var (
	estRowsRE = regexp.MustCompile(`est_rows=(\d+)`)
	worstRE   = regexp.MustCompile(`worst est/act ([0-9.]+)x`)
)

// TestLookupEstimateExact checks that constant-subject patterns are
// estimated from the exact SPO range, not a fraction of the store: every
// operator of the order-by-subject lookup estimates one row, and EXPLAIN
// ANALYZE's worst est/act stays within 2x.
func TestLookupEstimateExact(t *testing.T) {
	st, _ := lookupStore(t)
	out, err := st.ExplainAnalyze(context.Background(), orderLookup(5), lookupOpts)
	if err != nil {
		t.Fatal(err)
	}
	ests := estRowsRE.FindAllStringSubmatch(out, -1)
	if len(ests) == 0 {
		t.Fatalf("no estimates in:\n%s", out)
	}
	for _, m := range ests {
		if m[1] != "1" {
			t.Fatalf("est_rows=%s, want 1:\n%s", m[1], out)
		}
	}
	m := worstRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no misestimate line in:\n%s", out)
	}
	if w, _ := strconv.ParseFloat(m[1], 64); w > 2 {
		t.Fatalf("worst est/act %.1fx, want <= 2x:\n%s", w, out)
	}
}

// TestDistinctCellBoundaries checks that DISTINCT compares whole cells:
// rows whose concatenated cells read alike but split differently are
// distinct, before and after Organize.
func TestDistinctCellBoundaries(t *testing.T) {
	st := srdf.New(srdf.Defaults())
	st.MustLoadTurtle(`@prefix ex: <http://ex/> .
ex:a ex:v "x|6|y" ; ex:w "z" .
ex:b ex:v "x" ; ex:w "y|6|z" .
`)
	const q = `SELECT DISTINCT ?v ?w WHERE { ?s <http://ex/v> ?v . ?s <http://ex/w> ?w }`
	check := func(label string) {
		t.Helper()
		for _, o := range []srdf.QueryOptions{{Mode: srdf.Default}, lookupOpts} {
			res, err := st.QueryWith(q, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 2 {
				t.Fatalf("%s %+v: DISTINCT returned %d rows, want 2", label, o, res.Len())
			}
		}
	}
	check("unorganized")
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	check("organized")
}

// TestDistinctTermIdentity checks that DISTINCT and COUNT(DISTINCT) key
// on RDF term identity: the four terms reading "chat" (two language
// tags, a plain literal, an IRI) and the three reading 1 (two integer
// spellings, a plain literal) are seven values, while a computed
// column still collapses by value. Both plan families, before and after
// Organize.
func TestDistinctTermIdentity(t *testing.T) {
	st := srdf.New(srdf.Defaults())
	st.MustLoadTurtle(`@prefix ex: <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:o "chat"@en ; ex:n 1 .
ex:b ex:o "chat"@fr ; ex:n "01"^^xsd:integer .
ex:c ex:o "chat" ; ex:n 2 .
ex:d ex:o <chat> .
ex:e ex:o 1 .
ex:f ex:o "01"^^xsd:integer .
ex:g ex:o "1" .
`)
	cases := []struct {
		q    string
		rows int
		n    string // the single cell's lexical form, for a COUNT
	}{
		{`SELECT DISTINCT ?o WHERE { ?s <http://ex/o> ?o }`, 7, ""},
		{`SELECT (COUNT(DISTINCT ?o) AS ?c) WHERE { ?s <http://ex/o> ?o }`, 1, "7"},
		{`SELECT DISTINCT ?n WHERE { ?s <http://ex/n> ?n }`, 3, ""},
		{`SELECT DISTINCT ((?n + 0) AS ?m) WHERE { ?s <http://ex/n> ?n }`, 2, ""},
		{`SELECT (COUNT(DISTINCT (?n + 0)) AS ?c) WHERE { ?s <http://ex/n> ?n }`, 1, "2"},
	}
	check := func(label string) {
		t.Helper()
		for _, c := range cases {
			for _, o := range []srdf.QueryOptions{{Mode: srdf.Default}, lookupOpts} {
				res, err := st.QueryWith(c.q, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != c.rows {
					t.Errorf("%s %+v %s: %d rows, want %d", label, o, c.q, res.Len(), c.rows)
					continue
				}
				if got := res.Rows[0][0].Lexical(); c.n != "" && got != c.n {
					t.Errorf("%s %+v %s: count %s, want %s", label, o, c.q, got, c.n)
				}
			}
		}
	}
	check("unorganized")
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	check("organized")
}
