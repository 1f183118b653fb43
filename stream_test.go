package srdf_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/exec"
	"srdf/internal/plan"
	"srdf/internal/rdfh"
)

// resultLines renders a materialized result as one line per row.
func resultLines(res *exec.Result) []string {
	out := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.Lexical())
			b.WriteByte('\t')
		}
		out = append(out, b.String())
	}
	return out
}

// streamLines drains a Rows iterator into one line per row.
func streamLines(rows *core.Rows) []string {
	defer rows.Close()
	var out []string
	for rows.Next() {
		var b strings.Builder
		for _, v := range rows.Row() {
			b.WriteString(v.Lexical())
			b.WriteByte('\t')
		}
		out = append(out, b.String())
	}
	return out
}

func linesEqual(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d:\n got %q\nwant %q", label, i, got[i], want[i])
		}
	}
}

var parityConfigs = []core.QueryOptions{
	{Mode: plan.ModeDefault},
	{Mode: plan.ModeRDFScan},
	{Mode: plan.ModeRDFScan, ZoneMaps: true},
}

// TestQueryStreamParityQuickstart asserts QueryStream and Query return
// identical rows on the quickstart-style dataset in every plan mode.
func TestQueryStreamParityQuickstart(t *testing.T) {
	s := organized(t)
	queries := []string{
		`PREFIX ex: <http://demo/> SELECT ?n WHERE { ?b ex:author ?a . ?b ex:year 1996 . ?a ex:name ?n . }`,
		`PREFIX ex: <http://demo/> SELECT ?i WHERE { ?b ex:isbn ?i . ?b ex:year ?y . }`,
		`PREFIX ex: <http://demo/> SELECT DISTINCT ?y WHERE { ?b ex:year ?y . } ORDER BY ?y`,
		`PREFIX ex: <http://demo/> SELECT (COUNT(*) AS ?n) WHERE { ?b ex:isbn ?i . }`,
		`PREFIX ex: <http://demo/> SELECT ?i WHERE { ?b ex:isbn ?i . } LIMIT 2`,
		`PREFIX ex: <http://demo/> SELECT ?i WHERE { ?b ex:isbn ?i . ?b ex:year ?y . FILTER (?y > 1996) }`,
	}
	for qi, q := range queries {
		for ci, qo := range parityConfigs {
			o := srdf.QueryOptions{Mode: qo.Mode, ZoneMaps: qo.ZoneMaps}
			res, err := s.QueryWith(q, o)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := s.QueryStreamWith(q, o)
			if err != nil {
				t.Fatal(err)
			}
			linesEqual(t, streamLines(rows), resultLines(res), fmt.Sprintf("q%d cfg%d", qi, ci))
		}
	}
}

// TestQueryStreamParityRDFH runs every RDF-H benchmark query through
// both APIs in both plan families and demands row-identical output.
func TestQueryStreamParityRDFH(t *testing.T) {
	h, err := rdfh.NewHarness(0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range rdfh.Queries() {
		for ci, qo := range parityConfigs {
			res, err := h.Clustered.Query(q, qo)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := h.Clustered.QueryStream(context.Background(), q, qo)
			if err != nil {
				t.Fatal(err)
			}
			linesEqual(t, streamLines(rows), resultLines(res), fmt.Sprintf("%s cfg%d", name, ci))
		}
	}
}

// rdfhModifierQueries exercises every head operator — DISTINCT, ORDER
// BY, top-K, grouped and DISTINCT aggregates — over RDF-H data, beyond
// the four benchmark queries.
var rdfhModifierQueries = []string{
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT DISTINCT ?seg WHERE { ?c rdfh:customer_mktsegment ?seg . }`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT DISTINCT ?seg WHERE { ?c rdfh:customer_mktsegment ?seg . } ORDER BY ?seg`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT ?o ?od WHERE { ?o rdfh:order_orderdate ?od . } ORDER BY DESC(?od) ?o LIMIT 10`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT ?o ?od WHERE { ?o rdfh:order_orderdate ?od . } ORDER BY ?od LIMIT 7 OFFSET 4`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT (COUNT(DISTINCT ?seg) AS ?n) WHERE { ?c rdfh:customer_mktsegment ?seg . }`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT ?seg (COUNT(*) AS ?n) (MIN(?bal) AS ?lo) (MAX(?bal) AS ?hi) WHERE { ?c rdfh:customer_mktsegment ?seg . ?c rdfh:customer_acctbal ?bal . } GROUP BY ?seg ORDER BY ?seg`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT ?seg (COUNT(*) AS ?n) WHERE { ?c rdfh:customer_mktsegment ?seg . } GROUP BY ?seg ORDER BY DESC(?n) ?seg LIMIT 3`,
	`PREFIX rdfh: <http://example.com/rdfh/> SELECT DISTINCT ?sp WHERE { ?o rdfh:order_shippriority ?sp . } LIMIT 2`,
}

// TestQueryStreamParityRDFHModifiers runs every aggregate / ORDER BY /
// DISTINCT query shape through both APIs in every plan family and
// demands row-identical output.
func TestQueryStreamParityRDFHModifiers(t *testing.T) {
	h, err := rdfh.NewHarness(0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range rdfhModifierQueries {
		for ci, qo := range parityConfigs {
			res, err := h.Clustered.Query(q, qo)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := h.Clustered.QueryStream(context.Background(), q, qo)
			if err != nil {
				t.Fatal(err)
			}
			linesEqual(t, streamLines(rows), resultLines(res), fmt.Sprintf("mod-q%d cfg%d", qi, ci))
		}
	}
}

// multiBlockStore builds a store whose main CS table spans several
// zone-map blocks (n > colstore.BlockRows rows).
func multiBlockStore(t testing.TB, n int) *srdf.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("@prefix e: <http://big/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e:s%06d e:a %d ; e:b %d .\n", i, i%997, i%89)
	}
	s := srdf.New(srdf.Defaults())
	s.MustLoadTurtle(b.String())
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLimitEarlyTermination proves the streaming pipeline stops pulling
// scan blocks once LIMIT is satisfied: the limited query must touch
// fewer buffer-pool pages than the full scan.
func TestLimitEarlyTermination(t *testing.T) {
	s := multiBlockStore(t, 6000)
	full := `PREFIX e: <http://big/> SELECT ?s ?x WHERE { ?s e:a ?x . ?s e:b ?y . }`
	limited := full + " LIMIT 3"

	s.ResetCold()
	s.ResetPoolStats()
	res, err := s.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6000 {
		t.Fatalf("full rows = %d, want 6000", res.Len())
	}
	fullPages := s.PoolStats().Misses

	s.ResetCold()
	s.ResetPoolStats()
	res, err = s.Query(limited)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("limited rows = %d, want 3", res.Len())
	}
	limPages := s.PoolStats().Misses
	if limPages >= fullPages {
		t.Fatalf("LIMIT scan touched %d pages, full scan %d — no early termination", limPages, fullPages)
	}

	// the streaming API terminates early too
	s.ResetCold()
	s.ResetPoolStats()
	rows, err := s.QueryStream(limited)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(streamLines(rows)); got != 3 {
		t.Fatalf("streamed rows = %d, want 3", got)
	}
	if p := s.PoolStats().Misses; p >= fullPages {
		t.Fatalf("streamed LIMIT touched %d pages, full scan %d", p, fullPages)
	}
}

// concurrentParity runs every query alone, then from four goroutines at
// once (each running the whole list, alternating Query and QueryStream),
// and requires every concurrent run to return the lone run's rows, order
// included. Execution is single-threaded per query; concurrency comes
// from concurrent queries, which share the snapshot's tables, buffer
// pool, cached plans and block free lists.
func concurrentParity(t *testing.T, s *srdf.Store, queries []string) {
	t.Helper()
	want := make([][]string, len(queries))
	for qi, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = resultLines(res)
	}
	const workers = 4
	got := make([][][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi, q := range queries {
				if (w+qi)%2 == 0 {
					res, err := s.Query(q)
					if err != nil {
						errs[w] = err
						return
					}
					got[w] = append(got[w], resultLines(res))
					continue
				}
				rows, err := s.QueryStream(q)
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], streamLines(rows))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for qi := range queries {
			linesEqual(t, got[w][qi], want[qi], fmt.Sprintf("worker %d q%d", w, qi))
		}
	}
}

// TestParallelScanParity asserts that scans running in concurrent
// queries return the rows (order included) of the same scans run alone.
func TestParallelScanParity(t *testing.T) {
	concurrentParity(t, multiBlockStore(t, 9000), []string{
		`PREFIX e: <http://big/> SELECT ?s ?x ?y WHERE { ?s e:a ?x . ?s e:b ?y . }`,
		`PREFIX e: <http://big/> SELECT ?s WHERE { ?s e:a ?x . FILTER (?x = 13) }`,
		`PREFIX e: <http://big/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:a ?x . ?s e:b ?y . }`,
		`PREFIX e: <http://big/> SELECT ?s ?x WHERE { ?s e:a ?x . ?s e:b ?y . } LIMIT 10`,
	})
}

// TestParallelAggregateParity asserts that aggregation, DISTINCT and
// top-K running in concurrent queries return the rows of the same
// queries run alone — values and group order — through the public API.
func TestParallelAggregateParity(t *testing.T) {
	concurrentParity(t, multiBlockStore(t, 12000), []string{
		`PREFIX e: <http://big/> SELECT ?y (COUNT(*) AS ?n) (SUM(?x) AS ?s) (MIN(?x) AS ?lo) (MAX(?x) AS ?hi) (AVG(?x) AS ?avg) WHERE { ?s e:a ?x . ?s e:b ?y . } GROUP BY ?y`,
		`PREFIX e: <http://big/> SELECT ?y (COUNT(DISTINCT ?x) AS ?nd) WHERE { ?s e:a ?x . ?s e:b ?y . } GROUP BY ?y ORDER BY DESC(?nd) ?y`,
		`PREFIX e: <http://big/> SELECT (SUM(?x) AS ?s) (COUNT(*) AS ?n) WHERE { ?s e:a ?x . ?s e:b ?y . }`,
		`PREFIX e: <http://big/> SELECT ?y (SUM(?x) AS ?s) WHERE { ?s e:a ?x . ?s e:b ?y . } GROUP BY ?y ORDER BY DESC(?s) LIMIT 5`,
		`PREFIX e: <http://big/> SELECT DISTINCT ?y WHERE { ?s e:a ?x . ?s e:b ?y . } ORDER BY ?y LIMIT 10`,
	})
}
