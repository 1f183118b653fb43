package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

func newTestStore(t *testing.T, turtle string, minSupport int) *Store {
	t.Helper()
	opts := DefaultOptions()
	opts.CS.MinSupport = minSupport
	s := NewStore(opts)
	if _, err := s.LoadTurtle(strings.NewReader(turtle)); err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

const libSrc = `
@prefix ex: <http://lib.example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:b1 a ex:Book ; ex:author ex:a1 ; ex:year 1996 ; ex:isbn "111" .
ex:b2 a ex:Book ; ex:author ex:a2 ; ex:year 1996 ; ex:isbn "222" .
ex:b3 a ex:Book ; ex:author ex:a1 ; ex:year 1998 ; ex:isbn "333" .
ex:b4 a ex:Book ; ex:author ex:a3 ; ex:year 2001 ; ex:isbn "444" .
ex:a1 ex:name "Alice" ; ex:born 1960 .
ex:a2 ex:name "Bob" ; ex:born 1971 .
ex:a3 ex:name "Carol" ; ex:born 1980 .
ex:stray ex:oddity "noise" .
`

// the introduction's motivating query: author + isbn of books from 1996
const introQuery = `
PREFIX ex: <http://lib.example.org/>
SELECT ?a ?n WHERE {
  ?b ex:author ?a .
  ?b ex:year 1996 .
  ?b ex:isbn ?n .
}`

func sortedRows(res fmt.Stringer) []string {
	lines := strings.Split(strings.TrimSpace(res.String()), "\n")
	if len(lines) <= 1 {
		return nil
	}
	rows := lines[1:]
	sort.Strings(rows)
	return rows
}

func TestIntroQueryBothModes(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
		res, err := s.Query(introQuery, QueryOptions{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Len() != 2 {
			t.Fatalf("mode %v: %d rows, want 2 (b1,b2):\n%s", mode, res.Len(), res)
		}
	}
}

func TestQueryBeforeOrganize(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	res, err := s.Query(introQuery, QueryOptions{Mode: plan.ModeDefault})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("unorganized store: %d rows, want 2", res.Len())
	}
	// RDFscan mode transparently falls back to Default before Organize
	res2, err := s.Query(introQuery, QueryOptions{Mode: plan.ModeRDFScan})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 2 {
		t.Fatalf("RDFscan fallback: %d rows", res2.Len())
	}
}

func TestOrganizeReport(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	rep, err := s.Organize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 2 {
		t.Errorf("tables = %d, want 2 (books, authors): %s", rep.Tables, rep)
	}
	if rep.Coverage < 0.8 {
		t.Errorf("coverage = %v", rep.Coverage)
	}
	if rep.IrregularTriples == 0 {
		t.Error("stray triples should be irregular")
	}
	if !strings.Contains(s.SQLSchema(), "CREATE TABLE") {
		t.Error("SQLSchema should render DDL")
	}
}

func TestFKJoinAcrossTables(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	q := `
PREFIX ex: <http://lib.example.org/>
SELECT ?n ?isbn WHERE {
  ?b ex:author ?a .
  ?b ex:isbn ?isbn .
  ?a ex:name ?n .
  FILTER (?n = "Alice")
}`
	for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
		res, err := s.Query(q, QueryOptions{Mode: mode, ZoneMaps: true})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Len() != 2 {
			t.Fatalf("mode %v: %d rows, want 2 (111, 333):\n%s", mode, res.Len(), res)
		}
	}
}

func TestAggregationQuery(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	q := `
PREFIX ex: <http://lib.example.org/>
SELECT ?y (COUNT(*) AS ?n) WHERE {
  ?b ex:year ?y .
  ?b ex:isbn ?i .
} GROUP BY ?y ORDER BY DESC(?n) ?y`
	res, err := s.Query(q, QueryOptions{Mode: plan.ModeRDFScan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d, want 3:\n%s", res.Len(), res)
	}
	// 1996 has 2 books and sorts first
	if res.Rows[0][0].Lexical() != "1996" || res.Rows[0][1].Int != 2 {
		t.Errorf("top group: %v %v", res.Rows[0][0], res.Rows[0][1])
	}
}

func TestExplainJoinCounts(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	expDefault, err := s.Explain(introQuery, QueryOptions{Mode: plan.ModeDefault})
	if err != nil {
		t.Fatal(err)
	}
	expRDF, err := s.Explain(introQuery, QueryOptions{Mode: plan.ModeRDFScan})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 4a: the default plan needs k-1 = 2 self-joins; RDFscan none.
	if !strings.Contains(expDefault, "joins=2") {
		t.Errorf("default plan:\n%s", expDefault)
	}
	if !strings.Contains(expRDF, "joins=0") || !strings.Contains(expRDF, "RDFscan") {
		t.Errorf("rdfscan plan:\n%s", expRDF)
	}
}

func TestTrickleInsertAfterOrganize(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	// add a new book via trickle
	s.Add(nt.Triple{S: dict.IRI("http://lib.example.org/b9"), P: dict.IRI("http://lib.example.org/author"), O: dict.IRI("http://lib.example.org/a1")})
	s.Add(nt.Triple{S: dict.IRI("http://lib.example.org/b9"), P: dict.IRI("http://lib.example.org/year"), O: dict.IntLit(1996)})
	s.Add(nt.Triple{S: dict.IRI("http://lib.example.org/b9"), P: dict.IRI("http://lib.example.org/isbn"), O: dict.StringLit("999")})
	for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
		res, err := s.Query(introQuery, QueryOptions{Mode: mode, ZoneMaps: true})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Len() != 3 {
			t.Fatalf("mode %v after trickle: %d rows, want 3:\n%s", mode, res.Len(), res)
		}
	}
	// re-organize folds the delta in
	rep, err := s.Organize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IrregularTriples > 2 { // stray noise only
		t.Errorf("after reorganize, irregular = %d", rep.IrregularTriples)
	}
	res, _ := s.Query(introQuery, QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
	if res.Len() != 3 {
		t.Errorf("after reorganize: %d rows", res.Len())
	}
}

// TestDuplicateTriplesInvisible adds one triple twice and checks that
// the store holds it once — one row in both plan families, NumTriples
// 1 — in every storage state: unorganized, reopened unorganized,
// organized, re-added through the delta layer after a Delete, and
// reopened from Save. An RDF graph is a set, whatever the state.
func TestDuplicateTriplesInvisible(t *testing.T) {
	tr := nt.Triple{S: dict.IRI("http://dup/s"), P: dict.IRI("http://dup/p"), O: dict.StringLit("o")}
	const q = `SELECT ?s ?o WHERE { ?s <http://dup/p> ?o }`
	check := func(s *Store, state string, want int) {
		t.Helper()
		for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
			res, err := s.Query(q, QueryOptions{Mode: mode, ZoneMaps: true})
			if err != nil {
				t.Fatalf("%s: %v", state, err)
			}
			if res.Len() != want {
				t.Fatalf("%s, mode %v: %d rows, want %d", state, mode, res.Len(), want)
			}
		}
		if n := s.NumTriples(); n != want {
			t.Fatalf("%s: NumTriples %d, want %d", state, n, want)
		}
	}
	reopen := func(s *Store, name string) *Store {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		o, err := OpenStore(path, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { o.Close() })
		return o
	}

	s := NewStore(DefaultOptions())
	s.Add(tr)
	s.Add(tr)
	check(s, "unorganized", 1)
	check(reopen(s, "unorganized.srdf"), "reopened unorganized", 1)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	check(s, "organized", 1)
	s.Delete(tr)
	check(s, "deleted", 0)
	s.Add(tr)
	s.Add(tr)
	check(s, "re-added as delta", 1)
	check(reopen(s, "delta.srdf"), "reopened", 1)
}

func TestStats(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	st := s.Stats()
	if st.Organized || st.Triples == 0 {
		t.Errorf("pre-organize stats: %+v", st)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if !st.Organized || st.Tables != 2 {
		t.Errorf("post-organize stats: %+v", st)
	}
}

func TestSelectAllGeneric(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT * WHERE { ?s ?p ?o }`, QueryOptions{Mode: plan.ModeRDFScan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != s.NumTriples() {
		t.Errorf("select * rows = %d, want %d", res.Len(), s.NumTriples())
	}
}

func TestConstantSubjectPattern(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	q := `PREFIX ex: <http://lib.example.org/>
SELECT ?o WHERE { ex:b1 ex:isbn ?o }`
	res, err := s.Query(q, QueryOptions{Mode: plan.ModeRDFScan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Lexical() != "111" {
		t.Errorf("constant subject: %v", res)
	}
}

func TestUnknownTermYieldsEmpty(t *testing.T) {
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?s WHERE { ?s <http://nowhere/p> ?o }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("unknown predicate should match nothing")
	}
}

// --- the master correctness property ---

// genGraph produces a random structured graph: several "classes" with
// typed properties, FK links, missing values, multi-valued props, and
// noise triples.
func genGraph(seed int64, nSubj int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("@prefix e: <http://g/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	nDims := 3 + rng.Intn(3)
	for d := 0; d < nDims; d++ {
		fmt.Fprintf(&b, "e:dim%d e:dname \"d%d\" ; e:dcode %d .\n", d, d, d*7)
	}
	for i := 0; i < nSubj; i++ {
		cls := rng.Intn(2)
		switch cls {
		case 0:
			fmt.Fprintf(&b, "e:fact%d e:val %d ; e:ref e:dim%d", i, rng.Intn(50), rng.Intn(nDims))
			if rng.Intn(4) > 0 {
				fmt.Fprintf(&b, " ; e:score %d.5", rng.Intn(20))
			}
			if rng.Intn(6) == 0 {
				fmt.Fprintf(&b, " ; e:tag \"t%d\" , \"t%d\"", rng.Intn(5), 5+rng.Intn(5))
			}
			b.WriteString(" .\n")
		default:
			fmt.Fprintf(&b, "e:ev%d e:when \"19%02d-%02d-%02d\"^^xsd:date ; e:val %d .\n",
				i, 90+rng.Intn(9), 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(50))
		}
		if rng.Intn(15) == 0 {
			fmt.Fprintf(&b, "e:noise%d e:odd%d \"x\" .\n", i, rng.Intn(8))
		}
	}
	return b.String()
}

var equivQueries = []string{
	`PREFIX e: <http://g/> SELECT ?s ?v WHERE { ?s e:val ?v . ?s e:ref ?r . }`,
	`PREFIX e: <http://g/> SELECT ?s ?v ?sc WHERE { ?s e:val ?v . ?s e:score ?sc . FILTER (?v < 25) }`,
	`PREFIX e: <http://g/> SELECT ?s ?t WHERE { ?s e:tag ?t . ?s e:val ?v . }`,
	`PREFIX e: <http://g/> SELECT ?s ?dn WHERE { ?s e:ref ?d . ?d e:dname ?dn . }`,
	`PREFIX e: <http://g/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s ?w WHERE { ?s e:when ?w . ?s e:val ?v . FILTER (?w >= "1993-01-01"^^xsd:date && ?w < "1996-06-15"^^xsd:date) }`,
	`PREFIX e: <http://g/> SELECT (SUM(?v) AS ?tot) (COUNT(*) AS ?n) WHERE { ?s e:val ?v . FILTER (?v >= 10) }`,
	`PREFIX e: <http://g/> SELECT ?d (COUNT(*) AS ?n) WHERE { ?s e:ref ?d . ?s e:val ?v . } GROUP BY ?d ORDER BY DESC(?n)`,
	`PREFIX e: <http://g/> SELECT ?s WHERE { ?s e:odd0 ?x . }`,
	`PREFIX e: <http://g/> SELECT DISTINCT ?v WHERE { ?s e:val ?v . } ORDER BY ?v LIMIT 5`,
}

// TestPlanEquivalence is the correctness keystone: on randomized
// structured+dirty data, all four configurations (Default/RDFscan ×
// zonemaps on/off) must return identical result multisets, before and
// after trickle updates.
func TestPlanEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		src := genGraph(seed, 120)
		opts := DefaultOptions()
		opts.CS.MinSupport = 4
		s := NewStore(opts)
		if _, err := s.LoadTurtle(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		configs := []QueryOptions{
			{Mode: plan.ModeDefault},
			{Mode: plan.ModeDefault, ZoneMaps: true},
			{Mode: plan.ModeRDFScan},
			{Mode: plan.ModeRDFScan, ZoneMaps: true},
		}
		for qi, q := range equivQueries {
			var ref []string
			for ci, cfg := range configs {
				res, err := s.Query(q, cfg)
				if err != nil {
					t.Fatalf("seed %d q%d cfg%d: %v", seed, qi, ci, err)
				}
				rows := sortedRows(res)
				if ci == 0 {
					ref = rows
					continue
				}
				if !equalStrings(ref, rows) {
					t.Fatalf("seed %d q%d: cfg%d disagrees with Default\nquery: %s\ndefault (%d rows): %v\ncfg (%d rows): %v",
						seed, qi, ci, q, len(ref), sample(ref), len(rows), sample(rows))
				}
			}
		}
	}
}

func TestPlanEquivalenceAfterTrickle(t *testing.T) {
	src := genGraph(99, 100)
	opts := DefaultOptions()
	opts.CS.MinSupport = 4
	s := NewStore(opts)
	if _, err := s.LoadTurtle(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	// trickle in new facts, including a brand-new literal (which breaks
	// literal ordering and must disable range pushdown, not correctness)
	for i := 0; i < 10; i++ {
		s.Add(nt.Triple{
			S: dict.IRI(fmt.Sprintf("http://g/fact9%d", i)),
			P: dict.IRI("http://g/val"),
			O: dict.IntLit(int64(1000 + i)),
		})
		s.Add(nt.Triple{
			S: dict.IRI(fmt.Sprintf("http://g/fact9%d", i)),
			P: dict.IRI("http://g/ref"),
			O: dict.IRI("http://g/dim0"),
		})
	}
	configs := []QueryOptions{
		{Mode: plan.ModeDefault},
		{Mode: plan.ModeRDFScan},
		{Mode: plan.ModeRDFScan, ZoneMaps: true},
	}
	for qi, q := range equivQueries {
		var ref []string
		for ci, cfg := range configs {
			res, err := s.Query(q, cfg)
			if err != nil {
				t.Fatalf("q%d cfg%d: %v", qi, ci, err)
			}
			rows := sortedRows(res)
			if ci == 0 {
				ref = rows
				continue
			}
			if !equalStrings(ref, rows) {
				t.Fatalf("q%d cfg%d disagrees after trickle\nquery: %s\nwant %d rows, got %d",
					qi, ci, q, len(ref), len(rows))
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sample(rows []string) []string {
	if len(rows) > 6 {
		return rows[:6]
	}
	return rows
}

// workloadSrc is one table whose auto sort key is the date column
// e:made; e:size (integer) and e:kind (IRI) are the columns a workload
// could make the key instead.
func workloadSrc() string {
	var b strings.Builder
	b.WriteString("@prefix e: <http://w/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	for i := 0; i < 40; i++ {
		kind := "Small"
		if i%3 == 0 {
			kind = "Big"
		}
		fmt.Fprintf(&b, "e:x%d e:made \"19%02d-01-01\"^^xsd:date ; e:size %d ; e:kind e:%s .\n",
			i, 90+(i%9), (i*37)%100, kind)
	}
	return b.String()
}

// sortKeyOf returns the local name of the predicate the last Organize
// sub-ordered pred's table by ("" for load order).
func sortKeyOf(t *testing.T, s *Store, pred string) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.clusterIn.Ranges {
		c := s.schema.CSs[r.CSID]
		for i := range c.Props {
			if tm, _ := s.dict.Term(c.Props[i].Pred); tm.Value != "http://w/"+pred {
				continue
			}
			if r.SortPred == dict.Nil {
				return ""
			}
			tm, _ := s.dict.Term(r.SortPred)
			return strings.TrimPrefix(tm.Value, "http://w/")
		}
	}
	t.Fatalf("no clustered table holds %s", pred)
	return ""
}

func TestWorkloadDrivenSortKey(t *testing.T) {
	// A table whose auto sort key would be the date column; the observed
	// workload filters on the integer "size" column instead, so after
	// re-Organize the store should sub-order by size.
	const q = `PREFIX e: <http://w/> SELECT ?s WHERE { ?s e:size ?z . ?s e:made ?m . FILTER (?z >= 40 && ?z < 60) }`
	qo := QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}

	t.Run("before first Organize", func(t *testing.T) {
		// the workload seen before any Organize already steers the first one
		s := newTestStore(t, workloadSrc(), 3)
		for i := 0; i < 5; i++ {
			if _, err := s.Query(q, QueryOptions{Mode: plan.ModeDefault}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		if got := sortKeyOf(t, s, "size"); got != "size" {
			t.Errorf("sort key = %q, want size", got)
		}
	})
	t.Run("IRI constant object", func(t *testing.T) {
		// an IRI-valued object is a type-like selector, not a filtered
		// column: however often it repeats, it never becomes the key
		s := newTestStore(t, workloadSrc(), 3)
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		kq := `PREFIX e: <http://w/> SELECT ?s ?z WHERE { ?s e:kind e:Big . ?s e:size ?z }`
		for i := 0; i < 20; i++ {
			if _, err := s.Query(kq, qo); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		if got := sortKeyOf(t, s, "kind"); got != "made" {
			t.Errorf("sort key = %q, want the automatic made", got)
		}
	})
	t.Run("Explain does not count", func(t *testing.T) {
		s := newTestStore(t, workloadSrc(), 3)
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Explain(q, qo); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Organize(); err != nil {
			t.Fatal(err)
		}
		if got := sortKeyOf(t, s, "size"); got != "made" {
			t.Errorf("sort key = %q, want the automatic made", got)
		}
	})

	s := newTestStore(t, workloadSrc(), 3)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	if got := sortKeyOf(t, s, "size"); got != "made" {
		t.Fatalf("initial sort key = %q, want the automatic made", got)
	}
	// run the size-filtered query a few times (the workload)
	for i := 0; i < 5; i++ {
		if _, err := s.Query(q, qo); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	if got := sortKeyOf(t, s, "size"); got != "size" {
		t.Errorf("sort key = %q, want size", got)
	}
	// the table's size column must now be physically ascending
	var sizeAscending bool
	for _, tab := range s.Catalog().Visible() {
		col := tab.ColByName("size")
		if col == nil {
			continue
		}
		asc := true
		sizeVals := col.Data.Values()
		for i := 1; i < tab.Count; i++ {
			if sizeVals[i] < sizeVals[i-1] {
				asc = false
				break
			}
		}
		sizeAscending = asc
	}
	if !sizeAscending {
		t.Error("workload-driven sort key not applied: size column not ascending")
	}
	// and the query still returns the right rows
	res, err := s.Query(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	resDef, err := s.Query(q, QueryOptions{Mode: plan.ModeDefault})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != resDef.Len() || res.Len() == 0 {
		t.Errorf("rows: rdfscan=%d default=%d", res.Len(), resDef.Len())
	}
}
