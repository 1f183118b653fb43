package exec

import (
	"strings"
	"testing"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// fixture builds an organized store context from Turtle.
type fixture struct {
	d      *dict.Dictionary
	tb     *triples.Table
	idx    *triples.IndexSet
	schema *cs.Schema
	cat    *relational.Catalog
	ctx    *Ctx
	pool   *colstore.BufferPool
}

func newFixture(t testing.TB, src string, minSupport int) *fixture {
	t.Helper()
	ts, err := nt.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{d: dict.New(), tb: triples.NewTable(len(ts)), pool: colstore.NewPool(0)}
	for _, tr := range ts {
		f.tb.Append(f.d.Intern(tr.S), f.d.Intern(tr.P), f.d.Intern(tr.O))
	}
	opts := cs.DefaultOptions()
	opts.MinSupport = minSupport
	f.schema = cs.Discover(f.tb, f.d, opts)
	inf, err := cluster.Reorganize(f.tb, f.d, f.schema, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f.cat = relational.BuildCatalog(f.tb, f.d, f.schema, inf, f.pool)
	f.idx = triples.BuildAll(f.tb)
	f.ctx = &Ctx{Dict: f.d, Idx: f.idx, Cat: f.cat, Pool: f.pool}
	f.ctx.TrackProjections()
	return f
}

func (f *fixture) pred(iri string) dict.OID {
	o, ok := f.d.Lookup(dict.IRI(iri))
	if !ok {
		panic("unknown pred " + iri)
	}
	return o
}

const shopSrc = `
@prefix e: <http://s/> .
e:p1 e:name "ant" ; e:price 10 ; e:cat e:c1 .
e:p2 e:name "bee" ; e:price 20 ; e:cat e:c1 .
e:p3 e:name "cow" ; e:price 30 ; e:cat e:c2 .
e:p4 e:name "dog" ; e:price 40 ; e:cat e:c2 .
e:p5 e:name "eel" ; e:price 50 ; e:cat e:c1 .
e:c1 e:label "tools" .
e:c2 e:label "toys" .
`

// defaultStar drains the Default-family star operator.
func defaultStar(f *fixture, star Star) *Rel {
	return Drain(f.ctx, NewDefaultStarOp(star, f.idx))
}

// scanTable drains an RDFscan of star over the whole of tab.
func scanTable(f *fixture, tab *relational.Table, star Star, zones bool) *Rel {
	return Drain(f.ctx, NewScanOp(tab, star, zones, 0, -1))
}

// union drains the union of relations with the schema vars.
func union(f *fixture, vars []string, rels ...*Rel) *Rel {
	ops := make([]Operator, len(rels))
	for i, r := range rels {
		ops[i] = NewRelSource(r)
	}
	return Drain(f.ctx, NewUnionOp(vars, ops...))
}

// head runs a query's FILTERs and solution modifiers over rel.
func head(f *fixture, rel *Rel, q *sparql.Query) (*Result, error) {
	return HeadStream(f.ctx, NewRelSource(rel), q)
}

func shopStar(f *fixture) Star {
	return Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://s/name"), ObjVar: "n"},
		{Pred: f.pred("http://s/price"), ObjVar: "p"},
		{Pred: f.pred("http://s/cat"), ObjVar: "c"},
	}}
}

func TestDefaultStarMatchesRDFScan(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	star := shopStar(f)
	def := defaultStar(f, star)
	tab := f.cat.Visible()[0]
	if tab.Count != 5 {
		for _, tt := range f.cat.Visible() {
			if tt.Count == 5 {
				tab = tt
			}
		}
	}
	rdf := scanTable(f, tab, star, false)
	if def.Len() != 5 || rdf.Len() != 5 {
		t.Fatalf("default=%d rdfscan=%d rows, want 5", def.Len(), rdf.Len())
	}
	// same subjects
	got := map[dict.OID]bool{}
	si := rdf.ColIdx("s")
	for i := 0; i < rdf.Len(); i++ {
		got[rdf.Cols[si][i]] = true
	}
	di := def.ColIdx("s")
	for i := 0; i < def.Len(); i++ {
		if !got[def.Cols[di][i]] {
			t.Fatalf("subject %v missing from RDFScan", def.Cols[di][i])
		}
	}
}

func TestDefaultStarWithConstSeed(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	c1, _ := f.d.Lookup(dict.IRI("http://s/c1"))
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://s/cat"), ObjConst: c1},
		{Pred: f.pred("http://s/name"), ObjVar: "n"},
	}}
	rel := defaultStar(f, star)
	if rel.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (c1 products)", rel.Len())
	}
	if rel.ColIdx("n") < 0 || rel.ColIdx("s") < 0 {
		t.Errorf("vars: %v", rel.Vars)
	}
}

func TestRDFScanRangePushdown(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	pricePred := f.pred("http://s/price")
	// literal OIDs are value ordered; find bounds for price in [20,40]
	lo, hi, _ := f.d.LiteralOrder().Range(
		dict.Bound{V: dict.Value{Kind: dict.VInt, Int: 20}, Set: true},
		dict.Bound{V: dict.Value{Kind: dict.VInt, Int: 40}, Set: true})
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: pricePred, ObjVar: "p", Lo: lo, Hi: hi, HasRange: true},
	}}
	var tab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Col(pricePred) != nil {
			tab = tt
		}
	}
	rel := scanTable(f, tab, star, true)
	if rel.Len() != 3 {
		t.Fatalf("range scan rows = %d, want 3 (20,30,40)", rel.Len())
	}
}

func TestRDFScanNullsAreRejected(t *testing.T) {
	src := shopSrc + "e:p6 e:name \"fox\" ; e:cat e:c1 .\n" // no price
	f := newFixture(t, src, 3)
	star := shopStar(f)
	var tab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Col(f.pred("http://s/price")) != nil {
			tab = tt
		}
	}
	rel := scanTable(f, tab, star, false)
	for i := 0; i < rel.Len(); i++ {
		if rel.Cols[rel.ColIdx("p")][i] == dict.Nil {
			t.Fatal("NULL price leaked through the scan")
		}
	}
}

func TestRDFJoinPositional(t *testing.T) {
	f := newFixture(t, shopSrc, 2)
	// seed: products with their category refs
	prodStar := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://s/cat"), ObjVar: "c"},
	}}
	var prodTab, catTab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Col(f.pred("http://s/cat")) != nil {
			prodTab = tt
		}
		if tt.Col(f.pred("http://s/label")) != nil {
			catTab = tt
		}
	}
	in := scanTable(f, prodTab, prodStar, false)
	catStar := Star{SubjVar: "c", Props: []StarProp{
		{Pred: f.pred("http://s/label"), ObjVar: "l"},
	}}
	out := RDFJoin(f.ctx, in, "c", catTab, catStar, f.idx)
	if out.Len() != 5 {
		t.Fatalf("RDFJoin rows = %d, want 5", out.Len())
	}
	li := out.ColIdx("l")
	if li < 0 {
		t.Fatalf("label var missing: %v", out.Vars)
	}
	labels := map[string]int{}
	for i := 0; i < out.Len(); i++ {
		tm, _ := f.d.Term(out.Cols[li][i])
		labels[tm.Value]++
	}
	if labels["tools"] != 3 || labels["toys"] != 2 {
		t.Errorf("labels = %v", labels)
	}
}

func TestRDFJoinFallbackForForeignSubjects(t *testing.T) {
	// candidates pointing outside the table (the c2 category removed
	// from the catalog by pointing at an irregular subject)
	src := shopSrc + "e:p7 e:name \"gnu\" ; e:price 60 ; e:cat e:weird .\ne:weird e:label \"strange\" .\n"
	f := newFixture(t, src, 2)
	var prodTab, catTab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Col(f.pred("http://s/cat")) != nil {
			prodTab = tt
		}
		if tt.Col(f.pred("http://s/label")) != nil && tt != prodTab {
			catTab = tt
		}
	}
	prodStar := Star{SubjVar: "s", Props: []StarProp{{Pred: f.pred("http://s/cat"), ObjVar: "c"}}}
	in := union(f, prodStar.Vars(), scanTable(f, prodTab, prodStar, false),
		ResidualStar(f.ctx, prodStar, []*relational.Table{prodTab}))
	catStar := Star{SubjVar: "c", Props: []StarProp{{Pred: f.pred("http://s/label"), ObjVar: "l"}}}
	out := RDFJoin(f.ctx, in, "c", catTab, catStar, f.idx)
	// all 6 products must find a label, incl. the one pointing at the
	// subject that is not in catTab
	if out.Len() != 6 {
		t.Fatalf("rows = %d, want 6:\nvars %v", out.Len(), out.Vars)
	}
}

func TestResidualStarFindsIrregularMatches(t *testing.T) {
	src := shopSrc + "e:odd1 e:name \"zed\" ; e:weight 3 .\n" // {name,weight}: unsupported CS
	f := newFixture(t, src, 3)
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://s/name"), ObjVar: "n"},
	}}
	covering := f.cat.Visible()
	var rels []*Rel
	for _, tt := range covering {
		if tt.Col(star.Props[0].Pred) != nil {
			rels = append(rels, scanTable(f, tt, star, false))
		}
	}
	var coverTabs []*relational.Table
	for _, tt := range covering {
		if tt.Col(star.Props[0].Pred) != nil {
			coverTabs = append(coverTabs, tt)
		}
	}
	rels = append(rels, ResidualStar(f.ctx, star, coverTabs))
	all := union(f, star.Vars(), rels...)
	if all.Len() != 6 {
		t.Fatalf("name matches = %d, want 6 (5 products + zed)", all.Len())
	}
}

func TestHashJoin(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	l := NewRel("a", "b")
	l.AppendRow(dict.ResourceOID(1), dict.ResourceOID(10))
	l.AppendRow(dict.ResourceOID(2), dict.ResourceOID(20))
	l.AppendRow(dict.ResourceOID(3), dict.ResourceOID(30))
	r := NewRel("b", "c")
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(100))
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(101))
	r.AppendRow(dict.ResourceOID(30), dict.ResourceOID(300))
	out := Drain(f.ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(r), false))
	if out.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", out.Len())
	}
	if out.ColIdx("a") < 0 || out.ColIdx("b") < 0 || out.ColIdx("c") < 0 {
		t.Errorf("vars = %v", out.Vars)
	}
	// cross product when no shared vars
	x := NewRel("z")
	x.AppendRow(dict.ResourceOID(7))
	x.AppendRow(dict.ResourceOID(8))
	cp := Drain(f.ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(x), false))
	if cp.Len() != 6 {
		t.Errorf("cross product rows = %d, want 6", cp.Len())
	}
}

func TestFilterAndTruthSemantics(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	star := shopStar(f)
	rel := defaultStar(f, star)
	q, err := sparql.Parse(`PREFIX e: <http://s/> SELECT ?s WHERE { ?s e:price ?p . FILTER (?p > 25 && ?p != 40) }`)
	if err != nil {
		t.Fatal(err)
	}
	out := Drain(f.ctx, NewFilterOp(NewRelSource(rel), q.Filters[0]))
	if out.Len() != 2 { // 30, 50
		t.Fatalf("filter rows = %d, want 2", out.Len())
	}
}

func TestHeadAggregates(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	star := shopStar(f)
	rel := defaultStar(f, star)
	q, err := sparql.Parse(`PREFIX e: <http://s/>
SELECT ?c (SUM(?p) AS ?tot) (COUNT(*) AS ?n) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) (AVG(?p) AS ?avg)
WHERE { ?s e:cat ?c . ?s e:price ?p . ?s e:name ?n2 . } GROUP BY ?c ORDER BY DESC(?tot)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := head(f, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups = %d, want 2", res.Len())
	}
	// c1: 10+20+50=80, c2: 30+40=70
	if res.Rows[0][1].Int != 80 || res.Rows[1][1].Int != 70 {
		t.Errorf("sums: %v %v", res.Rows[0][1], res.Rows[1][1])
	}
	if res.Rows[0][2].Int != 3 || res.Rows[0][3].Int != 10 || res.Rows[0][4].Int != 50 {
		t.Errorf("count/min/max: %v", res.Rows[0])
	}
	if avg := res.Rows[0][5].Float; avg < 26.6 || avg > 26.7 {
		t.Errorf("avg = %v", avg)
	}
}

func TestHeadEmptyAggregate(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	rel := NewRel("p")
	q, err := sparql.Parse(`PREFIX e: <http://s/> SELECT (SUM(?p) AS ?tot) (COUNT(*) AS ?n) WHERE { ?s e:price ?p . }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := head(f, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][1].Int != 0 {
		t.Fatalf("empty aggregate: %v", res)
	}
}

func TestHeadDistinctOrderLimit(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	star := Star{SubjVar: "s", Props: []StarProp{{Pred: f.pred("http://s/cat"), ObjVar: "c"}}}
	rel := defaultStar(f, star)
	q, err := sparql.Parse(`PREFIX e: <http://s/> SELECT DISTINCT ?c WHERE { ?s e:cat ?c . } ORDER BY ?c LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := head(f, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("distinct+limit rows = %d, want 1", res.Len())
	}
}

func TestPageAccountingDiffersAcrossOperators(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	f.pool.ResetStats()
	f.pool.ResetCold()
	star := shopStar(f)
	_ = defaultStar(f, star)
	defStats := f.pool.Stats()
	if defStats.Misses == 0 {
		t.Fatal("the Default star should touch pages")
	}
	f.pool.ResetStats()
	f.pool.ResetCold()
	var tab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Col(f.pred("http://s/price")) != nil {
			tab = tt
		}
	}
	_ = scanTable(f, tab, star, false)
	rdfStats := f.pool.Stats()
	if rdfStats.Misses == 0 {
		t.Fatal("RDFscan should touch pages")
	}
	// At this toy scale both plans fit in a handful of pages; the page
	// *reduction* of RDFscan is asserted at scale by the RDF-H benches.
}

func TestLookupStarSubject(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	s, _ := f.d.Lookup(dict.IRI("http://s/p3"))
	star := shopStar(f)
	rel := LookupStarSubject(f.ctx, f.idx, s, star)
	if rel.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rel.Len())
	}
	ni := rel.ColIdx("n")
	tm, _ := f.d.Term(rel.Cols[ni][0])
	if tm.Value != "cow" {
		t.Errorf("name = %q", tm.Value)
	}
}
