package plan

import (
	"strings"
	"testing"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

type fixture struct {
	d   *dict.Dictionary
	sv  *StoreView
	ctx *exec.Ctx
}

func newFixture(t *testing.T, src string, minSupport int) *fixture {
	t.Helper()
	ts, err := nt.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := dict.New()
	tb := triples.NewTable(len(ts))
	for _, tr := range ts {
		tb.Append(d.Intern(tr.S), d.Intern(tr.P), d.Intern(tr.O))
	}
	opts := cs.DefaultOptions()
	opts.MinSupport = minSupport
	schema := cs.Discover(tb, d, opts)
	inf, err := cluster.Reorganize(tb, d, schema, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool := colstore.NewPool(0)
	cat := relational.BuildCatalog(tb, d, schema, inf, pool)
	idx := triples.BuildAll(tb)
	ctx := &exec.Ctx{Dict: d, Idx: idx, Cat: cat, Pool: pool}
	ctx.TrackProjections()
	return &fixture{
		d: d,
		sv: &StoreView{
			Dict: d, Idx: idx, Schema: schema, Cat: cat,
			Organized: true, Lits: d.LiteralOrder(),
		},
		ctx: ctx,
	}
}

const ordersSrc = `
@prefix e: <http://o/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
e:o1 e:odate "1996-01-05"^^xsd:date ; e:ototal 10 .
e:o2 e:odate "1996-02-05"^^xsd:date ; e:ototal 20 .
e:o3 e:odate "1996-03-05"^^xsd:date ; e:ototal 30 .
e:o4 e:odate "1996-04-05"^^xsd:date ; e:ototal 40 .
e:l1 e:ldate "1996-01-10"^^xsd:date ; e:lqty 1 ; e:lord e:o1 .
e:l2 e:ldate "1996-02-10"^^xsd:date ; e:lqty 2 ; e:lord e:o2 .
e:l3 e:ldate "1996-03-10"^^xsd:date ; e:lqty 3 ; e:lord e:o3 .
e:l4 e:ldate "1996-04-10"^^xsd:date ; e:lqty 4 ; e:lord e:o4 .
e:l5 e:ldate "1996-04-12"^^xsd:date ; e:lqty 5 ; e:lord e:o4 .
`

func buildPlan(t *testing.T, f *fixture, src string, opts Options) *Plan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, f.sv, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const starQ = `PREFIX e: <http://o/>
SELECT ?s ?d ?t WHERE { ?s e:odate ?d . ?s e:ototal ?t . }`

func TestFig4aPlanShapes(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	pDef := buildPlan(t, f, starQ, Options{Mode: ModeDefault})
	if pDef.Root.Joins() != 1 {
		t.Errorf("default 2-prop star joins = %d, want 1\n%s", pDef.Root.Joins(), pDef.Explain())
	}
	if !strings.Contains(pDef.Explain(), "StarSelfJoin") {
		t.Errorf("default explain:\n%s", pDef.Explain())
	}
	pRDF := buildPlan(t, f, starQ, Options{Mode: ModeRDFScan})
	if pRDF.Root.Joins() != 0 {
		t.Errorf("rdfscan star joins = %d, want 0\n%s", pRDF.Root.Joins(), pRDF.Explain())
	}
	if !strings.Contains(pRDF.Explain(), "RDFscan") {
		t.Errorf("rdfscan explain:\n%s", pRDF.Explain())
	}
}

const chainQ = `PREFIX e: <http://o/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?l ?od WHERE {
  ?l e:lqty ?q .
  ?l e:lord ?o .
  ?o e:odate ?od .
  FILTER (?q >= 3)
}`

func TestFig4bFKJoinPlan(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	p := buildPlan(t, f, chainQ, Options{Mode: ModeRDFScan})
	exp := p.Explain()
	if !strings.Contains(exp, "FKJoin ?o") {
		t.Errorf("chain plan should fetch ?o positionally:\n%s", exp)
	}
	res, err := execute(p, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // l3, l4, l5
		t.Fatalf("rows = %d, want 3:\n%s", res.Len(), res)
	}
}

// TestUnknownForceAlgo checks that only "", "hash" and "fk" plan: a
// misspelt or retired algorithm name must not silently plan cost-based.
func TestUnknownForceAlgo(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	q, err := sparql.Parse(chainQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"", "hash", "fk"} {
		if _, err := Build(q, f.sv, Options{Mode: ModeRDFScan, ForceAlgo: algo}); err != nil {
			t.Errorf("ForceAlgo %q: %v", algo, err)
		}
	}
	for _, algo := range []string{"merge", "rdfjoin", "FK", "x"} {
		if _, err := Build(q, f.sv, Options{Mode: ModeRDFScan, ForceAlgo: algo}); err == nil {
			t.Errorf("ForceAlgo %q planned, want an error", algo)
		}
	}
}

func TestResultsAgreeAcrossModes(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	for _, q := range []string{starQ, chainQ} {
		var want string
		for i, opt := range []Options{
			{Mode: ModeDefault},
			{Mode: ModeRDFScan},
			{Mode: ModeRDFScan, ZoneMaps: true},
		} {
			res, err := execute(buildPlan(t, f, q, opt), f.ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := sortedResult(res)
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("config %d disagrees on %s:\n%s\nvs\n%s", i, q, got, want)
			}
		}
	}
}

func sortedResult(res *exec.Result) string {
	lines := strings.Split(strings.TrimSpace(res.String()), "\n")
	if len(lines) <= 1 {
		return ""
	}
	body := lines[1:]
	for i := 0; i < len(body); i++ {
		for j := i + 1; j < len(body); j++ {
			if body[j] < body[i] {
				body[i], body[j] = body[j], body[i]
			}
		}
	}
	return strings.Join(body, "\n")
}

func TestRangePushdownAppearsInPlan(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	q := `PREFIX e: <http://o/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s ?d WHERE { ?s e:odate ?d . ?s e:ototal ?t .
FILTER (?d >= "1996-02-01"^^xsd:date && ?d <= "1996-03-31"^^xsd:date) }`
	p := buildPlan(t, f, q, Options{Mode: ModeRDFScan, ZoneMaps: true})
	if !strings.Contains(p.Explain(), "in[") {
		t.Errorf("plan should show pushed range:\n%s", p.Explain())
	}
	res, err := execute(p, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // o2, o3
		t.Fatalf("rows = %d, want 2:\n%s", res.Len(), res)
	}
}

func TestCrossTableZonePushdown(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	// restriction on orders' odate (its sort key) must surface as a
	// range on the lineitems' FK column
	q := `PREFIX e: <http://o/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?l ?od WHERE {
  ?l e:lqty ?q . ?l e:lord ?o .
  ?o e:odate ?od . ?o e:ototal ?t .
  FILTER (?od >= "1996-03-01"^^xsd:date)
}`
	p := buildPlan(t, f, q, Options{Mode: ModeRDFScan, ZoneMaps: true})
	exp := p.Explain()
	// the lineitem star's lord column should carry a subject-OID range
	if !strings.Contains(exp, "?o in[") && !strings.Contains(exp, " in[") {
		t.Errorf("no FK range pushed:\n%s", exp)
	}
	res, err := execute(p, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // l3 -> o3, l4+l5 -> o4
		t.Fatalf("rows = %d, want 3:\n%s", res.Len(), res)
	}
	// and the same result without zone maps
	res2, err := execute(buildPlan(t, f, q, Options{Mode: ModeRDFScan}), f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sortedResult(res) != sortedResult(res2) {
		t.Error("zone pushdown changed results")
	}
}

func TestImpossibleRangeShortCircuits(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	q := `PREFIX e: <http://o/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE { ?s e:odate ?d . FILTER (?d > "2050-01-01"^^xsd:date) }`
	res, err := execute(buildPlan(t, f, q, Options{Mode: ModeRDFScan, ZoneMaps: true}), f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

func TestUnknownConstantGivesEmptyPlan(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	q := `PREFIX e: <http://o/> SELECT ?s WHERE { ?s e:odate ?d . ?s e:nosuch ?x . }`
	p := buildPlan(t, f, q, Options{Mode: ModeRDFScan})
	if !strings.Contains(p.Explain(), "Empty") {
		t.Errorf("expected empty plan:\n%s", p.Explain())
	}
	res, err := execute(p, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Error("empty plan returned rows")
	}
}

func TestVariablePredicateGoesGeneric(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	q := `PREFIX e: <http://o/> SELECT ?p ?o WHERE { e:o1 ?p ?o . }`
	p := buildPlan(t, f, q, Options{Mode: ModeRDFScan})
	if !strings.Contains(p.Explain(), "TripleScan") {
		t.Errorf("expected TripleScan:\n%s", p.Explain())
	}
	res, err := execute(p, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // odate, ototal
		t.Fatalf("rows = %d, want 2:\n%s", res.Len(), res)
	}
}

func TestDuplicateVarInStar(t *testing.T) {
	src := ordersSrc + "e:l6 e:ldate \"1996-05-01\"^^xsd:date ; e:lqty 6 ; e:lord e:l6 .\n"
	f := newFixture(t, src, 3)
	// ?s linked to itself: needs the EqSelect machinery
	q := `PREFIX e: <http://o/> SELECT ?s WHERE { ?s e:lord ?s . }`
	for _, opt := range []Options{{Mode: ModeDefault}, {Mode: ModeRDFScan}} {
		res, err := execute(buildPlan(t, f, q, opt), f.ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("mode %v: self-loop rows = %d, want 1:\n%s", opt.Mode, res.Len(), res)
		}
	}
}

func TestUnorganizedStoreFallsBack(t *testing.T) {
	// A view without schema/catalog must plan everything as Default.
	ts, err := nt.ParseTurtle(strings.NewReader(ordersSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := dict.New()
	tb := triples.NewTable(len(ts))
	for _, tr := range ts {
		tb.Append(d.Intern(tr.S), d.Intern(tr.P), d.Intern(tr.O))
	}
	idx := triples.BuildAll(tb)
	sv := &StoreView{Dict: d, Idx: idx}
	ctx := &exec.Ctx{Dict: d, Idx: idx, Pool: colstore.NewPool(0)}
	q, _ := sparql.Parse(starQ)
	p, err := Build(q, sv, Options{Mode: ModeRDFScan, ZoneMaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "StarSelfJoin") {
		t.Errorf("unorganized store should use Default operators:\n%s", p.Explain())
	}
	res, err := execute(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("rows = %d, want 4", res.Len())
	}
}

// execute drains the plan's stream into a Result, reporting the error a
// failed stream ended on.
func execute(p *Plan, ctx *exec.Ctx) (*exec.Result, error) {
	it := p.Stream(ctx)
	res := it.Collect()
	return res, it.Err()
}

func TestExecAdapterMatchesExecute(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	for _, opt := range []Options{{Mode: ModeDefault}, {Mode: ModeRDFScan, ZoneMaps: true}} {
		p := buildPlan(t, f, starQ, opt)
		rel := exec.Drain(f.ctx, p.Root.Op()) // the root's operator tree, drained
		res, err := execute(p, f.ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != res.Len() || rel.Len() != 4 {
			t.Fatalf("mode %v: adapter rows = %d, streamed rows = %d, want 4", opt.Mode, rel.Len(), res.Len())
		}
	}
}

func TestEstimatesOrderJoins(t *testing.T) {
	f := newFixture(t, ordersSrc, 3)
	// the filtered star should be estimated cheaper and anchor the tree
	p := buildPlan(t, f, chainQ, Options{Mode: ModeRDFScan, ZoneMaps: true})
	if p.Root.EstRows() < 0 {
		t.Error("negative estimate")
	}
	_ = p.Explain() // must not panic
}
