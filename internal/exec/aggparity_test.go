package exec

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// aggCase is one GROUP BY over a generated input of three columns ?g1,
// ?g2 and ?x (row i's terms from gen).
type aggCase struct {
	name  string
	rows  int
	gen   func(i int) (g1, g2, x dict.Term)
	query string
	// groups and path are what the direct run reports; want is the
	// rendered result (aggRender) of the commit before direct group ids
	// and typed lanes, recorded as is, or its sha256 when long.
	groups int
	path   string
	want   string
}

var aggParityCases = []aggCase{
	{
		name: "no rows and no GROUP BY is one group",
		rows: 0,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			return dict.IRI("http://g/only"), dict.StringLit("s"), dict.IntLit(1)
		},
		query:  `SELECT (SUM(?x) AS ?s) (COUNT(*) AS ?n) (AVG(?x) AS ?a) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u }`,
		groups: 1, path: "direct",
		want: "2|0\t2|0\t0|\t\n",
	},
	{
		name: "one group, float sums",
		rows: 3000,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			return dict.IRI("http://g/only"), dict.StringLit("s"), dict.FloatLit(float64(i%97)*0.1 + 1e-3*float64(i%13))
		},
		query:  `SELECT ?g1 (SUM(?x) AS ?s) (AVG(?x) AS ?a) (COUNT(*) AS ?n) (SUM(?x * 1.5 - ?x) AS ?e) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u } GROUP BY ?g1`,
		groups: 1, path: "direct",
		want: "6|http://g/only\t3|bits:40cc193e147ae14c\t3|bits:40132e963dc486b0\t2|3000\t3|bits:40bc193e147ae14c\t\n",
	},
	{
		name: "six groups in first-seen order",
		rows: 5000,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			g1 := []dict.Term{dict.IRI("http://g/c"), dict.IRI("http://g/a"), dict.IRI("http://g/b")}[i%3]
			g2 := []dict.Term{dict.StringLit("O"), dict.StringLit("F")}[i/7%2]
			return g1, g2, dict.FloatLit(900 + float64(i%9000)/100)
		},
		query:  `SELECT ?g1 ?g2 (SUM(?x) AS ?s) (SUM(?x * (1 - ?x)) AS ?d) (AVG(?x) AS ?a) (COUNT(?x) AS ?n) (MIN(?x) AS ?lo) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u } GROUP BY ?g1 ?g2`,
		groups: 6, path: "direct",
		want: "6|http://g/c\t6|O\t3|bits:41278ab1570a3d6f\t3|bits:c1c53f3db5c2fb84\t3|bits:408ce7ae2756db15\t2|834\t3|bits:408c200000000000\t\n6|http://g/a\t6|O\t3|bits:41278af3ffffffff\t3|bits:c1c53fb611ee353f\t3|bits:408ce7ffffffffff\t2|834\t3|bits:408c20147ae147ae\t\n6|http://g/b\t6|O\t3|bits:41278366b3333332\t3|bits:c1c53899196c25b1\t3|bits:408ce79999999998\t2|833\t3|bits:408c2028f5c28f5c\t\n6|http://g/a\t6|F\t3|bits:412783ba00000000\t3|bits:c1c5392f834e3bcd\t3|bits:408ce80000000000\t2|833\t3|bits:408c208f5c28f5c3\t\n6|http://g/b\t6|F\t3|bits:412783fca3d70a3e\t3|bits:c1c539a7d84fdf38\t3|bits:408ce851eb851eb9\t2|833\t3|bits:408c20a3d70a3d71\t\n6|http://g/c\t6|F\t3|bits:412783db51eb8521\t3|bits:c1c5396bac248e87\t3|bits:408ce828f5c28f5f\t2|833\t3|bits:408c20b851eb851f\t\n",
	},
	{
		name: "5000 groups cross the direct limit mid-batch",
		rows: 10100,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			k := 0 // rows 0..99 are group 0, so group 4096 first shows at row 4196
			if i >= 100 {
				k = (i - 100) % 5000
			}
			return dict.IntLit(int64(k)), dict.StringLit("s"), dict.IntLit(int64(i % 17))
		},
		query:  `SELECT ?g1 (SUM(?x) AS ?s) (AVG(?x) AS ?a) (COUNT(*) AS ?n) (SUM(?x * 3 + ?x) AS ?e) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u } GROUP BY ?g1`,
		groups: 5000, path: "hash",
		want: "sha256:e32743653a00041dabb4dc430a160c852ab2bab4b0c7b239ccc565bca58be601",
	},
	{
		name: "unbound key is one code",
		rows: 2500,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			g1 := []dict.Term{dict.IRI("http://g/y"), dict.IRI("http://g/x"), dict.IRI("http://g/z")}[i*7%3]
			return g1, dict.StringLit("s"), dict.FloatLit(float64(i) / 3)
		},
		query:  `SELECT ?g1 ?u (SUM(?x) AS ?s) (COUNT(*) AS ?n) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u } GROUP BY ?g1 ?u`,
		groups: 3, path: "direct",
		want: "6|http://g/y\t0|\t3|bits:4115338400000000\t2|834\t\n6|http://g/x\t0|\t3|bits:41152ad6aaaaaaa1\t2|833\t\n6|http://g/z\t0|\t3|bits:41152f2d55555560\t2|833\t\n",
	},
	{
		name: "mixed int, float and string cells fall back",
		rows: 2100,
		gen: func(i int) (dict.Term, dict.Term, dict.Term) {
			x := []dict.Term{dict.IntLit(int64(i % 11)), dict.FloatLit(float64(i%5) + 0.25), dict.StringLit("n/a")}[i%3]
			if i >= 1024 && i < 2048 { // the second batch is all ints: a typed lane between mixed ones
				x = dict.IntLit(int64(i % 13))
			}
			return dict.IRI("http://g/a"), []dict.Term{dict.StringLit("p"), dict.StringLit("q")}[i%2], x
		},
		query:  `SELECT ?g2 (SUM(?x) AS ?s) (AVG(?x) AS ?a) (COUNT(?x) AS ?n) (SUM(?x + 0.5) AS ?e) (MAX(?x) AS ?hi) WHERE { ?g1 <http://p/a> ?g2 . ?g1 <http://p/b> ?x . ?g1 <http://p/c> ?u } GROUP BY ?g2`,
		groups: 2, path: "direct",
		want: "6|p\t3|bits:40b10ac000000000\t3|bits:40109eb851eb851f\t2|1050\t3|bits:40b2bdc000000000\t6|n/a\t\n6|q\t3|bits:40b110c000000000\t3|bits:4010a49249249249\t2|1050\t3|bits:40b2c44000000000\t6|n/a\t\n",
	},
}

// aggRender renders result rows as kind|lexical cells; float cells as
// their bits, so equal text is bit-identical sums.
func aggRender(rows [][]dict.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			if v.Kind == dict.VFloat {
				fmt.Fprintf(&b, "%d|bits:%x\t", v.Kind, math.Float64bits(v.Float))
				continue
			}
			fmt.Fprintf(&b, "%d|%s\t", v.Kind, v.Lexical())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runAggCase folds c's input through a HashAggregate, on the direct
// group ids or (hashed) on the hash table from the first row, and
// returns the rendered result and the group count and path it reports.
func runAggCase(t *testing.T, c aggCase, hashed bool) (string, int64, string) {
	t.Helper()
	d := dict.New()
	rel := NewRel("g1", "g2", "x")
	for i := 0; i < c.rows; i++ {
		g1, g2, x := c.gen(i)
		rel.AppendRow(d.Intern(g1), d.Intern(g2), d.Intern(x))
	}
	q, err := sparql.Parse(c.query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := (&Ctx{Dict: d}).WithQueryContext(nil)
	ctx.Stats = NewQueryStats(1)
	op := NewAggregateOp(NewRelSource(rel), q.Select, q.GroupBy)
	op.Stats = 1
	if hashed {
		op.toHash()
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rows [][]dict.Value
	vb := NewVBatch(op.Vars())
	for vb.Reset(); op.Next(vb); vb.Reset() {
		for i := 0; i < vb.Len(); i++ {
			rows = append(rows, vb.Row(i, nil))
		}
	}
	op.Close()
	st := ctx.Stats.Node(1)
	path := "direct"
	if st.GroupsHashed.Load() {
		path = "hash"
	}
	return aggRender(rows), st.Groups.Load(), path
}

// TestAggregateGroupPathParity runs each aggregate through the direct
// group ids (switching to the hash table where the case outgrows them)
// and through the hash table alone: both must give, row for row and bit
// for bit, the result recorded from the commit before either path
// existed, in first-seen group order.
func TestAggregateGroupPathParity(t *testing.T) {
	for _, c := range aggParityCases {
		t.Run(c.name, func(t *testing.T) {
			direct, groups, path := runAggCase(t, c, false)
			hashed, _, hpath := runAggCase(t, c, true)
			if groups != int64(c.groups) || path != c.path {
				t.Errorf("direct run: groups=%d %s, want groups=%d %s", groups, path, c.groups, c.path)
			}
			if hpath != "hash" {
				t.Errorf("hashed run reports the %s path", hpath)
			}
			if direct != hashed {
				t.Fatalf("direct and hash paths disagree:\ndirect:\n%s\nhash:\n%s", firstLines(direct), firstLines(hashed))
			}
			got := direct
			if strings.HasPrefix(c.want, "sha256:") {
				got = fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(direct)))
			}
			if got != c.want {
				t.Errorf("result differs from the recorded one:\ngot:\n%s\nwant:\n%s", firstLines(got), firstLines(c.want))
			}
		})
	}
}

// firstLines is the first lines of a long rendering.
func firstLines(s string) string {
	if lines := strings.SplitN(s, "\n", 9); len(lines) == 9 {
		return strings.Join(lines[:8], "\n") + "\n..."
	}
	return s
}
