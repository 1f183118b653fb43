package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// headQueries are query heads exercising every streaming head operator;
// the WHERE clause is the two-property star of bigSrc.
var headQueries = []string{
	`PREFIX e: <http://b/> SELECT ?s ?va WHERE { ?s e:a ?va . ?s e:b ?vb . }`,
	`PREFIX e: <http://b/> SELECT DISTINCT ?vb WHERE { ?s e:a ?va . ?s e:b ?vb . }`,
	`PREFIX e: <http://b/> SELECT DISTINCT ?vb WHERE { ?s e:a ?va . ?s e:b ?vb . } ORDER BY ?vb`,
	`PREFIX e: <http://b/> SELECT ?vb (COUNT(*) AS ?n) (SUM(?va) AS ?sum) (MIN(?va) AS ?lo) (MAX(?va) AS ?hi) (AVG(?va) AS ?avg) WHERE { ?s e:a ?va . ?s e:b ?vb . } GROUP BY ?vb`,
	`PREFIX e: <http://b/> SELECT ?vb (COUNT(DISTINCT ?va) AS ?nd) WHERE { ?s e:a ?va . ?s e:b ?vb . } GROUP BY ?vb ORDER BY DESC(?nd) ?vb`,
	`PREFIX e: <http://b/> SELECT (SUM(?va) AS ?sum) (COUNT(*) AS ?n) WHERE { ?s e:a ?va . ?s e:b ?vb . }`,
	`PREFIX e: <http://b/> SELECT ?s ?va WHERE { ?s e:a ?va . ?s e:b ?vb . FILTER (?va > 500) } ORDER BY DESC(?va) ?s LIMIT 7`,
	`PREFIX e: <http://b/> SELECT ?vb (SUM(?va) AS ?sum) WHERE { ?s e:a ?va . ?s e:b ?vb . } GROUP BY ?vb ORDER BY DESC(?sum) ?vb LIMIT 5 OFFSET 3`,
	`PREFIX e: <http://b/> SELECT DISTINCT ?vb WHERE { ?s e:a ?va . ?s e:b ?vb . } ORDER BY ?vb LIMIT 4 OFFSET 2`,
}

func bigStar(f *fixture) Star {
	return Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: f.pred("http://b/b"), ObjVar: "vb"},
	}}
}

func resultText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%d|%s\t", v.Kind, v.Lexical())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// bruteHead computes headQueries[qi] over bigSrc(n) in plain Go: its
// rows, and whether their order is part of the answer.
func bruteHead(n, qi int) (rows [][]dict.Value, ordered bool) {
	iv := func(v int64) dict.Value { return dict.Value{Kind: dict.VInt, Int: v} }
	subj := func(i int) dict.Value { return dict.Value{Kind: dict.VString, Str: fmt.Sprintf("http://b/s%05d", i)} }
	type grp struct {
		n, sum, lo, hi int64
		seen           map[int64]bool
	}
	groups := make([]grp, 89)
	for i := 0; i < n; i++ {
		a, g := int64(i%997), &groups[i%89]
		if g.n == 0 || a < g.lo {
			g.lo = a
		}
		if g.n == 0 || a > g.hi {
			g.hi = a
		}
		if g.seen == nil {
			g.seen = map[int64]bool{}
		}
		g.n, g.sum, g.seen[a] = g.n+1, g.sum+a, true
	}
	vbs := func(lo, hi int) [][]dict.Value { // ?vb in [lo,hi)
		for vb := lo; vb < hi; vb++ {
			rows = append(rows, []dict.Value{iv(int64(vb))})
		}
		return rows
	}
	// byDesc orders group indexes by key descending, then ?vb ascending
	byDesc := func(key func(*grp) int64) []int {
		idx := make([]int, len(groups))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return key(&groups[idx[x]]) > key(&groups[idx[y]]) })
		return idx
	}
	switch qi {
	case 0:
		for i := 0; i < n; i++ {
			rows = append(rows, []dict.Value{subj(i), iv(int64(i % 997))})
		}
	case 1:
		return vbs(0, 89), false
	case 2:
		return vbs(0, 89), true
	case 3:
		for vb, g := range groups {
			rows = append(rows, []dict.Value{iv(int64(vb)), iv(g.n), iv(g.sum), iv(g.lo), iv(g.hi),
				{Kind: dict.VFloat, Float: float64(g.sum) / float64(g.n)}})
		}
	case 4:
		for _, vb := range byDesc(func(g *grp) int64 { return int64(len(g.seen)) }) {
			rows = append(rows, []dict.Value{iv(int64(vb)), iv(int64(len(groups[vb].seen)))})
		}
		return rows, true
	case 5:
		var sum int64
		for i := 0; i < n; i++ {
			sum += int64(i % 997)
		}
		rows = append(rows, []dict.Value{iv(sum), iv(int64(n))})
	case 6:
		var is []int
		for i := 0; i < n; i++ {
			if i%997 > 500 {
				is = append(is, i)
			}
		}
		sort.Slice(is, func(x, y int) bool {
			if is[x]%997 != is[y]%997 {
				return is[x]%997 > is[y]%997
			}
			return is[x] < is[y]
		})
		for _, i := range is[:7] {
			rows = append(rows, []dict.Value{subj(i), iv(int64(i % 997))})
		}
		return rows, true
	case 7:
		for _, vb := range byDesc(func(g *grp) int64 { return g.sum })[3:8] {
			rows = append(rows, []dict.Value{iv(int64(vb)), iv(groups[vb].sum)})
		}
		return rows, true
	case 8:
		return vbs(2, 6), true
	}
	return rows, false
}

// TestStreamHeadMatchesBruteForce runs every head shape through the
// streaming operators and demands the rows bruteHead computes directly
// from the fixture's generator.
func TestStreamHeadMatchesBruteForce(t *testing.T) {
	const n = 4000
	f := newFixture(t, bigSrc(n), 3)
	star := bigStar(f)
	tab := bigTable(t, f)
	lines := func(res *Result, ordered bool) []string {
		out := strings.Split(strings.TrimSuffix(resultText(res), "\n"), "\n")
		if !ordered {
			sort.Strings(out)
		}
		return out
	}
	for qi, src := range headQueries {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q)
		if err != nil {
			t.Fatal(err)
		}
		rows, ordered := bruteHead(n, qi)
		g, w := lines(got, ordered), lines(&Result{Rows: rows}, ordered)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("q%d: streaming head diverged from brute force\nquery: %s\ngot:\n%s\nwant:\n%s",
				qi, src, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
}

// TestSortOpTopKBound proves ORDER BY + LIMIT holds at most
// LIMIT+OFFSET rows of sort state while returning exactly the stable
// full-sort prefix.
func TestSortOpTopKBound(t *testing.T) {
	f := newFixture(t, bigSrc(6000), 3)
	star := bigStar(f)
	tab := bigTable(t, f)
	src := `PREFIX e: <http://b/> SELECT ?s ?va WHERE { ?s e:a ?va . ?s e:b ?vb . } ORDER BY ?va DESC(?s)`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	full, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q)
	if err != nil {
		t.Fatal(err)
	}
	const limit, offset = 10, 5
	proj := NewProjectOp(NewScanOp(tab, star, false, 0, -1), SelectItems(q, star.Vars()))
	topk := NewSortOp(proj, q.OrderBy, limit+offset)
	got := StreamVal(f.ctx, topk, limit, offset).Collect()

	if got.Len() != limit {
		t.Fatalf("top-k rows = %d, want %d", got.Len(), limit)
	}
	wantRows := full.Rows[offset : offset+limit]
	for i := range got.Rows {
		if resultText(&Result{Rows: got.Rows[i : i+1]}) != resultText(&Result{Rows: wantRows[i : i+1]}) {
			t.Fatalf("row %d: top-k diverged from full sort prefix", i)
		}
	}
	if topk.MaxHeld() > limit+offset {
		t.Fatalf("sort held %d rows, want <= %d", topk.MaxHeld(), limit+offset)
	}
	if topk.MaxHeld() == 0 {
		t.Fatal("sort held no rows")
	}

	// the unbounded sort really does hold everything (the contrast)
	proj2 := NewProjectOp(NewScanOp(tab, star, false, 0, -1), SelectItems(q, star.Vars()))
	fullSort := NewSortOp(proj2, q.OrderBy, -1)
	_ = StreamVal(f.ctx, fullSort, -1, -1).Collect()
	if fullSort.MaxHeld() != full.Len() {
		t.Fatalf("full sort held %d rows, want %d", fullSort.MaxHeld(), full.Len())
	}
}

// TestDistinctOpHoldsKeysNotRows checks the streaming DISTINCT dedups
// across batch boundaries.
func TestDistinctOpHoldsKeysNotRows(t *testing.T) {
	f := newFixture(t, bigSrc(5000), 3)
	star := bigStar(f)
	tab := bigTable(t, f)
	q, err := sparql.Parse(`PREFIX e: <http://b/> SELECT DISTINCT ?vb WHERE { ?s e:a ?va . ?s e:b ?vb . }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 89 { // i%89 values
		t.Fatalf("distinct rows = %d, want 89", res.Len())
	}
}

// TestAggregateEmptyInputStreaming mirrors the materialized head's
// empty-input aggregate edge case.
func TestAggregateEmptyInputStreaming(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	q, err := sparql.Parse(`PREFIX e: <http://s/> SELECT (SUM(?p) AS ?tot) (COUNT(*) AS ?n) WHERE { ?s e:price ?p . }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HeadStream(f.ctx, NewRelSource(NewRel("p")), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Int != 0 || res.Rows[0][1].Int != 0 {
		t.Fatalf("empty streaming aggregate: %v", res)
	}
}

// TestValidateOrderKeys covers the plan-time ORDER BY validation.
func TestValidateOrderKeys(t *testing.T) {
	vars := []string{"a", "b"}
	ok := []sparql.OrderKey{{Expr: &sparql.ExVar{Name: "a"}}, {Expr: &sparql.ExVar{Name: "b"}, Desc: true}}
	if err := ValidateOrderKeys(vars, ok); err != nil {
		t.Fatalf("valid keys rejected: %v", err)
	}
	bad := []sparql.OrderKey{{Expr: &sparql.ExVar{Name: "zzz"}}}
	if err := ValidateOrderKeys(vars, bad); err == nil {
		t.Fatal("unknown column accepted")
	}
	agg := []sparql.OrderKey{{Expr: &sparql.ExAgg{Func: sparql.AggCount}}}
	if err := ValidateOrderKeys(vars, agg); err == nil {
		t.Fatal("aggregate order key accepted")
	}
}
