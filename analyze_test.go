package srdf_test

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"srdf"
)

// timeRe matches the per-operator and total time annotations, which are
// the one non-deterministic part of EXPLAIN ANALYZE output.
var timeRe = regexp.MustCompile(`time=\S+`)

func normalizeAnalyze(s string) string { return timeRe.ReplaceAllString(s, "time=?") }

// TestGoldenExplainAnalyzeChain pins the analyzed plan for the 3-way
// star chain across the live-update lifecycle, mirroring
// TestGoldenExplainCostedChain: the same trees, but every operator line
// additionally carries the actual row count of a real execution, and
// the footer reports the executed totals and the worst est/act
// mis-estimation. In the delta and compacted stages the planner sizes
// the author scan by its live rows, the trickled-in author included
// (est 6, act 6), so the misestimate line reads 1.0x.
func TestGoldenExplainAnalyzeChain(t *testing.T) {
	o := srdf.Defaults()
	o.CompactThreshold = -1 // explicit Compact only: the test drives it
	s := srdf.New(o)
	s.MustLoadTurtle(chainSrc)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?b ?n WHERE {
  ?b <http://l/author> ?a . ?b <http://l/year> ?y .
  ?a <http://l/name> ?nm . ?a <http://l/country> ?c .
  ?c <http://l/cname> ?n . ?c <http://l/pop> ?p }`
	qo := srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}

	check := func(stage, want string) {
		t.Helper()
		ex, err := s.ExplainAnalyze(context.Background(), q, qo)
		if err != nil {
			t.Fatal(err)
		}
		if got := normalizeAnalyze(ex); got != want {
			t.Errorf("%s explain analyze:\n got:\n%s\nwant:\n%s", stage, got, want)
		}
	}

	const sealedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2 (analyzed)
Project ?b ?n act_rows=6 time=?
  MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=51 act_rows=6 time=?
    MergeJoin ?a -> country_name [2 props, subject-ordered scan] est_rows=6 cost=34 act_rows=6 time=?
      RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12 act_rows=6 time=?
        col p=R15 ?a enc=for×1 skip=1
        col p=R16 ?y enc=for×1 skip=1
actual: rows=6 time=?
misestimate: worst est/act 1.0x at MergeJoin ?c
`
	check("sealed", sealedWant)

	// A new author arrives: the author table grows a delta tail, the
	// plan re-anchors on the author star (see the costed-chain golden),
	// and the author scan now actually produces 6 rows against an
	// estimate of 5.
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/name"), O: srdf.StringLit("Zoe")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/country"), O: srdf.IRI("http://l/c3")})

	const deltaWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2 (analyzed)
Project ?b ?n act_rows=6 time=?
  HashJoin on [?a] est_rows=6 cost=90 act_rows=6 time=?
    MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=29 act_rows=6 time=?
      RDFscan ?a over country_name [2 props, 0 self-joins] +zonemaps delta=1 est_rows=6 cost=12 act_rows=6 time=?
        col p=R17 ?nm enc=for×1 skip=1
        col p=R18 ?c enc=for×1 skip=1
    RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12 act_rows=6 time=?
      col p=R15 ?a enc=for×1 skip=1
      col p=R16 ?y enc=for×1 skip=1
actual: rows=6 time=?
misestimate: worst est/act 1.0x at HashJoin on [?a]
`
	check("delta", deltaWant)

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	const compactedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2 (analyzed)
Project ?b ?n act_rows=6 time=?
  HashJoin on [?a] est_rows=6 cost=90 act_rows=6 time=?
    MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=29 act_rows=6 time=?
      RDFscan ?a over country_name [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12 act_rows=6 time=?
        col p=R17 ?nm enc=for×1 skip=1
        col p=R18 ?c enc=for×1 skip=1
    RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12 act_rows=6 time=?
      col p=R15 ?a enc=for×1 skip=1
      col p=R16 ?y enc=for×1 skip=1
actual: rows=6 time=?
misestimate: worst est/act 1.0x at HashJoin on [?a]
`
	check("compacted", compactedWant)
}

// actualRowsOf extracts N from the "actual: rows=N" footer.
func actualRowsOf(t *testing.T, ex string) int {
	t.Helper()
	m := regexp.MustCompile(`actual: rows=(\d+)`).FindStringSubmatch(ex)
	if m == nil {
		t.Fatalf("no actual-rows footer in:\n%s", ex)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestExplainAnalyzeRowsMatchQuery checks act_rows is the truth: for a
// spread of query shapes the analyzed row count equals the row count
// Query returns, exactly.
func TestExplainAnalyzeRowsMatchQuery(t *testing.T) {
	s := srdf.New(srdf.Defaults())
	s.MustLoadTurtle(chainSrc)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	qo := srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}
	queries := []string{
		`SELECT ?b ?n WHERE {
  ?b <http://l/author> ?a . ?b <http://l/year> ?y .
  ?a <http://l/name> ?nm . ?a <http://l/country> ?c .
  ?c <http://l/cname> ?n . ?c <http://l/pop> ?p }`,
		`SELECT ?b ?y WHERE { ?b <http://l/author> ?a . ?b <http://l/year> ?y . FILTER(?y > 1993) }`,
		`SELECT DISTINCT ?c WHERE { ?a <http://l/name> ?n . ?a <http://l/country> ?c }`,
		`SELECT ?c (COUNT(?a) AS ?k) WHERE { ?a <http://l/name> ?n . ?a <http://l/country> ?c } GROUP BY ?c`,
		`SELECT ?b ?y WHERE { ?b <http://l/author> ?a . ?b <http://l/year> ?y } ORDER BY ?y LIMIT 3`,
	}
	for _, q := range queries {
		res, err := s.QueryWith(q, qo)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		ex, err := s.ExplainAnalyze(context.Background(), q, qo)
		if err != nil {
			t.Fatalf("analyze %s: %v", q, err)
		}
		if got := actualRowsOf(t, ex); got != res.Len() {
			t.Errorf("act rows=%d, Query rows=%d for %s\n%s", got, res.Len(), q, ex)
		}
		// The head operator's act_rows agrees with the footer.
		head := strings.SplitN(ex, "\n", 3)[1]
		if !strings.Contains(head, "act_rows="+strconv.Itoa(res.Len())) {
			t.Errorf("head line act_rows disagrees with result: %q (want %d rows)", head, res.Len())
		}
	}
}
