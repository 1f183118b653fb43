package srdf_test

import (
	"testing"

	"srdf"
)

// Three emergent classes chained by FKs: books -> authors -> countries.
const chainSrc = `@prefix l: <http://l/> .
l:b1 l:author l:a1 ; l:year 1991 .
l:b2 l:author l:a1 ; l:year 1992 .
l:b3 l:author l:a2 ; l:year 1993 .
l:b4 l:author l:a3 ; l:year 1994 .
l:b5 l:author l:a4 ; l:year 1995 .
l:b6 l:author l:a5 ; l:year 1996 .
l:a1 l:name "Alice" ; l:country l:c1 .
l:a2 l:name "Bob" ; l:country l:c2 .
l:a3 l:name "Cleo" ; l:country l:c3 .
l:a4 l:name "Dave" ; l:country l:c1 .
l:a5 l:name "Eve" ; l:country l:c2 .
l:c1 l:cname "NL" ; l:pop 17 .
l:c2 l:cname "DE" ; l:pop 83 .
l:c3 l:cname "FR" ; l:pop 68 .
`

// TestGoldenExplainCostedChain pins the costed plan for a 3-way star
// chain across the live-update lifecycle. Sealed, the optimizer runs
// the FK chain as MergeJoins over the subject-ordered author and
// country tables. Trickling a new author in puts delta rows on the
// author table, which disqualifies it from merge joins (the delta tail
// is unsorted), so that step falls back to a hash join; Compact seals
// the delta and the merge plan comes back.
func TestGoldenExplainCostedChain(t *testing.T) {
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
		ex, err := s.Explain(q, qo)
		if err != nil {
			t.Fatal(err)
		}
		if ex != want {
			t.Errorf("%s explain:\n got:\n%s\nwant:\n%s", stage, ex, want)
		}
		res, err := s.QueryWith(q, qo)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 6 {
			t.Errorf("%s: %d rows, want 6", stage, res.Len())
		}
	}

	const sealedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2
Project ?b ?n
  MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=51
    MergeJoin ?a -> country_name [2 props, subject-ordered scan] est_rows=6 cost=34
      RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
        col p=R15 ?a enc=for×1
        col p=R16 ?y enc=for×1
`
	check("sealed", sealedWant)

	// A new author arrives: the author table grows a delta tail.
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/name"), O: srdf.StringLit("Zoe")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/country"), O: srdf.IRI("http://l/c3")})

	// The author table no longer qualifies for a merge join (unsorted
	// delta tail), so the DP re-anchors the plan on the author star and
	// hash-joins the books on top.
	const deltaWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2
Project ?b ?n
  HashJoin on [?a] est_rows=6 cost=90
    MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=29
      RDFscan ?a over country_name [2 props, 0 self-joins] +zonemaps delta=1 est_rows=6 cost=12
        col p=R17 ?nm enc=for×1
        col p=R18 ?c enc=for×1
    RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
      col p=R15 ?a enc=for×1
      col p=R16 ?y enc=for×1
`
	check("delta", deltaWant)

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compact seals the delta, but the merged-in author a9 sits outside
	// the table's dense subject range, so books->authors stays a hash
	// join; the countries merge join needs only the inner table dense.
	const compactedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2
Project ?b ?n
  HashJoin on [?a] est_rows=6 cost=90
    MergeJoin ?c -> cname_pop [2 props, subject-ordered scan] est_rows=6 cost=29
      RDFscan ?a over country_name [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
        col p=R17 ?nm enc=for×1
        col p=R18 ?c enc=for×1
    RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
      col p=R15 ?a enc=for×1
      col p=R16 ?y enc=for×1
`
	check("compacted", compactedWant)
}
