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
// the FK chain as FK joins into the author and country tables.
// Trickling a new author in puts a tail row on the author table, and
// Compact seals it outside the table's dense subject range; the FK join
// resolves such a subject through the table's tail map, so the plan
// keeps its shape and only the resolution cost of the tail grows.
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
  FKJoin ?c -> cname_pop [2 props, positional] est_rows=6 cost=76
    FKJoin ?a -> country_name [2 props, positional] est_rows=6 cost=46
      RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
        col p=R15 ?a enc=for×1
        col p=R16 ?y enc=for×1
`
	check("sealed", sealedWant)

	// A new author arrives: the author table grows a delta tail.
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/name"), O: srdf.StringLit("Zoe")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/a9"), P: srdf.IRI("http://l/country"), O: srdf.IRI("http://l/c3")})

	const deltaWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2
Project ?b ?n
  FKJoin ?c -> cname_pop [2 props, positional] est_rows=6 cost=78
    FKJoin ?a -> country_name [2 props, positional] est_rows=6 cost=48
      RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
        col p=R15 ?a enc=for×1
        col p=R16 ?y enc=for×1
`
	check("delta", deltaWant)

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	const compactedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=2
Project ?b ?n
  FKJoin ?c -> cname_pop [2 props, positional] est_rows=6 cost=78
    FKJoin ?a -> country_name [2 props, positional] est_rows=6 cost=48
      RDFscan ?b over author_year [2 props, 0 self-joins] +zonemaps est_rows=6 cost=12
        col p=R15 ?a enc=for×1
        col p=R16 ?y enc=for×1
`
	check("compacted", compactedWant)
}
