package srdf_test

import (
	"testing"

	"srdf"
)

const deltaLibSrc = `@prefix l: <http://l/> .
l:b1 l:author l:a1 ; l:year 1991 ; l:isbn "1" .
l:b2 l:author l:a1 ; l:year 1992 ; l:isbn "2" .
l:b3 l:author l:a2 ; l:year 1993 ; l:isbn "3" .
l:b4 l:author l:a2 ; l:year 1994 ; l:isbn "4" .
l:a1 l:name "Alice" .
l:a2 l:name "Bob" .
`

func deltaStore(t *testing.T) *srdf.Store {
	t.Helper()
	o := srdf.Defaults()
	o.CompactThreshold = -1 // explicit Compact only: the test drives it
	s := srdf.New(o)
	s.MustLoadTurtle(deltaLibSrc)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenExplainDeltaLifecycle pins the textual plan output across
// the live-update lifecycle: a sealed store shows per-column segment
// encodings and zone selectivity, and no Filter node, since the scan
// enforces the pushed ?y range on every row; a store with pending deltas
// shows the delta row count and tombstones on its RDFscan line and keeps
// the pushed range — the years the writes minted (1998, 1999) sit past
// the ordered literal prefix and join it as overflow members ("+ovf2"),
// so there is still no Filter; a compacted store shows freshly chosen
// segment encodings with the delta row count gone and the same range,
// while b1's clustered row stays tombstoned ("dead=1") until the next
// Organize.
// Any regression in how delta-tail scans or overflow literals surface in
// EXPLAIN fails these exact-match comparisons.
func TestGoldenExplainDeltaLifecycle(t *testing.T) {
	s := deltaStore(t)
	const q = `SELECT ?b ?y WHERE { ?b <http://l/author> ?a . ?b <http://l/year> ?y . FILTER (?y >= 1992) }`
	qo := srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}

	const sealedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=0
Project ?b ?y
  RDFscan ?b over author_isbn [2 props, 0 self-joins] +zonemaps est_rows=1 cost=8
    col p=R7 ?a enc=rle×1
    col p=R8 ?y in[L6,L10] enc=for×1 zsel=1.00
`
	ex, err := s.Explain(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if ex != sealedWant {
		t.Errorf("sealed explain:\n got:\n%s\nwant:\n%s", ex, sealedWant)
	}

	// Two new books and one deletion: b8/b9 become delta rows, b1
	// migrates to a delta row (its sealed row is tombstoned).
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b8"), P: srdf.IRI("http://l/author"), O: srdf.IRI("http://l/a2")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b8"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1998)})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b9"), P: srdf.IRI("http://l/author"), O: srdf.IRI("http://l/a1")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b9"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1999)})
	s.Delete(srdf.Triple{S: srdf.IRI("http://l/b1"), P: srdf.IRI("http://l/isbn"), O: srdf.StringLit("1")})

	const deltaWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=0
Project ?b ?y
  RDFscan ?b over author_isbn [2 props, 0 self-joins] +zonemaps delta=3 dead=1 est_rows=2 cost=14
    col p=R7 ?a enc=rle×1
    col p=R8 ?y in[L6,L10]+ovf2 enc=for×1 zsel=1.00
`
	ex, err = s.Explain(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if ex != deltaWant {
		t.Errorf("delta explain:\n got:\n%s\nwant:\n%s", ex, deltaWant)
	}

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	const compactedWant = `Plan [RDFscan/RDFjoin +zonemaps] joins=0
Project ?b ?y
  RDFscan ?b over author_isbn [2 props, 0 self-joins] +zonemaps dead=1 est_rows=2 cost=14
    col p=R7 ?a enc=for×1
    col p=R8 ?y in[L6,L10]+ovf2 enc=for×1 zsel=1.00
`
	ex, err = s.Explain(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if ex != compactedWant {
		t.Errorf("compacted explain:\n got:\n%s\nwant:\n%s", ex, compactedWant)
	}
}

// TestDeltaLifecycleResults exercises the public API through the same
// lifecycle: live adds and deletes answered without a rebuild, snapshot
// isolation of an open stream, no-op writes, and Compact.
func TestDeltaLifecycleResults(t *testing.T) {
	s := deltaStore(t)
	const q = `SELECT ?b ?y WHERE { ?b <http://l/author> ?a . ?b <http://l/year> ?y }`

	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("sealed: %d rows, want 4", res.Len())
	}

	// Open a stream, then mutate: the snapshot must be unaffected.
	rows, err := s.QueryStream(q)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b9"), P: srdf.IRI("http://l/author"), O: srdf.IRI("http://l/a1")})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b9"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1999)})
	s.Delete(srdf.Triple{S: srdf.IRI("http://l/b2"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1992)})
	n := 0
	for rows.Next() {
		n++
	}
	if n != 4 {
		t.Fatalf("open snapshot saw %d rows, want the pre-mutation 4", n)
	}

	// A fresh query sees the new state: b9 added, b2 lost its year.
	res, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("after mutations: %d rows, want 4 (3 survivors + b9)", res.Len())
	}

	// Deleting an absent triple and re-adding an existing one are no-ops.
	before := s.NumTriples()
	s.Delete(srdf.Triple{S: srdf.IRI("http://l/nope"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1)})
	s.Add(srdf.Triple{S: srdf.IRI("http://l/b3"), P: srdf.IRI("http://l/year"), O: srdf.IntLit(1993)})
	if got := s.NumTriples(); got != before {
		t.Fatalf("no-op writes changed NumTriples: %d -> %d", before, got)
	}

	rep, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables == 0 || rep.MergedRows == 0 {
		t.Fatalf("compact did nothing: %+v", rep)
	}
	res, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("after compact: %d rows, want 4", res.Len())
	}
	// Compact seals every delta row and drops dead tail rows; b2 left
	// the clustered run, whose tombstone stays until the next Organize
	if st := s.Stats(); st.DeltaRows != 0 {
		t.Fatalf("compact left delta rows: %+v", st)
	}
	for _, tab := range s.Internal().Catalog().Tables {
		if tab.Del.AnyInRange(tab.Count, tab.NumRows()) {
			t.Fatalf("compact left a tombstone in %s's tail", tab.Name)
		}
	}
}
