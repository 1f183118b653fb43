package core

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/triples"
)

// deltaGraph builds n subjects of one characteristic set.
func deltaGraph(n int) string {
	var b strings.Builder
	b.WriteString("@prefix g: <http://g/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "g:s%d g:name \"n%d\" ; g:val %d .\n", i, i, i)
	}
	return b.String()
}

func newDeltaStore(t *testing.T, n, threshold int) *Store {
	t.Helper()
	opts := DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = threshold
	s := NewStore(opts)
	if _, err := s.LoadTurtle(strings.NewReader(deltaGraph(n))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func deltaTriple(i int) (nt.Triple, nt.Triple) {
	return nt.Triple{S: dict.IRI(fmt.Sprintf("http://g/s%d", i)), P: dict.IRI("http://g/name"), O: dict.StringLit(fmt.Sprintf("n%d", i))},
		nt.Triple{S: dict.IRI(fmt.Sprintf("http://g/s%d", i)), P: dict.IRI("http://g/val"), O: dict.IntLit(int64(i))}
}

const deltaQuery = `SELECT ?s ?n ?v WHERE { ?s <http://g/name> ?n . ?s <http://g/val> ?v }`

func mustRows(t *testing.T, s *Store, mode plan.Mode) int {
	t.Helper()
	res, err := s.Query(deltaQuery, QueryOptions{Mode: mode, ZoneMaps: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Len()
}

// TestEpochAdvancesOnWrites checks that the snapshot version moves only
// when writes are folded in.
func TestEpochAdvancesOnWrites(t *testing.T) {
	s := newDeltaStore(t, 10, -1)
	e0 := s.Epoch()
	if got := mustRows(t, s, plan.ModeRDFScan); got != 10 {
		t.Fatalf("rows = %d", got)
	}
	if s.Epoch() != e0 {
		t.Fatalf("read-only query advanced the epoch: %d -> %d", e0, s.Epoch())
	}
	a, b := deltaTriple(99)
	s.Add(a)
	s.Add(b)
	if got := mustRows(t, s, plan.ModeRDFScan); got != 11 {
		t.Fatalf("rows after add = %d", got)
	}
	if s.Epoch() <= e0 {
		t.Fatalf("write did not advance the epoch")
	}
}

// TestDeleteBeforeOrganize checks that the pending-delete path works on
// an unorganized store too.
func TestDeleteBeforeOrganize(t *testing.T) {
	opts := DefaultOptions()
	s := NewStore(opts)
	a, b := deltaTriple(1)
	s.Add(a)
	s.Add(b)
	s.Delete(b)
	if n := s.NumTriples(); n != 1 {
		t.Fatalf("NumTriples = %d, want 1", n)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?s ?n WHERE { ?s <http://g/name> ?n }`, QueryOptions{Mode: plan.ModeDefault})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

// TestAutoCompactTriggers checks that the delta layer is folded into
// sealed segments once it outgrows the configured threshold.
func TestAutoCompactTriggers(t *testing.T) {
	s := newDeltaStore(t, 12, 4)
	for i := 100; i < 110; i++ {
		a, b := deltaTriple(i)
		s.Add(a)
		s.Add(b)
	}
	if got := mustRows(t, s, plan.ModeRDFScan); got != 22 {
		t.Fatalf("rows = %d, want 22", got)
	}
	st := s.Stats()
	if st.DeltaRows >= 10 {
		t.Fatalf("auto-compaction never fired: %d delta rows", st.DeltaRows)
	}
	// and results survive in both plan families
	if got := mustRows(t, s, plan.ModeDefault); got != 22 {
		t.Fatalf("default-mode rows = %d, want 22", got)
	}
}

// TestCompactDropsDeadTailRows adds n new subjects, compacts them into
// sealed tail rows, deletes k of them and compacts again: the dead tail
// rows are dropped, so no tombstone lies at or past Count.
func TestCompactDropsDeadTailRows(t *testing.T) {
	const n, k = 12, 5
	s := newDeltaStore(t, 10, -1)
	for i := 100; i < 100+n; i++ {
		a, b := deltaTriple(i)
		s.Add(a)
		s.Add(b)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 100+k; i++ {
		a, b := deltaTriple(i)
		s.Delete(a)
		s.Delete(b)
	}
	rep, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedTombstones != k || rep.MergedRows != 0 {
		t.Fatalf("second compact: %+v, want %d tail rows dropped and none merged", rep, k)
	}
	tab := s.Catalog().Tables[0]
	if got, want := tab.SealedRows(), tab.Count+n-k; got != want || tab.DeltaLen() != 0 {
		t.Fatalf("sealed rows %d (+%d delta), want Count+n-k = %d", got, tab.DeltaLen(), want)
	}
	if tab.Del.AnyInRange(tab.Count, tab.NumRows()) {
		t.Fatal("a tombstone survived past Count")
	}
	if got := mustRows(t, s, plan.ModeRDFScan); got != 10+n-k {
		t.Fatalf("rows = %d, want %d", got, 10+n-k)
	}
}

// TestClusteredDeletesDoNotCompact deletes more clustered subjects than
// the auto-compaction threshold: Compact could reclaim none of them, so
// neither their refresh nor a further write's rewrites a sealed column.
func TestClusteredDeletesDoNotCompact(t *testing.T) {
	const thr = 4
	s := newDeltaStore(t, 20, thr)
	cols := func() []*colstore.Column {
		var out []*colstore.Column
		for _, tab := range s.Catalog().Tables {
			for _, c := range tab.Cols {
				out = append(out, c.Data)
			}
		}
		return out
	}
	before := cols()
	for i := 0; i < 2*thr; i++ {
		a, b := deltaTriple(i)
		s.Delete(a)
		s.Delete(b)
	}
	s.Stats() // refresh: the tombstones land
	a, _ := deltaTriple(2 * thr)
	s.Delete(a)
	if got := mustRows(t, s, plan.ModeRDFScan); got != 20-2*thr-1 {
		t.Fatalf("rows = %d, want %d", got, 20-2*thr-1)
	}
	if !slices.Equal(cols(), before) {
		t.Fatal("a refresh after clustered deletes rewrote sealed columns")
	}
	if st := s.Stats(); st.Tombstones != 2*thr+1 {
		t.Fatalf("tombstones = %d, want %d", st.Tombstones, 2*thr+1)
	}
}

// TestDeleteWholeSubject removes every triple of a sealed subject and
// checks it disappears from both plan families without a rebuild.
func TestDeleteWholeSubject(t *testing.T) {
	s := newDeltaStore(t, 10, -1)
	a, b := deltaTriple(3)
	s.Delete(a)
	s.Delete(b)
	for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
		if got := mustRows(t, s, mode); got != 9 {
			t.Fatalf("mode %v: rows = %d, want 9", mode, got)
		}
	}
	st := s.Stats()
	if st.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", st.Tombstones)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
		if got := mustRows(t, s, mode); got != 9 {
			t.Fatalf("mode %v after compact: rows = %d, want 9", mode, got)
		}
	}
	// the subject can come back, post-compact, as a fresh delta row
	s.Add(a)
	s.Add(b)
	if got := mustRows(t, s, plan.ModeRDFScan); got != 10 {
		t.Fatalf("after re-add: rows = %d, want 10", got)
	}
}

// TestReAddAfterAppliedDelete covers the write-loss regression where
// NumTriples applied a pending delete ahead of the refresh and a
// subsequent re-Add of the same triple was mistaken for a duplicate.
func TestReAddAfterAppliedDelete(t *testing.T) {
	s := newDeltaStore(t, 10, -1)
	a, _ := deltaTriple(3)
	s.Delete(a)
	n := s.NumTriples() // folds the delete ahead of the refresh
	s.Add(a)            // must not be treated as a duplicate
	if got := s.NumTriples(); got != n+1 {
		t.Fatalf("re-add after applied delete: NumTriples %d, want %d", got, n+1)
	}
	if got := mustRows(t, s, plan.ModeRDFScan); got != 10 {
		t.Fatalf("rows = %d, want 10", got)
	}
}

// TestPreOrganizeDeleteThenReAdd covers the pre-Organize regression
// where a re-Add after a pending Delete appended a second copy and the
// batch delete then erased both.
func TestPreOrganizeDeleteThenReAdd(t *testing.T) {
	s := NewStore(DefaultOptions())
	a, b := deltaTriple(1)
	s.Add(a)
	s.Add(b)
	s.Delete(a)
	s.Add(a) // net effect: both triples present
	if n := s.NumTriples(); n != 2 {
		t.Fatalf("NumTriples = %d, want 2", n)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?s ?n WHERE { ?s <http://g/name> ?n }`, QueryOptions{Mode: plan.ModeDefault})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

// TestOrganizeAfterDeltas folds the whole delta layer into a fresh
// clustering and restores a clean catalog.
func TestOrganizeAfterDeltas(t *testing.T) {
	s := newDeltaStore(t, 10, -1)
	for i := 50; i < 55; i++ {
		a, b := deltaTriple(i)
		s.Add(a)
		s.Add(b)
	}
	a, _ := deltaTriple(0)
	s.Delete(a)
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeltaRows != 0 || st.Tombstones != 0 {
		t.Fatalf("organize left delta state: %+v", st)
	}
	// s0 lost its name, so the two-prop star excludes it: 14 rows
	if got := mustRows(t, s, plan.ModeRDFScan); got != 14 {
		t.Fatalf("rows = %d, want 14", got)
	}
}

// checkIndexCurrent checks the store's two index sets after a refresh
// against sources they were not merged from: every order either set
// has materialized equals a fresh sort of that set's own SPO rows, the
// store's SPO holds exactly the model's triples, and the CS cells of
// live rows plus the irregular residue are the store's triples, each
// exactly once.
func checkIndexCurrent(t *testing.T, s *Store, when string, model map[nt.Triple]bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	same := func(what string, got, want *triples.Projection) {
		t.Helper()
		if !slices.Equal(got.A, want.A) || !slices.Equal(got.B, want.B) || !slices.Equal(got.C, want.C) {
			t.Fatalf("%s: %s (%d rows, want %d)", when, what, got.Len(), want.Len())
		}
	}
	for name, set := range map[string]*triples.IndexSet{"store": s.idx, "irregular": s.cat.IrregularIdx} {
		for _, p := range set.Materialized() {
			same(fmt.Sprintf("%s index %v differs from a fresh sort of its SPO", name, p),
				set.Get(p), triples.Build(set.Triples(), p))
		}
	}
	spo := s.idx.Get(triples.SPO)

	modelled := triples.NewTable(len(model))
	for tr := range model {
		so, _ := s.dict.Lookup(tr.S)
		po, _ := s.dict.Lookup(tr.P)
		oo, _ := s.dict.Lookup(tr.O)
		modelled.Append(so, po, oo)
	}
	same("store SPO differs from the model's triples", spo, triples.Build(modelled, triples.SPO))

	placed := s.cat.IrregularIdx.Triples().Clone()
	for _, tab := range s.cat.Tables {
		for row := 0; row < tab.NumRows(); row++ {
			sub := tab.SubjectOID(row)
			if tab.RowOf(sub) != row {
				continue // vacated: tombstoned, or superseded by a delta row
			}
			for ci, c := range tab.Cols {
				if v := tab.Value(ci, row); v != dict.Nil && !c.Folded {
					placed.Append(sub, c.Prop.Pred, v)
				}
			}
		}
	}
	for _, lt := range s.cat.Links {
		for i, sub := range lt.Subj {
			if lt.Parent.DenseLiveRow(sub) >= 0 {
				placed.Append(sub, lt.Pred, lt.Val[i])
			}
		}
	}
	same("CS cells plus irregular triples differ from the store's triples", triples.Build(placed, triples.SPO), spo)
}

// TestRefreshMergesIndex drives the incremental index path: batches of
// adds, deletes, re-adds and no-ops — some with NumTriples folding the
// deletions before the refresh does — must leave the store holding
// exactly the test's model of its triples, every sorted projection
// identical to a fresh sort, carry exactly the projections
// the previous epoch had, and log one line per folding refresh.
func TestRefreshMergesIndex(t *testing.T) {
	s := newDeltaStore(t, 60, 40)
	var logged bytes.Buffer
	s.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	if got := s.idx.Materialized(); !slices.Equal(got, []triples.Perm{triples.SPO}) {
		t.Fatalf("Organize sorted %v, want SPO only", got)
	}
	mustRows(t, s, plan.ModeDefault) // a Default plan reads PSO and POS
	want := s.idx.Materialized()
	if len(want) < 2 || len(want) == len(triples.AllPerms) {
		t.Fatalf("a two-property star materialized %v", want)
	}

	rng := rand.New(rand.NewSource(5))
	live := make(map[int]bool)        // subjects with both triples
	model := make(map[nt.Triple]bool) // every triple the store holds
	for i := 0; i < 60; i++ {
		live[i] = true
		a, b := deltaTriple(i)
		model[a], model[b] = true, true
	}
	for batch := 0; batch < 30; batch++ {
		for op := 0; op < 1+rng.Intn(12); op++ {
			i := rng.Intn(90)
			a, b := deltaTriple(i)
			switch rng.Intn(4) {
			case 0, 1:
				s.Add(a)
				s.Add(b)
				live[i] = true
				model[a], model[b] = true, true
			case 2:
				s.Delete(a)
				delete(live, i)
				delete(model, a)
				if rng.Intn(2) == 0 {
					s.NumTriples() // folds the deletion ahead of the refresh
				}
				if rng.Intn(3) == 0 {
					s.Add(a) // delete-then-re-add
					s.Add(b)
					live[i] = true
					model[a], model[b] = true, true
				}
			case 3:
				s.Delete(nt.Triple{S: a.S, P: a.P, O: dict.StringLit("absent")})
			}
		}
		if got := mustRows(t, s, plan.ModeRDFScan); got != len(live) {
			t.Fatalf("batch %d: %d rows, want %d", batch, got, len(live))
		}
		if got := mustRows(t, s, plan.ModeDefault); got != len(live) {
			t.Fatalf("batch %d: Default plan %d rows, want %d", batch, got, len(live))
		}
		checkIndexCurrent(t, s, fmt.Sprintf("batch %d", batch), model)
		if got := s.idx.Materialized(); !slices.Equal(got, want) {
			t.Fatalf("batch %d: index set holds %v, want the %v it started with", batch, got, want)
		}
	}
	lines := strings.Count(logged.String(), "msg=refresh")
	if lines == 0 || lines > 30 {
		t.Fatalf("%d refresh log lines for 30 batches:\n%s", lines, logged.String())
	}
	for _, field := range []string{"epoch=", "added=", "deleted=", `merged="[SPO`, "duration="} {
		if !strings.Contains(logged.String(), field) {
			t.Errorf("refresh log lacks %s:\n%s", field, logged.String())
		}
	}
}

// TestLiteralWatermark follows the literal-order watermark through the
// store lifecycle: Organize orders every literal, writes mint overflow
// literals past it (reusing a literal mints nothing), Compact keeps
// them overflow, the next Organize folds them into the ordered prefix,
// and a parse-order Organize claims no order at all.
func TestLiteralWatermark(t *testing.T) {
	s := newDeltaStore(t, 40, -1)
	st := s.Stats()
	if st.OrderedLiterals != st.Literals || st.OverflowLiterals != 0 {
		t.Fatalf("organized: %d ordered, %d overflow of %d literals", st.OrderedLiterals, st.OverflowLiterals, st.Literals)
	}
	a, b := deltaTriple(100) // "n100" and 100 are new literals
	s.Add(a)
	s.Add(b)
	c, _ := deltaTriple(5) // "n5" exists
	c.S = dict.IRI("http://g/s101")
	s.Add(c)
	if st := s.Stats(); st.OverflowLiterals != 2 {
		t.Fatalf("after minting 2 literals: overflow %d", st.OverflowLiterals)
	}
	const q = `SELECT ?s ?v WHERE { ?s <http://g/val> ?v . FILTER (?v >= 38 && ?v < 1000) }`
	for _, compact := range []bool{false, true} {
		if compact {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
			res, err := s.Query(q, QueryOptions{Mode: mode, ZoneMaps: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 3 { // 38, 39, 100
				t.Fatalf("compact=%v %v: %d rows, want 3", compact, mode, res.Len())
			}
		}
		ex, err := s.Explain(q, QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex, "+ovf1") || strings.Contains(ex, "Filter") {
			t.Fatalf("compact=%v: want the range pushed with one overflow member and no Filter:\n%s", compact, ex)
		}
	}
	if st := s.Stats(); st.OverflowLiterals != 2 {
		t.Fatalf("Compact changed the overflow count: %d", st.OverflowLiterals)
	}
	if err := s.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Organize(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.OverflowLiterals != 0 || st.OrderedLiterals != st.Literals {
		t.Fatalf("re-organized: %d ordered, %d overflow of %d", st.OrderedLiterals, st.OverflowLiterals, st.Literals)
	}

	opts := DefaultOptions()
	opts.CS.MinSupport = 3
	opts.Cluster.KeepLiteralOrder = true
	p := NewStore(opts)
	if _, err := p.LoadTurtle(strings.NewReader(deltaGraph(10))); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Organize(); err != nil {
		t.Fatal(err)
	}
	p.Add(a)
	if st := p.Stats(); st.OrderedLiterals != 0 || st.OverflowLiterals != 0 {
		t.Fatalf("parse order: %d ordered, %d overflow; want no order claimed", st.OrderedLiterals, st.OverflowLiterals)
	}
	if ex, _ := p.Explain(q, QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}); strings.Contains(ex, "in[") {
		t.Fatalf("parse order pushed a range:\n%s", ex)
	}
}
