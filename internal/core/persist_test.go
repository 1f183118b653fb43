package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/storage"
	"srdf/internal/triples"
)

// persistSource grows two clearly separated tables plus irregular
// residue, big enough to span several segment blocks.
func persistSource(n int) string {
	var b strings.Builder
	b.WriteString("@prefix p: <http://persist/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p:a%04d p:x %d ; p:y %d .\n", i, i, i%7)
		fmt.Fprintf(&b, "p:b%04d p:u \"v%d\" ; p:w %d .\n", i, i%13, i)
	}
	b.WriteString("p:odd p:z \"irregular\" .\n")
	return b.String()
}

func persistStore(t *testing.T, opts Options, n int) *Store {
	t.Helper()
	st := NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(persistSource(n))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	return st
}

func persistOpts() Options {
	opts := DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	return opts
}

func rowsOf(t *testing.T, st *Store, q string, mode plan.Mode) []string {
	t.Helper()
	res, err := st.Query(q, QueryOptions{Mode: mode, ZoneMaps: true})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d:%s", v.Kind, v.Lexical())
		}
		out = append(out, b.String())
	}
	return out
}

var persistQueries = []string{
	`SELECT ?s ?x ?y WHERE { ?s <http://persist/x> ?x . ?s <http://persist/y> ?y }`,
	`SELECT ?s ?x WHERE { ?s <http://persist/x> ?x . FILTER (?x >= 10 && ?x <= 40) }`,
	`SELECT ?s ?u WHERE { ?s <http://persist/u> ?u }`,
	`SELECT ?s ?z WHERE { ?s <http://persist/z> ?z }`,
	`SELECT ?y (COUNT(*) AS ?n) WHERE { ?s <http://persist/y> ?y } GROUP BY ?y ORDER BY ?y`,
}

// TestSaveOpenRowIdentical is the core round-trip property: an opened
// snapshot answers every query with row-identical results in both plan
// families — including a store carrying un-compacted delta rows and
// tombstones.
func TestSaveOpenRowIdentical(t *testing.T) {
	st := persistStore(t, persistOpts(), 300)
	// delta traffic: new matching subject, deletions, irregular spill
	st.Add(nt.Triple{S: dict.IRI("http://persist/a9999"), P: dict.IRI("http://persist/x"), O: dict.IntLit(12345)})
	st.Add(nt.Triple{S: dict.IRI("http://persist/a9999"), P: dict.IRI("http://persist/y"), O: dict.IntLit(3)})
	st.Delete(nt.Triple{S: dict.IRI("http://persist/a0007"), P: dict.IRI("http://persist/x"), O: dict.IntLit(7)})
	st.Add(nt.Triple{S: dict.IRI("http://persist/odd"), P: dict.IRI("http://persist/z"), O: dict.StringLit("two")})

	path := filepath.Join(t.TempDir(), "s.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	if stt := st.Stats(); stt.DeltaRows == 0 || stt.Tombstones == 0 {
		t.Fatalf("want un-compacted deltas in the saved store, got %+v", stt)
	}

	got, err := OpenStore(path, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	for _, q := range persistQueries {
		for _, mode := range []plan.Mode{plan.ModeDefault, plan.ModeRDFScan} {
			want := rowsOf(t, st, q, mode)
			have := rowsOf(t, got, q, mode)
			if len(want) != len(have) {
				t.Fatalf("%v %s: %d rows vs %d", mode, q, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%v %s: row %d differs:\n%s\nvs\n%s", mode, q, i, have[i], want[i])
				}
			}
		}
	}
	// The opened store must stay fully live: updates, compaction, and
	// re-organization all work on restored state.
	got.Add(nt.Triple{S: dict.IRI("http://persist/a9998"), P: dict.IRI("http://persist/x"), O: dict.IntLit(777)})
	if _, err := got.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Organize(); err != nil {
		t.Fatal(err)
	}
	after := rowsOf(t, got, persistQueries[0], plan.ModeRDFScan)
	// 300 dense - a0007 (its x was deleted) + a9999; a9998 has no y and
	// cannot match the two-property star
	if len(after) != 300 {
		t.Fatalf("post-recovery lifecycle: %d rows", len(after))
	}
}

// TestOpenIsLazy is the acceptance criterion for lazy loading: opening a
// multi-table snapshot decodes no segment payloads (SegmentsDecoded = 0,
// SegmentBytes = 0); the first scan faults in only what it reads.
func TestOpenIsLazy(t *testing.T) {
	st := persistStore(t, persistOpts(), 2200) // > 2 blocks per table
	path := filepath.Join(t.TempDir(), "s.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if tb := got.Catalog().Visible(); len(tb) < 2 {
		t.Fatalf("want a multi-table store, got %d tables", len(tb))
	}
	ps := got.Pool().Stats()
	if ps.SegmentsDecoded != 0 || ps.SegmentBytes != 0 {
		t.Fatalf("open decoded %d segments (%d bytes); open must be lazy", ps.SegmentsDecoded, ps.SegmentBytes)
	}
	if ps.SegmentsLazy == 0 {
		t.Fatal("no lazy segments registered at open")
	}
	total := ps.SegmentsLazy

	// One single-column scan: only that column's blocks may decode.
	if rows := rowsOf(t, got, `SELECT ?s ?u WHERE { ?s <http://persist/u> ?u }`, plan.ModeRDFScan); len(rows) != 2200 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	ps = got.Pool().Stats()
	if ps.SegmentsDecoded == 0 {
		t.Fatal("scan decoded nothing")
	}
	if ps.SegmentsDecoded >= total {
		t.Fatalf("scan decoded every segment (%d of %d); faulting is not selective", ps.SegmentsDecoded, total)
	}
	if ps.SegmentBytes <= 0 {
		t.Fatal("decoded segments not accounted")
	}
}

// TestWALRecovery covers the crash path: logged trickle writes survive a
// dropped store (no Save after the writes) and replay into the delta
// layer at open.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.srdf"), filepath.Join(dir, "s.wal")

	opts := persistOpts()
	st := persistStore(t, opts, 60)
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	// reopen with a WAL attached; trickle writes are logged
	opts.WALPath = wal
	st, err := OpenStore(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	st.Add(nt.Triple{S: dict.IRI("http://persist/a7777"), P: dict.IRI("http://persist/x"), O: dict.IntLit(42)})
	st.Add(nt.Triple{S: dict.IRI("http://persist/a7777"), P: dict.IRI("http://persist/y"), O: dict.IntLit(2)})
	st.Delete(nt.Triple{S: dict.IRI("http://persist/a0001"), P: dict.IRI("http://persist/y"), O: dict.IntLit(1)})
	// set-semantics no-ops must not be logged: a duplicate add, a repeat
	// delete of an already-queued triple, a delete of an absent one
	st.Add(nt.Triple{S: dict.IRI("http://persist/a0002"), P: dict.IRI("http://persist/x"), O: dict.IntLit(2)})
	st.Delete(nt.Triple{S: dict.IRI("http://persist/a0001"), P: dict.IRI("http://persist/y"), O: dict.IntLit(1)})
	st.Delete(nt.Triple{S: dict.IRI("http://persist/a0001"), P: dict.IRI("http://persist/x"), O: dict.IntLit(999)})
	want := rowsOf(t, st, persistQueries[0], plan.ModeRDFScan) // also syncs the batch
	if n := st.Stats().WALRecords; n != 3 {
		t.Fatalf("logged %d records, want 3 (no-ops must not log)", n)
	}
	// crash: the store is dropped without Save or Close

	rec, err := OpenStore(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	have := rowsOf(t, rec, persistQueries[0], plan.ModeRDFScan)
	if len(have) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("row %d differs after recovery:\n%s\nvs\n%s", i, have[i], want[i])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTruncatesWAL: Save, explicit Compact and Organize fold
// the log into a fresh snapshot and truncate it; replaying the truncated
// log is a no-op.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.srdf"), filepath.Join(dir, "s.wal")
	opts := persistOpts()
	opts.WALPath = wal
	st := persistStore(t, opts, 40)
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	walRecords := func() int {
		w, ops, err := storage.OpenWAL(wal)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return len(ops)
	}

	add := func(n int) {
		st.Add(nt.Triple{S: dict.IRI(fmt.Sprintf("http://persist/a9%03d", n)), P: dict.IRI("http://persist/x"), O: dict.IntLit(int64(n))})
	}
	add(1)
	st.Stats() // sync the batch
	if got := st.Stats().WALRecords; got != 1 {
		t.Fatalf("WALRecords = %d, want 1", got)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(); got != 0 {
		t.Fatalf("%d records after Compact checkpoint", got)
	}
	add(2)
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(); got != 0 {
		t.Fatalf("%d records after Organize checkpoint", got)
	}
	add(3)
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(); got != 0 {
		t.Fatalf("%d records after Save checkpoint", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// everything is in the snapshot: reopening with the truncated WAL
	// reproduces the state
	rec, err := OpenStore(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT ?s ?x WHERE { ?s <http://persist/x> ?x . FILTER (?x >= 0) }`
	if a, b := rowsOf(t, st, q, plan.ModeRDFScan), rowsOf(t, rec, q, plan.ModeRDFScan); len(a) != len(b) {
		t.Fatalf("reopened store has %d rows, want %d", len(b), len(a))
	}
	rec.Close()
}

// TestOpenErrors: typed failures surface through OpenStore.
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenStore(filepath.Join(dir, "missing.srdf"), persistOpts()); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
	bogus := filepath.Join(dir, "bogus.srdf")
	if err := os.WriteFile(bogus, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(bogus, persistOpts()); err != storage.ErrNotSnapshot {
		t.Fatalf("bogus file: %v", err)
	}
}

// TestUnorganizedSaveOpen round-trips a store that was never organized:
// the snapshot carries dictionary and triples only, and Organize works
// after open.
func TestUnorganizedSaveOpen(t *testing.T) {
	opts := persistOpts()
	st := NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(persistSource(50))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "raw.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if got.Stats().Organized {
		t.Fatal("unorganized snapshot opened organized")
	}
	if got.NumTriples() != st.NumTriples() {
		t.Fatalf("triples %d vs %d", got.NumTriples(), st.NumTriples())
	}
	if _, err := got.Organize(); err != nil {
		t.Fatal(err)
	}
	if n := len(rowsOf(t, got, persistQueries[0], plan.ModeRDFScan)); n != 50 {
		t.Fatalf("%d rows after organize-on-open", n)
	}
}

// TestOpenSortsOnDemand checks what an opened store pays for its
// indexes and when: SPO is there at Open (adopted from the triples
// section), the first write reads no other order for its presence
// check, and further orders are sorted only as plans read them.
func TestOpenSortsOnDemand(t *testing.T) {
	st := persistStore(t, persistOpts(), 300)
	path := filepath.Join(t.TempDir(), "s.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if m := got.idx.Materialized(); !slices.Equal(m, []triples.Perm{triples.SPO}) {
		t.Fatalf("Open materialized %v, want SPO only", m)
	}
	if err := got.Add(nt.Triple{S: dict.IRI("http://persist/new"), P: dict.IRI("http://persist/u"), O: dict.IntLit(1)}); err != nil {
		t.Fatal(err)
	}
	if m := got.idx.Materialized(); !slices.Equal(m, []triples.Perm{triples.SPO}) {
		t.Fatalf("the first Add after Open sorted %v, want SPO only", m)
	}
	if rows := rowsOf(t, got, `SELECT ?s ?u WHERE { ?s <http://persist/u> ?u }`, plan.ModeDefault); len(rows) != 301 {
		t.Fatalf("scan returned %d rows, want 301", len(rows))
	}
	if m := got.idx.Materialized(); len(m) < 2 || len(m) == len(triples.AllPerms) {
		t.Fatalf("one Default-plan scan left %v sorted", m)
	}
}

// TestOpenSortsNothing pins the restart path: a store reopened from a
// snapshot with delta traffic answers its first RDFscan query, and takes
// an Add and the refresh that folds it, without sorting an SPO
// projection — neither the store's nor the irregular residue's.
func TestOpenSortsNothing(t *testing.T) {
	st := persistStore(t, persistOpts(), 300)
	st.Add(nt.Triple{S: dict.IRI("http://persist/a9000"), P: dict.IRI("http://persist/x"), O: dict.IntLit(9000)})
	st.Add(nt.Triple{S: dict.IRI("http://persist/odd2"), P: dict.IRI("http://persist/z"), O: dict.StringLit("more")})
	st.Delete(nt.Triple{S: dict.IRI("http://persist/b0001"), P: dict.IRI("http://persist/w"), O: dict.IntLit(1)})
	path := filepath.Join(t.TempDir(), "s.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	builds0, _ := triples.ProjectionCounts(triples.SPO)
	got, err := OpenStore(path, persistOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if rows := rowsOf(t, got, persistQueries[0], plan.ModeRDFScan); len(rows) != 300 {
		t.Fatalf("first query: %d rows, want 300", len(rows))
	}
	if err := got.Add(nt.Triple{S: dict.IRI("http://persist/odd3"), P: dict.IRI("http://persist/z"), O: dict.StringLit("new")}); err != nil {
		t.Fatal(err)
	}
	if rows := rowsOf(t, got, persistQueries[3], plan.ModeRDFScan); len(rows) != 3 {
		t.Fatalf("after the Add: %d irregular rows, want 3", len(rows))
	}
	if b, _ := triples.ProjectionCounts(triples.SPO); b != builds0 {
		t.Fatalf("open, first query and first write sorted SPO %d times, want 0", b-builds0)
	}
}
