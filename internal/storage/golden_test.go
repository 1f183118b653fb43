package storage_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/storage"
	"srdf/internal/triples"
)

var update = flag.Bool("update", false, "regenerate the golden snapshot fixture")

const goldenPath = "testdata/golden_v4.srdf"

// prevPath is a fixture of the previous format version, kept to pin
// that an old file is refused with the typed version error.
const prevPath = "testdata/golden_v3.srdf"

// goldenSource is a fixed graph exercising most of the format surface:
// two characteristic sets, a foreign key, a multi-valued property (link
// table), NULLs, and an irregular subject.
const goldenSource = `@prefix g: <http://golden/> .
g:p1 g:name "alice" ; g:age 30 ; g:works g:c1 .
g:p2 g:name "bob" ; g:age 25 ; g:works g:c1 .
g:p3 g:name "carol" ; g:age 41 ; g:works g:c2 .
g:p4 g:name "dave" ; g:age 19 ; g:works g:c2 .
g:c1 g:label "acme" ; g:tag "a" , "b" , "c" .
g:c2 g:label "globex" ; g:tag "x" , "y" , "z" .
g:c3 g:label "umbrella" ; g:tag "u" , "v" , "w" .
g:odd g:whatever "irregular" .
`

var goldenQueries = []string{
	`SELECT ?s ?n WHERE { ?s <http://golden/name> ?n }`,
	`SELECT ?s ?n ?a WHERE { ?s <http://golden/name> ?n . ?s <http://golden/age> ?a . FILTER (?a >= 25) }`,
	`SELECT ?s ?l WHERE { ?s <http://golden/works> ?c . ?c <http://golden/label> ?l }`,
	`SELECT ?c ?t WHERE { ?c <http://golden/tag> ?t }`,
	`SELECT ?s ?v WHERE { ?s <http://golden/whatever> ?v }`,
	`SELECT ?s ?n WHERE { ?s <http://golden/name> ?n . ?s <http://golden/nick> ?k }`,
}

// buildGoldenStore reproduces the fixture's state: the fixed graph,
// organized, plus delta traffic (a new matching subject, a delete, an
// irregular add) compacted into sealed tail rows, then more traffic
// folded into the catalog but not compacted — a tombstoned sealed tail
// row and unsealed tail rows behind it.
func buildGoldenStore(t *testing.T) *core.Store {
	t.Helper()
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(goldenSource)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	g := func(s string) dict.Term { return dict.IRI("http://golden/" + s) }
	st.Add(nt.Triple{S: g("p5"), P: g("name"), O: dict.StringLit("erin")})
	st.Add(nt.Triple{S: g("p5"), P: g("age"), O: dict.IntLit(33)})
	st.Add(nt.Triple{S: g("p5"), P: g("works"), O: g("c2")})
	st.Delete(nt.Triple{S: g("p2"), P: g("age"), O: dict.IntLit(25)})
	st.Add(nt.Triple{S: g("odd"), P: g("whatever"), O: dict.StringLit("more")})
	st.Add(nt.Triple{S: g("p1"), P: g("nick"), O: dict.StringLit("al")})
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Delete(nt.Triple{S: g("p5"), P: g("age"), O: dict.IntLit(33)})
	st.Add(nt.Triple{S: g("p6"), P: g("name"), O: dict.StringLit("frank")})
	st.Add(nt.Triple{S: g("p6"), P: g("age"), O: dict.IntLit(52)})
	st.Add(nt.Triple{S: g("p6"), P: g("works"), O: g("c1")})
	st.Stats() // fold the writes into the published delta layer
	return st
}

func queryRows(t *testing.T, st *core.Store, q string) []string {
	t.Helper()
	res, err := st.Query(q, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Lexical())
		}
		rows = append(rows, b.String())
	}
	return rows
}

func sortedEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sortStrings(as)
	sortStrings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestGoldenFixture asserts long-term format compatibility: the
// committed fixture still opens, answers queries identically to a store
// rebuilt from source, and re-saves byte-exactly (so the serializer
// cannot silently drift while claiming the same version).
func TestGoldenFixture(t *testing.T) {
	if *update {
		st := buildGoldenStore(t)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(goldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to regenerate): %v", err)
	}

	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	opened, err := core.OpenStore(goldenPath, opts)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	// The fixture's delta traffic minted literals past the watermark: the
	// reopened dictionary must rebuild the overflow index over exactly
	// those.
	if err := opened.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if ord, ovf := opened.Dict().LiteralOrderCounts(); ord == 0 || ovf == 0 {
		t.Fatalf("fixture literal order: %d ordered, %d overflow; want both > 0", ord, ovf)
	}
	rebuilt := buildGoldenStore(t)
	for _, q := range goldenQueries {
		got := queryRows(t, opened, q)
		ref := queryRows(t, rebuilt, q)
		if !sortedEq(got, ref) {
			t.Errorf("query %s:\nfixture: %v\nrebuilt: %v", q, got, ref)
		}
	}

	// Byte-exact round-trip: open → save must reproduce the fixture.
	out := filepath.Join(t.TempDir(), "resave.srdf")
	if err := opened.Save(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved fixture differs: %d bytes vs %d (format drift without a version bump?)",
			len(got), len(want))
	}

	// And a freshly built store must still serialize to the same bytes.
	out2 := filepath.Join(t.TempDir(), "rebuild.srdf")
	if err := rebuilt.Save(out2); err != nil {
		t.Fatal(err)
	}
	got2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("rebuilt store serializes differently: %d bytes vs %d", len(got2), len(want))
	}
}

// TestGoldenUpdateOrderRows opens a snapshot laid out the way earlier
// writers of this version laid it out — the triples and the irregular
// residue in update order rather than SPO order. It must open, sorting
// each of the two sets once, answer every golden query exactly like the
// store it was saved from, and re-save in the current layout.
func TestGoldenUpdateOrderRows(t *testing.T) {
	st := buildGoldenStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "spo.srdf")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := storage.ReadFile(path, colstore.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	// both sets are saved in SPO order: reversed, neither is sorted
	reverse := func(tb *triples.Table) *triples.Table {
		out := triples.NewTable(tb.Len())
		for i := tb.Len() - 1; i >= 0; i-- {
			out.AppendTriple(tb.At(i))
		}
		return out
	}
	data, err := storage.MarshalRowOrder(snap, reverse)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "update-order.srdf")
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	builds0, _ := triples.ProjectionCounts(triples.SPO)
	opened, err := core.OpenStore(old, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer opened.Close()
	if b, _ := triples.ProjectionCounts(triples.SPO); b != builds0+2 {
		t.Fatalf("opening sorted %d SPO projections, want 2 (the triples and the residue)", b-builds0)
	}
	for _, q := range goldenQueries {
		if got, want := queryRows(t, opened, q), queryRows(t, st, q); !slices.Equal(got, want) {
			t.Errorf("query %s:\nupdate-order file: %v\nits source store: %v", q, got, want)
		}
	}
	resaved := filepath.Join(dir, "resaved.srdf")
	if err := opened.Save(resaved); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(resaved)
	want, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saving the update-order file gave %d bytes unlike the SPO-order save's %d", len(got), len(want))
	}
}

// TestGoldenPreviousVersion: a snapshot of format v3 (extra rows, hole
// bitmap and sort-disturbed flag beside the delta) yields the typed
// VersionError.
func TestGoldenPreviousVersion(t *testing.T) {
	data, err := os.ReadFile(prevPath)
	if err != nil {
		t.Fatal(err)
	}
	var ve *storage.VersionError
	if _, err := storage.Read(data, colstore.NewPool(0)); !errors.As(err, &ve) || ve.Got != 3 || ve.Want != storage.Version {
		t.Fatalf("v3 fixture: %v, want VersionError{Got: 3, Want: %d}", err, storage.Version)
	}
}

func isTypedSnapshotError(err error) bool {
	var ve *storage.VersionError
	var ce *storage.CorruptError
	return errors.Is(err, storage.ErrNotSnapshot) || errors.As(err, &ve) || errors.As(err, &ce)
}

// TestGoldenCorruption flips bytes across the fixture and truncates it
// at every prefix length: Read must never panic, and every error must be
// one of the typed snapshot errors.
func TestGoldenCorruption(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	pool := func() *colstore.BufferPool { return colstore.NewPool(0) }

	if _, err := storage.Read(nil, pool()); !errors.Is(err, storage.ErrNotSnapshot) {
		t.Fatalf("nil input: %v", err)
	}

	// Magic → ErrNotSnapshot; version → VersionError; any payload byte →
	// checksum CorruptError.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := storage.Read(bad, pool()); !errors.Is(err, storage.ErrNotSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[8] ^= 0xFF
	var ve *storage.VersionError
	if _, err := storage.Read(bad, pool()); !errors.As(err, &ve) {
		t.Fatalf("bad version: %v", err)
	}

	for off := 0; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x55
		_, err := storage.Read(bad, pool())
		if err != nil && !isTypedSnapshotError(err) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}

	for cut := 0; cut < len(data); cut++ {
		_, err := storage.Read(data[:cut], pool())
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !isTypedSnapshotError(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// FuzzSnapshotRead hammers the reader with mutated snapshots: it must
// never panic, and any error must be typed.
func FuzzSnapshotRead(f *testing.F) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(storage.Magic))
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := storage.Read(b, colstore.NewPool(0))
		if err != nil {
			if !isTypedSnapshotError(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		// An accepted snapshot must be fully decodable: force every lazy
		// segment through its decoder.
		if snap.Catalog != nil {
			for _, tb := range snap.Catalog.Tables {
				for _, c := range tb.Cols {
					c.Data.Values()
				}
			}
		}
	})
}
