package relational

import (
	"fmt"
	"strings"
	"testing"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/triples"
)

// build runs the full pipeline: parse, discover, cluster, materialize.
func build(t *testing.T, src string, minSupport int) (*Catalog, *triples.Table, *dict.Dictionary, *cs.Schema) {
	t.Helper()
	ts, err := nt.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatalf("turtle: %v", err)
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
	cat := BuildCatalog(tb, d, schema, inf, colstore.NewPool(0))
	return cat, tb, d, schema
}

const dblpSrc = `
@prefix ex: <http://dblp.example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:inproc1 a ex:inproceeding ; ex:creator ex:author3 , ex:author4 ; ex:title "AAA" ; ex:partOf ex:conf1 .
ex:inproc2 a ex:inproceeding ; ex:creator ex:author2 ; ex:title "BBB" ; ex:partOf ex:conf1 .
ex:inproc3 a ex:inproceeding ; ex:creator ex:author3 ; ex:title "CCC" ; ex:partOf ex:conf2 .
ex:conf1 a ex:Conference ; ex:title "conference1" ; ex:issued "2010"^^xsd:integer .
ex:conf2 a ex:Proceedings ; ex:title "conference2" ; ex:issued "2011"^^xsd:integer .
ex:webpage1 ex:url "index.php" .
ex:conf2 ex:seeAlso ex:webpage1 .
`

func TestCatalogTablesAndCells(t *testing.T) {
	cat, _, d, _ := build(t, dblpSrc, 3)
	tables := cat.Visible()
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	inproc := cat.ByName("inproceeding")
	if inproc == nil {
		t.Fatalf("table inproceeding missing; have %v %v", tables[0].Name, tables[1].Name)
	}
	if inproc.Count != 3 {
		t.Errorf("inproceeding rows = %d, want 3", inproc.Count)
	}
	title := inproc.ColByName("title")
	if title == nil {
		t.Fatal("title column missing")
	}
	got := map[string]bool{}
	titleVals := title.Data.Values()
	for i := 0; i < inproc.Count; i++ {
		v := titleVals[i]
		if v == dict.Nil {
			t.Errorf("title row %d NULL", i)
			continue
		}
		tm, _ := d.Term(v)
		got[tm.Value] = true
	}
	for _, want := range []string{"AAA", "BBB", "CCC"} {
		if !got[want] {
			t.Errorf("title %q missing: %v", want, got)
		}
	}
}

func TestCatalogFKResolution(t *testing.T) {
	cat, _, _, _ := build(t, dblpSrc, 3)
	inproc := cat.ByName("inproceeding")
	partOf := inproc.ColByName("partof")
	if partOf == nil {
		t.Fatal("partof column missing")
	}
	if partOf.FKTable == nil {
		t.Fatal("partof FK not resolved")
	}
	// every partOf value is a subject OID inside the FK table's range
	partOfVals := partOf.Data.Values()
	for i := 0; i < inproc.Count; i++ {
		v := partOfVals[i]
		if partOf.FKTable.RowOf(v) < 0 {
			t.Errorf("row %d FK value %v outside target table", i, v)
		}
	}
}

func TestIrregularResidual(t *testing.T) {
	cat, tb, d, _ := build(t, dblpSrc, 3)
	// webpage1's url triple is irregular
	if cat.IrregularIdx.Len() == 0 {
		t.Fatal("no irregular triples")
	}
	found := false
	for i := 0; i < cat.IrregularIdx.Len(); i++ {
		tm, _ := d.Term(cat.IrregularIdx.Triples().P[i])
		if dict.LocalName(tm.Value) == "url" {
			found = true
		}
	}
	if !found {
		t.Error("url triple not in irregular store")
	}
	// conservation: every table cell + link row + irregular row accounts
	// for exactly one input triple
	cells := 0
	for _, tab := range cat.Tables {
		for _, c := range tab.Cols {
			if c.Folded {
				continue // folded copies duplicate hidden-table data
			}
			cells += tab.Count - c.Data.NullCount()
		}
	}
	for _, lt := range cat.Links {
		cells += len(lt.Subj)
	}
	if cells+cat.IrregularIdx.Len() != tb.Len() {
		t.Errorf("cells %d + irregular %d != triples %d", cells, cat.IrregularIdx.Len(), tb.Len())
	}
}

func TestMultiValuedLinkTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "e:p%d e:title \"t%d\" ; e:author e:a1 , e:a2 , e:a3 , e:a4 .\n", i, i)
	}
	cat, _, _, _ := build(t, b.String(), 3)
	if len(cat.Links) != 1 {
		t.Fatalf("links = %d, want 1", len(cat.Links))
	}
	lt := cat.Links[0]
	if len(lt.Subj) != 24 || len(lt.Val) != 24 {
		t.Errorf("link rows = %d, want 24", len(lt.Subj))
	}
	// sorted by subject for merge joins
	for i := 1; i < len(lt.Subj); i++ {
		if lt.Subj[i] < lt.Subj[i-1] {
			t.Fatal("link table not subject-ordered")
		}
	}
	if !strings.Contains(lt.Name, "author") {
		t.Errorf("link name %q should mention the property", lt.Name)
	}
}

func TestOneToOneFolding(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "e:p%d e:name \"n%d\" ; e:addr _:a%d .\n", i, i, i)
		fmt.Fprintf(&b, "_:a%d e:street \"s%d\" ; e:city \"c%d\" .\n", i, i, i)
	}
	cat, _, d, _ := build(t, b.String(), 3)
	vis := cat.Visible()
	if len(vis) != 1 {
		t.Fatalf("visible tables = %d, want 1 (addresses folded)", len(vis))
	}
	persons := vis[0]
	street := persons.ColByName("addr_street")
	if street == nil {
		var names []string
		for _, c := range persons.Cols {
			names = append(names, c.Prop.Name)
		}
		t.Fatalf("folded addr_street column missing; have %v", names)
	}
	// row consistency: person n_i's street is s_i
	name := persons.ColByName("name")
	nameVals, streetVals := name.Data.Values(), street.Data.Values()
	for i := 0; i < persons.Count; i++ {
		nm, _ := d.Term(nameVals[i])
		st, _ := d.Term(streetVals[i])
		if strings.TrimPrefix(nm.Value, "n") != strings.TrimPrefix(st.Value, "s") {
			t.Errorf("row %d: name %q street %q misaligned", i, nm.Value, st.Value)
		}
	}
	// DDL hides the blank-node FK and the hidden table
	ddl := cat.DDL(d)
	if strings.Contains(ddl, "REFERENCES street") || strings.Count(ddl, "CREATE TABLE") != 1 {
		t.Errorf("DDL should contain exactly the persons table:\n%s", ddl)
	}
	if !strings.Contains(ddl, "addr_street") {
		t.Errorf("DDL missing folded column:\n%s", ddl)
	}
}

func TestDDLShape(t *testing.T) {
	cat, _, d, _ := build(t, dblpSrc, 3)
	ddl := cat.DDL(d)
	if strings.Count(ddl, "CREATE TABLE") != 2 {
		t.Errorf("DDL table count:\n%s", ddl)
	}
	if !strings.Contains(ddl, "REFERENCES") {
		t.Errorf("DDL missing FK clause:\n%s", ddl)
	}
	if !strings.Contains(ddl, "BIGINT") {
		t.Errorf("DDL missing typed column (issued BIGINT):\n%s", ddl)
	}
	if !strings.Contains(ddl, "PRIMARY KEY") {
		t.Errorf("DDL missing PK:\n%s", ddl)
	}
}

func TestDumpCSV(t *testing.T) {
	cat, _, d, _ := build(t, dblpSrc, 3)
	inproc := cat.ByName("inproceeding")
	csv := cat.DumpCSV(inproc, d, 0)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv lines = %d, want 4:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "id,") {
		t.Errorf("csv header: %q", lines[0])
	}
	csvLim := cat.DumpCSV(inproc, d, 2)
	if got := len(strings.Split(strings.TrimSpace(csvLim), "\n")); got != 3 {
		t.Errorf("limited csv lines = %d, want 3", got)
	}
}

// TestDumpCSVLiveRows deletes a clustered subject and adds two new ones,
// compacting in between: the dump lists the live clustered rows, then
// the sealed and the unsealed tail row, and never the deleted subject.
func TestDumpCSVLiveRows(t *testing.T) {
	cat, all, d, schema := build(t, dblpSrc, 3)
	ex := func(s string) dict.OID { return d.InternIRI("http://dblp.example.org/" + s) }
	rdfType := d.InternIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	write := func(drop, add dict.OID) {
		t.Helper()
		next := triples.NewTable(all.Len())
		for i := 0; i < all.Len(); i++ {
			if tr := all.At(i); tr.S != drop {
				next.AppendTriple(tr)
			}
		}
		next.Append(add, rdfType, ex("inproceeding"))
		next.Append(add, ex("creator"), ex("author2"))
		next.Append(add, ex("title"), d.Intern(dict.StringLit("new")))
		next.Append(add, ex("partOf"), ex("conf1"))
		all = next
		subjects := []dict.OID{add}
		if drop != dict.Nil {
			subjects = []dict.OID{min(drop, add), max(drop, add)}
		}
		cat = cat.CloneForWrite()
		if st := cat.ReassignSubjects(subjects, triples.Build(all, triples.SPO), schema); st.Matched != 1 {
			t.Fatalf("the new subject matched no table: %+v", st)
		}
	}
	write(ex("inproc2"), ex("inproc4"))
	cat.Compact(colstore.NewPool(0))
	write(dict.Nil, ex("inproc5"))

	inproc := cat.ByName("inproceeding")
	var ids []string
	for _, ln := range strings.Split(strings.TrimSpace(cat.DumpCSV(inproc, d, 0)), "\n")[1:] {
		ids = append(ids, strings.TrimPrefix(ln[:strings.IndexByte(ln, ',')], "http://dblp.example.org/"))
	}
	if got := strings.Join(ids, " "); got != "inproc1 inproc3 inproc4 inproc5" || inproc.LiveCount() != 4 {
		t.Fatalf("dumped %s (live count %d), want inproc1 inproc3 inproc4 inproc5", got, inproc.LiveCount())
	}
	if got := len(strings.Split(strings.TrimSpace(cat.DumpCSV(inproc, d, 3)), "\n")); got != 4 {
		t.Errorf("limited csv lines = %d, want 4", got)
	}
}

func TestStats(t *testing.T) {
	cat, _, _, _ := build(t, dblpSrc, 3)
	s := cat.Stats()
	if s.Tables != 2 || s.Rows != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.IrregularTriples == 0 {
		t.Error("stats should count irregular triples")
	}
}

func TestZoneMapOnSortedColumn(t *testing.T) {
	// build a table sub-ordered by date; its date column must be
	// physically ascending so zone maps are maximally selective.
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "e:o%d e:odate \"1996-%02d-%02d\"^^xsd:date ; e:total %d .\n",
			i, 1+(i*7)%12, 1+(i*13)%28, i)
	}
	cat, _, _, _ := build(t, b.String(), 3)
	tab := cat.Visible()[0]
	var dateCol *Col
	for _, c := range tab.Cols {
		if c.Prop.Name == "odate" {
			dateCol = c
		}
	}
	if dateCol == nil {
		t.Fatal("odate column missing")
	}
	dateVals := dateCol.Data.Values()
	for i := 1; i < tab.Count; i++ {
		if dateVals[i] < dateVals[i-1] {
			t.Fatalf("date column not ascending at %d", i)
		}
	}
	zm := dateCol.Data.Zones()
	if zm.NumBlocks() == 0 {
		t.Fatal("no zones")
	}
	min, max, ok := zm.Bounds()
	if !ok || min > max {
		t.Errorf("bounds %v %v %v", min, max, ok)
	}
}

func TestByNameHidesAbsorbed(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "e:p%d e:name \"n%d\" ; e:addr _:a%d .\n", i, i, i)
		fmt.Fprintf(&b, "_:a%d e:street \"s%d\" ; e:city \"c%d\" .\n", i, i, i)
	}
	cat, _, _, _ := build(t, b.String(), 3)
	for _, tab := range cat.Tables {
		if tab.Hidden && cat.ByName(tab.Name) != nil {
			t.Errorf("ByName returned hidden table %q", tab.Name)
		}
	}
}

// TestRowOfClusteredFirst checks RowOf on both sides of the invariant
// its lookup order relies on: a vacated clustered subject resolves to
// its tail row, a live one to s − Base, a subject added since Organize
// to its tail row, and a deleted one to nothing.
func TestRowOfClusteredFirst(t *testing.T) {
	const base, count = 100, 5
	c := colstore.NewColumn("v", count, nil)
	for i := 0; i < count; i++ {
		c.Set(i, dict.LiteralOID(uint64(i+1)))
	}
	c.Seal()
	tab := &Table{Name: "t", Base: base, Count: count, Cols: []*Col{{Prop: &cs.PropStat{Name: "v"}, Data: c}}}
	subj := func(i uint64) dict.OID { return dict.ResourceOID(base + i) }
	moved, added, deleted := subj(1), dict.ResourceOID(900), subj(3)
	tab.vacate(moved)
	tab.appendDeltaRow(moved, []dict.OID{dict.LiteralOID(50)})
	tab.appendDeltaRow(added, []dict.OID{dict.LiteralOID(51)})
	tab.vacate(deleted)
	for s, want := range map[dict.OID]int{
		subj(0): 0, subj(2): 2, subj(4): 4, // live clustered rows
		moved:                     count,
		added:                     count + 1,
		deleted:                   -1,
		subj(count):               -1, // past the run
		dict.Nil:                  -1,
		dict.LiteralOID(base + 2): -1, // a literal with a subject's payload
	} {
		if got := tab.RowOf(s); got != want {
			t.Errorf("RowOf(%v) = %d, want %d", s, got, want)
		}
	}
}
