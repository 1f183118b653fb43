package exec

import (
	"math/rand"
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/relational"
	"srdf/internal/sparql"
)

// synthTable builds a standalone CS table with sealed columns from raw
// value vectors (dict.Nil = NULL), bypassing the organize pipeline so
// scans can be tested against exact per-block layouts.
func synthTable(name string, base uint64, cols map[dict.OID][]dict.OID) *relational.Table {
	t := &relational.Table{Name: name, Base: base}
	for pred, vals := range cols {
		t.Count = len(vals)
		c := colstore.NewColumn(name, len(vals), nil)
		for i, v := range vals {
			if v != dict.Nil {
				c.Set(i, v)
			}
		}
		c.Seal()
		t.Cols = append(t.Cols, &relational.Col{
			Prop: &cs.PropStat{Pred: pred, Name: name},
			Data: c,
		})
	}
	return t
}

// refScan is the row-at-a-time reference the selection-vector scan must
// match exactly.
func refScan(t *relational.Table, star Star, rowLo, rowHi int) *Rel {
	if rowHi < 0 || rowHi > t.Count {
		rowHi = t.Count
	}
	if rowLo < 0 {
		rowLo = 0
	}
	cols := make([][]dict.OID, len(star.Props))
	for i := range star.Props {
		cols[i] = t.Col(star.Props[i].Pred).Data.Values()
	}
	rel := NewRel(star.Vars()...)
	row := make([]dict.OID, 0, len(rel.Vars))
	for r := rowLo; r < rowHi; r++ {
		ok := true
		for i := range cols {
			v := cols[i][r]
			if v == dict.Nil || !star.Props[i].matches(v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row = row[:0]
		row = append(row, t.SubjectOID(r))
		for i := range cols {
			if star.Props[i].ObjVar != "" {
				row = append(row, cols[i][r])
			}
		}
		rel.AppendRow(row...)
	}
	return rel
}

func relsEqual(a, b *Rel) bool {
	if a.Len() != b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		for i := range a.Cols[c] {
			if a.Cols[c][i] != b.Cols[c][i] {
				return false
			}
		}
	}
	return true
}

// TestScanSelectionParity drives the compressed-segment scan through
// equality, range, presence and windowed shapes — including predicates
// straddling block boundaries, all-NULL blocks and a single-row tail —
// and checks row-identical output against the reference scan, with and
// without zone maps.
func TestScanSelectionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 3*colstore.BlockRows + 1 // ragged single-row tail block
	pa, pb := dict.ResourceOID(900001), dict.ResourceOID(900002)
	va := make([]dict.OID, n) // RLE-ish: sorted runs; block 1 all NULL
	vb := make([]dict.OID, n) // dict/plain-ish: scattered low-cardinality with NULLs
	for i := range va {
		if i/colstore.BlockRows == 1 {
			continue // all-NULL block
		}
		va[i] = dict.LiteralOID(uint64(1 + i/97))
	}
	for i := range vb {
		if rng.Intn(10) == 0 {
			continue // NULL
		}
		vb[i] = dict.LiteralOID(uint64(1 + rng.Intn(30)))
	}
	tab := synthTable("synth", 1, map[dict.OID][]dict.OID{pa: va, pb: vb})

	straddle := dict.LiteralOID(uint64(1 + (colstore.BlockRows-1)/97)) // run crossing block 0→... boundary region
	stars := map[string]Star{
		"presence": {SubjVar: "s", Props: []StarProp{
			{Pred: pa, ObjVar: "a"}, {Pred: pb, ObjVar: "b"},
		}},
		"eq": {SubjVar: "s", Props: []StarProp{
			{Pred: pa, ObjConst: straddle},
			{Pred: pb, ObjVar: "b"},
		}},
		"range-straddling-blocks": {SubjVar: "s", Props: []StarProp{
			{Pred: pa, ObjVar: "a", HasRange: true,
				Lo: dict.LiteralOID(uint64(colstore.BlockRows/97 - 1)), Hi: dict.LiteralOID(uint64(2*colstore.BlockRows/97 + 2))},
		}},
		"selective-eq": {SubjVar: "s", Props: []StarProp{
			{Pred: pb, ObjVar: "b", ObjConst: dict.LiteralOID(7)},
		}},
		"empty-range": {SubjVar: "s", Props: []StarProp{
			{Pred: pa, ObjVar: "a", HasRange: true, Lo: 1, Hi: 0},
		}},
	}
	windows := [][2]int{{0, -1}, {13, 2*colstore.BlockRows + 5}, {colstore.BlockRows, colstore.BlockRows + 1}}
	for name, star := range stars {
		for _, w := range windows {
			want := refScan(tab, star, w[0], w[1])
			for _, zones := range []bool{false, true} {
				got := Drain(&Ctx{}, NewScanOp(tab, star, zones, w[0], w[1]))
				if !relsEqual(got, want) {
					t.Errorf("%s window=%v zones=%v: got %d rows, want %d",
						name, w, zones, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestBatchSelViews exercises the selection-vector batch contract:
// lent views, logical accessors, gathers, and Reset reclaiming owned
// arrays.
func TestBatchSelViews(t *testing.T) {
	b := NewBatch([]string{"x", "y"})
	x := []dict.OID{10, 11, 12, 13}
	y := []dict.OID{20, 21, 22, 23}
	b.SetViews([]int32{1, 3}, x, y)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if b.At(0, 0) != 11 || b.At(1, 1) != 23 {
		t.Fatalf("At through Sel wrong: %v %v", b.At(0, 0), b.At(1, 1))
	}
	rel := b.CopyRel()
	if rel.Len() != 2 || rel.Cols[0][0] != 11 || rel.Cols[1][1] != 23 {
		t.Fatalf("CopyRel = %+v", rel.Cols)
	}
	b.Materialize()
	if b.Sel != nil || b.Len() != 2 || b.Cols[0][1] != 13 {
		t.Fatalf("Materialize wrong: sel=%v cols=%v", b.Sel, b.Cols)
	}
	if &b.Cols[0][0] == &x[1] {
		t.Fatal("Materialize left a borrowed view in place")
	}
	// dense views (no Sel) append bulk
	b.Reset()
	b.SetViews(nil, x, y)
	out := NewRel("x", "y")
	b.AppendToCols(out.Cols)
	if out.Len() != 4 || out.Cols[1][2] != 22 {
		t.Fatalf("dense AppendToCols = %+v", out.Cols)
	}
	// Reset must restore owned arrays: appends may not write into views
	b.Reset()
	b.AppendRow(1, 2)
	if x[0] != 10 || b.Cols[0][0] != 1 {
		t.Fatal("Reset did not reclaim owned arrays")
	}
}

// TestFilterOpSelection checks the streaming selection-vector filter
// over both a dense source and a view-lending scan (selection composed
// on selection) against the hand-picked matching products.
func TestFilterOpSelection(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	star := shopStar(f)
	q, err := sparql.Parse(`PREFIX e: <http://s/> SELECT ?s WHERE { ?s e:price ?p . FILTER (?p > 25 && ?p != 40) }`)
	if err != nil {
		t.Fatal(err)
	}
	var tab *relational.Table
	for _, tt := range f.cat.Visible() {
		if tt.Count == 5 {
			tab = tt
		}
	}
	if tab == nil {
		t.Fatal("product table not found")
	}
	// price > 25 && price != 40: p3 (30) and p5 (50)
	want := NewRel(star.Vars()...)
	all := Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))
	for i := 0; i < all.Len(); i++ {
		if s, _ := f.d.Term(all.Cols[0][i]); s.Value == "http://s/p3" || s.Value == "http://s/p5" {
			want.AppendRow(all.Row(i, nil)...)
		}
	}
	// dense source: filter over a materialized relation stream
	dense := Drain(f.ctx, NewFilterOp(NewRelSource(Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))), q.Filters[0]))
	if !relsEqual(dense, want) {
		t.Errorf("dense filter: got %d rows, want %d", dense.Len(), want.Len())
	}
	// view source: filter composes its selection onto the scan's views
	lazy := Drain(f.ctx, NewFilterOp(NewScanOp(tab, star, false, 0, -1), q.Filters[0]))
	if !relsEqual(lazy, want) {
		t.Errorf("scan filter: got %d rows, want %d", lazy.Len(), want.Len())
	}
	if want.Len() != 2 {
		t.Errorf("filter rows = %d, want 2", want.Len())
	}
}
