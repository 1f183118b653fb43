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

// synthTable builds a standalone CS table from raw value vectors
// (dict.Nil = NULL), bypassing the organize pipeline so scans can be
// tested against exact per-block layouts. Rows past count are tail rows
// of the given subjects: the last unsealed of them stay unsealed, the
// others are sealed with the clustered run, as Compact leaves them. del
// tombstones sealed rows.
func synthTable(tb testing.TB, name string, base uint64, count int, tail []dict.OID, unsealed int,
	del *relational.Bitmap, cols map[dict.OID][]dict.OID) *relational.Table {
	tb.Helper()
	t := &relational.Table{Name: name, Base: base, Count: count}
	sealed := count + len(tail) - unsealed
	var delta [][]dict.OID
	for pred, vals := range cols {
		c := colstore.NewColumn(name, sealed, nil)
		for i, v := range vals[:sealed] {
			if v != dict.Nil {
				c.Set(i, v)
			}
		}
		c.Seal()
		t.Cols = append(t.Cols, &relational.Col{
			Prop: &cs.PropStat{Pred: pred, Name: name},
			Data: c,
		})
		delta = append(delta, vals[sealed:])
	}
	if err := t.RestoreTail(tail, del, unsealed, delta); err != nil {
		tb.Fatal(err)
	}
	return t
}

// refScan is the row-at-a-time reference the selection-vector scan must
// match exactly: the live sealed rows of the [rowLo,rowHi) window, then
// every unsealed row, each read through Table.Value, tested against
// every property and then every bloom.
func refScan(t *relational.Table, star Star, blooms []ScanBloom, rowLo, rowHi int) *Rel {
	sealed := t.SealedRows()
	if rowHi < 0 || rowHi > sealed {
		rowHi = sealed
	}
	idx := make([]int, len(star.Props))
	for i := range star.Props {
		idx[i] = t.ColIndex(star.Props[i].Pred)
	}
	rel := NewRel(star.Vars()...)
	row := make([]dict.OID, 0, len(rel.Vars))
	scan := func(r int) {
		if t.Del.Get(r) {
			return
		}
		row = append(row[:0], t.SubjectOID(r))
		for i := range star.Props {
			v := t.Value(idx[i], r)
			if v == dict.Nil || !star.Props[i].matches(v) {
				return
			}
			if star.Props[i].ObjVar != "" {
				row = append(row, v)
			}
		}
		for _, b := range blooms {
			k := row[0]
			if b.Prop >= 0 {
				k = t.Value(idx[b.Prop], r)
			}
			if !b.H.Filter().MayContain(k) {
				return
			}
		}
		rel.AppendRow(row...)
	}
	for r := max(rowLo, 0); r < rowHi; r++ {
		scan(r)
	}
	for r := sealed; r < t.NumRows(); r++ {
		scan(r)
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
// without zone maps. A second table adds tombstones and a tail: sealed
// rows past the clustered run and unsealed rows after them, with NULL
// cells and overflow members past the range's watermark, scanned with
// bloom filters on the subject and on an object column, and through a
// window that leaves the sealed region empty.
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
	clustered := synthTable(t, "synth", 1, n, nil, 0, nil, map[dict.OID][]dict.OID{pa: va, pb: vb})

	// The tail: sealedTail rows sealed past the run, then unsealed rows,
	// with subjects outside the run's range in no particular order. Its
	// cells mix NULLs, prefix values and overflow literals past N.
	const sealedTail, unsealed = colstore.BlockRows + 37, 2*colstore.BlockRows + 5
	watermark := dict.LiteralOID(500)
	over := []dict.OID{dict.LiteralOID(1000), dict.LiteralOID(1003)}
	tail := make([]dict.OID, sealedTail+unsealed)
	for i, k := range rng.Perm(len(tail)) {
		tail[i] = dict.ResourceOID(uint64(100000 + k))
	}
	wa, wb := append([]dict.OID(nil), va...), append([]dict.OID(nil), vb...)
	cell := func() dict.OID {
		switch rng.Intn(10) {
		case 0:
			return dict.Nil
		case 1, 2:
			return dict.LiteralOID(uint64(1000 + rng.Intn(5)))
		}
		return dict.LiteralOID(uint64(1 + rng.Intn(40)))
	}
	for range tail {
		wa, wb = append(wa, cell()), append(wb, cell())
	}
	del := &relational.Bitmap{}
	for r := 3; r < n+sealedTail; r += 50 {
		del.Set(r)
	}
	withTail := synthTable(t, "synth", 1, n, tail, unsealed, del, map[dict.OID][]dict.OID{pa: wa, pb: wb})

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
		"range-with-overflow": {SubjVar: "s", Props: []StarProp{
			{Pred: pb, ObjVar: "b"},
			{Pred: pa, ObjVar: "a", HasRange: true, Lo: dict.LiteralOID(5), Hi: dict.LiteralOID(20),
				N: watermark, Over: over},
		}},
	}
	// bloom filters over every third subject and the object values up to 12
	subjects, objects := NewBloomFilter(len(tail)), NewBloomFilter(12)
	for r := 0; r < withTail.NumRows(); r += 3 {
		subjects.Add(withTail.SubjectOID(r))
	}
	for v := 1; v <= 12; v++ {
		objects.Add(dict.LiteralOID(uint64(v)))
	}
	hs, ho := &BloomHandle{Var: "s"}, &BloomHandle{Var: "b"}
	hs.publish(subjects)
	ho.publish(objects)
	bloomSets := map[string][]ScanBloom{
		"none":    nil,
		"subject": {{H: hs, Prop: -1}},
		"object":  {{H: ho, Prop: 0}},
	}
	windows := [][2]int{{0, -1}, {13, 2*colstore.BlockRows + 5}, {colstore.BlockRows, colstore.BlockRows + 1},
		{2 * colstore.BlockRows, n + sealedTail - 3}, {7, 7}}
	for tname, tab := range map[string]*relational.Table{"clustered": clustered, "tail": withTail} {
		for name, star := range stars {
			for bname, blooms := range bloomSets {
				if bname == "object" && star.Props[0].Pred != pb {
					continue // the object bloom keys on pb as the star's first property
				}
				for _, w := range windows {
					want := refScan(tab, star, blooms, w[0], w[1])
					for _, zones := range []bool{false, true} {
						op := NewScanOp(tab, star, zones, w[0], w[1])
						op.Blooms = blooms
						got := Drain(&Ctx{}, op)
						if !relsEqual(got, want) {
							t.Errorf("%s %s blooms=%s window=%v zones=%v: got %d rows, want %d",
								tname, name, bname, w, zones, got.Len(), want.Len())
						}
					}
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
