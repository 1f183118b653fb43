package exec

import (
	"fmt"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/relational"
)

// relRows renders a relation as sorted row strings for order-insensitive
// comparison.
func relRows(r *Rel) []string {
	rows := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		var b strings.Builder
		for _, c := range r.Cols {
			fmt.Fprintf(&b, "%d ", c[i])
		}
		rows[i] = b.String()
	}
	return rows
}

func relEqualOrdered(t *testing.T, got, want *Rel, label string) {
	t.Helper()
	if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
		t.Fatalf("%s: vars %v != %v", label, got.Vars, want.Vars)
	}
	g, w := relRows(got), relRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d: %q != %q", label, i, g[i], w[i])
		}
	}
}

// bigSrc builds a multi-block CS: n subjects with three properties.
func bigSrc(n int) string {
	var b strings.Builder
	b.WriteString("@prefix e: <http://b/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e:s%05d e:a %d ; e:b %d ; e:c e:s%05d .\n", i, i%997, i%89, (i+1)%n)
	}
	return b.String()
}

func bigTable(t testing.TB, f *fixture) *relational.Table {
	t.Helper()
	for _, tt := range f.cat.Visible() {
		if tt.Col(f.pred("http://b/a")) != nil {
			return tt
		}
	}
	t.Fatal("no covering table")
	return nil
}

func TestScanOpMatchesRDFScan(t *testing.T) {
	f := newFixture(t, bigSrc(3000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: f.pred("http://b/b"), ObjVar: "vb"},
	}}
	tab := bigTable(t, f)
	want := RDFScan(f.ctx, tab, star, false, 0, -1)
	got := Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))
	relEqualOrdered(t, got, want, "full scan")

	// row window + zones
	want = RDFScan(f.ctx, tab, star, true, 100, 2500)
	got = Drain(f.ctx, NewScanOp(tab, star, true, 100, 2500))
	relEqualOrdered(t, got, want, "windowed scan")
}

func TestScanOpMissingColumnIsEmpty(t *testing.T) {
	f := newFixture(t, bigSrc(2000), 3)
	tab := bigTable(t, f)
	// a predicate with no column in the table (a subject OID is never a
	// column predicate): must stream empty, like RDFScan, not panic
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: tab.SubjectOID(0), ObjVar: "vx"},
	}}
	want := RDFScan(f.ctx, tab, star, true, 0, -1)
	got := Drain(f.ctx, NewScanOp(tab, star, true, 0, -1))
	if want.Len() != 0 || got.Len() != 0 {
		t.Fatalf("rows = %d streamed, %d materialized; want 0", got.Len(), want.Len())
	}
}

func TestScanOpParallelMatchesSequential(t *testing.T) {
	f := newFixture(t, bigSrc(9000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: f.pred("http://b/b"), ObjVar: "vb"},
	}}
	tab := bigTable(t, f)
	want := Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))

	pctx := *f.ctx
	pctx.Parallelism = 4
	got := Drain(&pctx, NewScanOp(tab, star, false, 0, -1))
	relEqualOrdered(t, got, want, "parallel scan")
}

func TestScanOpParallelEarlyClose(t *testing.T) {
	f := newFixture(t, bigSrc(9000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{{Pred: f.pred("http://b/a"), ObjVar: "va"}}}
	tab := bigTable(t, f)
	pctx := *f.ctx
	pctx.Parallelism = 4
	op := NewScanOp(tab, star, false, 0, -1)
	if err := op.Open(&pctx); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(op.Vars())
	if !op.Next(b) || b.Len() == 0 {
		t.Fatal("no first batch")
	}
	op.Close() // must not deadlock or leak workers
}

func TestDefaultStarOpMatchesDefaultStar(t *testing.T) {
	f := newFixture(t, bigSrc(3000), 3)
	aPred := f.pred("http://b/a")
	c13, ok := f.d.Lookup(dict.IntLit(13))
	if !ok {
		t.Fatal("no literal 13")
	}
	for name, star := range map[string]Star{
		"plain": {SubjVar: "s", Props: []StarProp{
			{Pred: aPred, ObjVar: "va"},
			{Pred: f.pred("http://b/b"), ObjVar: "vb"},
		}},
		"const-seed": {SubjVar: "s", Props: []StarProp{
			{Pred: aPred, ObjConst: c13},
			{Pred: f.pred("http://b/b"), ObjVar: "vb"},
		}},
		"range": {SubjVar: "s", Props: []StarProp{
			{Pred: aPred, ObjVar: "va", HasRange: true, Lo: 1, Hi: dict.LiteralOID(uint64(f.d.NumLiterals()))},
			{Pred: f.pred("http://b/b"), ObjVar: "vb"},
		}},
	} {
		want := DefaultStar(f.ctx, star, f.idx)
		got := Drain(f.ctx, NewDefaultStarOp(star, f.idx))
		// DefaultStar's column order follows the seed choice; compare in
		// the op's declared order.
		aligned := NewRel(star.Vars()...)
		for i, v := range aligned.Vars {
			aligned.Cols[i] = want.Cols[want.ColIdx(v)]
		}
		relEqualOrdered(t, got, aligned, name)
	}
}

func TestHashJoinOpMatchesHashJoin(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	l := NewRel("a", "b")
	l.AppendRow(dict.ResourceOID(1), dict.ResourceOID(10))
	l.AppendRow(dict.ResourceOID(2), dict.ResourceOID(20))
	l.AppendRow(dict.ResourceOID(3), dict.ResourceOID(30))
	r := NewRel("b", "c")
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(100))
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(101))
	r.AppendRow(dict.ResourceOID(30), dict.ResourceOID(300))
	for _, buildLeft := range []bool{true, false} {
		op := NewHashJoinOp(NewRelSource(l), NewRelSource(r), buildLeft)
		got := Drain(f.ctx, op)
		if got.Len() != 3 {
			t.Fatalf("buildLeft=%v: rows = %d, want 3", buildLeft, got.Len())
		}
		if strings.Join(got.Vars, ",") != "a,b,c" {
			t.Fatalf("buildLeft=%v: vars %v", buildLeft, got.Vars)
		}
		// every output row must be a valid combination
		for i := 0; i < got.Len(); i++ {
			b, c := got.Cols[1][i], got.Cols[2][i]
			if (b == dict.ResourceOID(10)) != (c == dict.ResourceOID(100) || c == dict.ResourceOID(101)) {
				t.Fatalf("buildLeft=%v: bad row b=%v c=%v", buildLeft, b, c)
			}
		}
	}
	// cross product when no shared vars
	x := NewRel("z")
	x.AppendRow(dict.ResourceOID(7))
	x.AppendRow(dict.ResourceOID(8))
	cp := Drain(f.ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(x), false))
	if cp.Len() != 6 {
		t.Errorf("cross product rows = %d, want 6", cp.Len())
	}
}

func TestUnionOpAlignsColumnsByName(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	a := NewRel("x", "y")
	a.AppendRow(dict.ResourceOID(1), dict.ResourceOID(2))
	b := NewRel("y", "x")
	b.AppendRow(dict.ResourceOID(20), dict.ResourceOID(10))
	u := Drain(f.ctx, NewUnionOp([]string{"x", "y"}, NewRelSource(a), NewRelSource(b)))
	if u.Len() != 2 {
		t.Fatalf("union rows = %d", u.Len())
	}
	if u.Cols[0][1] != dict.ResourceOID(10) || u.Cols[1][1] != dict.ResourceOID(20) {
		t.Errorf("column alignment: %v %v", u.Cols[0][1], u.Cols[1][1])
	}
}

func TestLazyOpIsNotEvaluatedWithoutPull(t *testing.T) {
	calls := 0
	op := NewLazyOp([]string{"x"}, func(*Ctx) *Rel {
		calls++
		return NewRel("x")
	})
	if err := op.Open(nil); err != nil {
		t.Fatal(err)
	}
	op.Close()
	if calls != 0 {
		t.Fatalf("lazy op evaluated %d times without a pull", calls)
	}
	b := NewBatch(op.Vars())
	if op.Next(b) {
		t.Fatal("empty lazy op produced rows")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestStreamLimitStopsScanEarly(t *testing.T) {
	f := newFixture(t, bigSrc(5000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: f.pred("http://b/b"), ObjVar: "vb"},
	}}
	tab := bigTable(t, f)

	full := func() uint64 {
		f.pool.ResetCold()
		f.pool.ResetStats()
		_ = Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))
		return f.pool.Stats().Misses
	}()

	f.pool.ResetCold()
	f.pool.ResetStats()
	op := NewScanOp(tab, star, false, 0, -1)
	if err := op.Open(f.ctx); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(op.Vars())
	if !op.Next(b) {
		t.Fatal("no rows")
	}
	op.Close()
	limited := f.pool.Stats().Misses
	if limited >= full {
		t.Fatalf("early-terminated scan touched %d pages, full scan %d", limited, full)
	}
}

// TestScanOpReopenAfterEarlyClose checks the scan's one-owner, one-release
// contract: a scan closed before exhaustion returns its block scratch;
// another scan then reuses (and overwrites) those blocks; the first,
// re-opened, still streams exactly the rows of an uninterrupted drain.
// Closing twice must not hand a block to the free list twice.
func TestScanOpReopenAfterEarlyClose(t *testing.T) {
	f := newFixture(t, bigSrc(9000), 3)
	tab := bigTable(t, f)
	aPred, bPred := f.pred("http://b/a"), f.pred("http://b/b")
	lo, _ := f.d.Lookup(dict.IntLit(100))
	hi, _ := f.d.Lookup(dict.IntLit(300))
	stars := map[string]Star{
		"dense": {SubjVar: "s", Props: []StarProp{{Pred: aPred, ObjVar: "va"}, {Pred: bPred, ObjVar: "vb"}}},
		"selective": {SubjVar: "s", Props: []StarProp{
			{Pred: aPred, ObjVar: "va", HasRange: true, Lo: lo, Hi: hi}, {Pred: bPred, ObjVar: "vb"}}},
	}
	for name, star := range stars {
		for _, par := range []int{1, 2} {
			ctx := *f.ctx
			ctx.Parallelism = par
			want := Drain(&ctx, NewScanOp(tab, star, true, 0, -1))
			if want.Len() == 0 {
				t.Fatalf("%s: empty scan", name)
			}

			op := NewScanOp(tab, star, true, 0, -1)
			if err := op.Open(&ctx); err != nil {
				t.Fatal(err)
			}
			b := NewBatch(op.Vars())
			if !op.Next(b) || b.Len() == 0 {
				t.Fatalf("%s par=%d: no first batch", name, par)
			}
			first := b.CopyRel()
			op.Close()
			op.Close()
			// the double Close returned each block once: the free list
			// never hands one block to two takers
			seen := map[*int32]bool{}
			var taken [][]int32
			for i := 0; i < 4; i++ {
				blk := selBlocks.get()
				if seen[&blk[0]] {
					t.Fatalf("%s par=%d: a selection block was handed out twice", name, par)
				}
				seen[&blk[0]] = true
				taken = append(taken, blk)
			}
			for _, blk := range taken {
				selBlocks.put(blk)
			}
			// another owner takes the released blocks and writes them
			other := Star{SubjVar: "s", Props: []StarProp{{Pred: bPred, ObjVar: "vb"}, {Pred: aPred, ObjVar: "va"}}}
			Drain(&ctx, NewScanOp(tab, other, false, 0, -1))

			got := Drain(&ctx, op) // re-opens
			relEqualOrdered(t, got, want, fmt.Sprintf("%s par=%d re-opened", name, par))
			prefix := &Rel{Vars: want.Vars, Cols: make([][]dict.OID, len(want.Cols))}
			for i := range prefix.Cols {
				prefix.Cols[i] = want.Cols[i][:first.Len()]
			}
			relEqualOrdered(t, first, prefix, fmt.Sprintf("%s par=%d first batch", name, par))
		}
	}
}
