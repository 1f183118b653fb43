package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

func TestScanOpMissingColumnIsEmpty(t *testing.T) {
	f := newFixture(t, bigSrc(2000), 3)
	tab := bigTable(t, f)
	// a predicate with no column in the table (a subject OID is never a
	// column predicate): must stream empty, not panic
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: tab.SubjectOID(0), ObjVar: "vx"},
	}}
	if got := Drain(f.ctx, NewScanOp(tab, star, true, 0, -1)); got.Len() != 0 {
		t.Fatalf("rows = %d, want 0", got.Len())
	}
}

// TestScanOpParallelMatchesSequential runs scans of one table from
// several goroutines at once, as concurrent queries do: they share the
// table's pinned blocks and the scratch free lists, and each must stream
// exactly the rows, in order, of a scan run alone.
func TestScanOpParallelMatchesSequential(t *testing.T) {
	f := newFixture(t, bigSrc(9000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: f.pred("http://b/a"), ObjVar: "va"},
		{Pred: f.pred("http://b/b"), ObjVar: "vb"},
	}}
	tab := bigTable(t, f)
	want := Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))
	got := make([]*Rel, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Drain(f.ctx, NewScanOp(tab, star, i%2 == 0, 0, -1))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		relEqualOrdered(t, g, want, fmt.Sprintf("concurrent scan %d", i))
	}
}

// TestScanOpParallelEarlyClose closes scans after their first batch
// while other scans of the same table drain it: an early Close must
// release its pins and scratch without disturbing the others.
func TestScanOpParallelEarlyClose(t *testing.T) {
	f := newFixture(t, bigSrc(9000), 3)
	star := Star{SubjVar: "s", Props: []StarProp{{Pred: f.pred("http://b/a"), ObjVar: "va"}}}
	tab := bigTable(t, f)
	want := Drain(f.ctx, NewScanOp(tab, star, false, 0, -1))
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				op := NewScanOp(tab, star, false, 0, -1)
				if i%2 == 1 {
					if got := Drain(f.ctx, op); got.Len() != want.Len() {
						errs <- fmt.Errorf("drain %d: %d rows, want %d", i, got.Len(), want.Len())
						return
					}
					continue
				}
				if err := op.Open(f.ctx); err != nil {
					errs <- err
					return
				}
				b := NewBatch(op.Vars())
				if !op.Next(b) || b.Len() == 0 || b.At(0, 0) != want.Cols[0][0] {
					errs <- fmt.Errorf("scan %d: wrong first batch", i)
					return
				}
				op.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDefaultStarOpMatchesDefaultStar checks the two plan families
// against each other: the Default family's self-joins over the index
// projections and the RDFscan of the star's CS table bind the same rows.
func TestDefaultStarOpMatchesDefaultStar(t *testing.T) {
	f := newFixture(t, bigSrc(3000), 3)
	tab := bigTable(t, f)
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
		got := Drain(f.ctx, NewDefaultStarOp(star, f.idx))
		want := Drain(f.ctx, NewScanOp(tab, star, true, 0, -1))
		if want.Len() == 0 {
			t.Fatalf("%s: empty scan", name)
		}
		if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
			t.Fatalf("%s: vars %v, scan %v", name, got.Vars, want.Vars)
		}
		g, w := relRows(got), relRows(want)
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("%s: Default family %d rows, RDFscan %d rows, or different rows", name, len(g), len(w))
		}
	}
}

// TestHashJoinOpMatchesHashJoin checks the hash join, built on either
// side, against a nested-loop join of the same inputs.
func TestHashJoinOpMatchesHashJoin(t *testing.T) {
	f := newFixture(t, shopSrc, 3)
	l := NewRel("a", "b")
	l.AppendRow(dict.ResourceOID(1), dict.ResourceOID(10))
	l.AppendRow(dict.ResourceOID(2), dict.ResourceOID(20))
	l.AppendRow(dict.ResourceOID(3), dict.ResourceOID(30))
	l.AppendRow(dict.ResourceOID(4), dict.ResourceOID(10))
	r := NewRel("b", "c")
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(100))
	r.AppendRow(dict.ResourceOID(10), dict.ResourceOID(101))
	r.AppendRow(dict.ResourceOID(30), dict.ResourceOID(300))
	r.AppendRow(dict.ResourceOID(40), dict.ResourceOID(400))
	want := NewRel("a", "b", "c")
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			if l.Cols[1][i] == r.Cols[0][j] {
				want.AppendRow(l.Cols[0][i], l.Cols[1][i], r.Cols[1][j])
			}
		}
	}
	w := relRows(want)
	sort.Strings(w)
	for _, buildLeft := range []bool{true, false} {
		got := Drain(f.ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(r), buildLeft))
		if strings.Join(got.Vars, ",") != "a,b,c" {
			t.Fatalf("buildLeft=%v: vars %v", buildLeft, got.Vars)
		}
		g := relRows(got)
		sort.Strings(g)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("buildLeft=%v: rows %q, want %q", buildLeft, g, w)
		}
	}
	// cross product when no shared vars
	x := NewRel("z")
	x.AppendRow(dict.ResourceOID(7))
	x.AppendRow(dict.ResourceOID(8))
	cp := Drain(f.ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(x), false))
	if cp.Len() != 8 {
		t.Errorf("cross product rows = %d, want 8", cp.Len())
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
		want := Drain(f.ctx, NewScanOp(tab, star, true, 0, -1))
		if want.Len() == 0 {
			t.Fatalf("%s: empty scan", name)
		}

		op := NewScanOp(tab, star, true, 0, -1)
		if err := op.Open(f.ctx); err != nil {
			t.Fatal(err)
		}
		b := NewBatch(op.Vars())
		if !op.Next(b) || b.Len() == 0 {
			t.Fatalf("%s: no first batch", name)
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
				t.Fatalf("%s: a selection block was handed out twice", name)
			}
			seen[&blk[0]] = true
			taken = append(taken, blk)
		}
		for _, blk := range taken {
			selBlocks.put(blk)
		}
		// another owner takes the released blocks and writes them
		other := Star{SubjVar: "s", Props: []StarProp{{Pred: bPred, ObjVar: "vb"}, {Pred: aPred, ObjVar: "va"}}}
		Drain(f.ctx, NewScanOp(tab, other, false, 0, -1))

		got := Drain(f.ctx, op) // re-opens
		relEqualOrdered(t, got, want, fmt.Sprintf("%s re-opened", name))
		prefix := &Rel{Vars: want.Vars, Cols: make([][]dict.OID, len(want.Cols))}
		for i := range prefix.Cols {
			prefix.Cols[i] = want.Cols[i][:first.Len()]
		}
		relEqualOrdered(t, first, prefix, fmt.Sprintf("%s first batch", name))
	}
}
