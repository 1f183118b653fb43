package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/dict"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

// joinVars is the output schema of every join: the left variables,
// then the right ones the left lacks.
func joinVars(left, right []string) []string {
	out := append([]string(nil), left...)
	for _, v := range right {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// refHashJoin is the nested-loop reference of HashJoinOp: the probe
// rows in order, each followed by the build rows that agree with it on
// every shared variable, in build order. Nil equals Nil, as in the
// operator.
func refHashJoin(left, right *Rel, buildLeft bool) *Rel {
	out := NewRel(joinVars(left.Vars, right.Vars)...)
	probe, build := left, right
	if buildLeft {
		probe, build = right, left
	}
	var pk, bk []int
	for bi, v := range build.Vars {
		if pi := probe.ColIdx(v); pi >= 0 {
			pk, bk = append(pk, pi), append(bk, bi)
		}
	}
	row := make([]dict.OID, len(out.Vars))
	for p := 0; p < probe.Len(); p++ {
	build:
		for r := 0; r < build.Len(); r++ {
			for k := range pk {
				if probe.Cols[pk[k]][p] != build.Cols[bk[k]][r] {
					continue build
				}
			}
			for c, v := range out.Vars {
				if bi := build.ColIdx(v); bi >= 0 {
					row[c] = build.Cols[bi][r]
				} else {
					row[c] = probe.Cols[probe.ColIdx(v)][p]
				}
			}
			out.AppendRow(row...)
		}
	}
	return out
}

// refFKJoin is the nested-loop reference of FKJoinOp: each outer row,
// in input order, extended by its key's live row of tab — found by a
// linear search over the rows — when every property holds there. With
// the full index (foreign non-nil), a key without a live row or with a
// triple in irregular is extended instead by the cross product of its
// matching values among foreign, in property order. An object variable
// the outer row binds must agree with it and is not repeated.
func refFKJoin(in *Rel, keyVar string, tab *relational.Table, star Star, foreign, irregular []triples.Triple) *Rel {
	out := NewRel(joinVars(in.Vars, star.Vars())...)
	ki := in.ColIdx(keyVar)
	idx := make([]int, len(star.Props))
	for i := range star.Props {
		idx[i] = tab.ColIndex(star.Props[i].Pred)
	}
	for i := 0; i < in.Len(); i++ {
		s := in.Cols[ki][i]
		live := -1
		for r := 0; r < tab.NumRows(); r++ {
			if tab.SubjectOID(r) == s && !tab.Del.Get(r) {
				live = r
			}
		}
		lookup := foreign != nil && (live < 0 || slices.ContainsFunc(irregular, func(tr triples.Triple) bool { return tr.S == s }))
		if !lookup && live < 0 {
			continue
		}
		// per property, the values the row or the foreign triples offer
		vals := make([][]dict.OID, len(star.Props))
		for pi := range star.Props {
			p := &star.Props[pi]
			if !lookup {
				if v := tab.Value(idx[pi], live); v != dict.Nil && p.matches(v) {
					vals[pi] = []dict.OID{v}
				}
				continue
			}
			for _, tr := range foreign {
				if tr.S == s && tr.P == p.Pred && p.matches(tr.O) && !slices.Contains(vals[pi], tr.O) {
					vals[pi] = append(vals[pi], tr.O)
				}
			}
			slices.Sort(vals[pi])
		}
		var rec func(pi int, row []dict.OID)
		rec = func(pi int, row []dict.OID) {
			if pi == len(star.Props) {
				out.AppendRow(row...)
				return
			}
			for _, v := range vals[pi] {
				switch ov := star.Props[pi].ObjVar; {
				case ov == "":
					rec(pi+1, row)
				case in.ColIdx(ov) >= 0:
					if v == in.Cols[in.ColIdx(ov)][i] {
						rec(pi+1, row)
					}
				default:
					rec(pi+1, append(row, v))
				}
			}
		}
		rec(0, in.Row(i, nil))
	}
	return out
}

// joinFixture is a synthetic CS table pair for the join tests: the
// same clustered run of count subjects from base, with tombstones and
// NULL cells, alone (clustered) and followed by a tail (withTail) of
// moved subjects — tombstoned clustered rows re-homed — and foreign
// ones, partly sealed and partly unsealed. foreign holds the triples of
// the full index: subjects outside both tables, as a second covering
// table's would be, and every triple of a few clustered subjects that
// also have an overflow value in the irregular store (irregular).
type joinFixture struct {
	base      uint64
	count     int
	pa, pb    dict.OID
	clustered *relational.Table
	withTail  *relational.Table
	tail      []dict.OID
	foreign   []triples.Triple
	irregular []triples.Triple
	fullIdx   *triples.IndexSet
	cat       *relational.Catalog // holds the irregular store
}

func newJoinFixture(tb testing.TB) *joinFixture {
	rng := rand.New(rand.NewSource(42))
	f := &joinFixture{base: 5000, count: 3*colstore.BlockRows + 10,
		pa: dict.ResourceOID(900001), pb: dict.ResourceOID(900002)}
	va, vb := make([]dict.OID, f.count), make([]dict.OID, f.count)
	for i := range va {
		if i%11 != 5 {
			va[i] = dict.LiteralOID(uint64(1 + i/7)) // ascending runs
		}
		if rng.Intn(8) != 0 {
			vb[i] = dict.LiteralOID(uint64(1 + rng.Intn(20)))
		}
	}
	del := &relational.Bitmap{}
	var moved []dict.OID
	for r := 3; r < f.count; r += 37 {
		del.Set(r)
		if len(moved) < 60 {
			moved = append(moved, dict.ResourceOID(f.base+uint64(r)))
		}
	}
	f.clustered = synthTable(tb, "join", f.base, f.count, nil, 0, del, map[dict.OID][]dict.OID{f.pa: va, f.pb: vb})

	// the tail: moved subjects and foreign ones, shuffled; the last 45
	// rows stay unsealed, and a few sealed tail rows are tombstoned
	f.tail = append([]dict.OID(nil), moved...)
	for k := 0; k < 40; k++ {
		f.tail = append(f.tail, dict.ResourceOID(uint64(100000+k)))
	}
	rng.Shuffle(len(f.tail), func(i, j int) { f.tail[i], f.tail[j] = f.tail[j], f.tail[i] })
	const unsealed = 45
	tdel := &relational.Bitmap{}
	for r := 0; r < f.count; r++ {
		if del.Get(r) {
			tdel.Set(r)
		}
	}
	for r := f.count + 2; r < f.count+len(f.tail)-unsealed; r += 9 {
		tdel.Set(r)
	}
	wa, wb := append([]dict.OID(nil), va...), append([]dict.OID(nil), vb...)
	for range f.tail {
		a, b := dict.LiteralOID(uint64(1+rng.Intn(400))), dict.LiteralOID(uint64(1+rng.Intn(20)))
		if rng.Intn(6) == 0 {
			a = dict.Nil
		}
		wa, wb = append(wa, a), append(wb, b)
	}
	f.withTail = synthTable(tb, "join", f.base, f.count, f.tail, unsealed, tdel, map[dict.OID][]dict.OID{f.pa: wa, f.pb: wb})

	tt, irr := triples.NewTable(0), triples.NewTable(0)
	add := func(tr triples.Triple) {
		f.foreign = append(f.foreign, tr)
		tt.AppendTriple(tr)
	}
	for k := 0; k < 4; k++ {
		s := dict.ResourceOID(uint64(200000 + k))
		for j := 0; j <= k; j++ { // subject k has k+1 values of pa
			add(triples.Triple{S: s, P: f.pa, O: dict.LiteralOID(uint64(10 + 3*j))})
		}
		add(triples.Triple{S: s, P: f.pb, O: dict.LiteralOID(uint64(1 + k))})
	}
	// live clustered rows of both tables whose pa has a second value
	for _, r := range []int{10, 600, 2050} {
		s := dict.ResourceOID(f.base + uint64(r))
		for pred, v := range map[dict.OID]dict.OID{f.pa: va[r], f.pb: vb[r]} {
			if v != dict.Nil {
				add(triples.Triple{S: s, P: pred, O: v})
			}
		}
		ovf := triples.Triple{S: s, P: f.pa, O: dict.LiteralOID(uint64(5 + r%3))}
		add(ovf)
		f.irregular = append(f.irregular, ovf)
		irr.AppendTriple(ovf)
	}
	f.fullIdx = triples.NewIndexSet(tt)
	f.cat = &relational.Catalog{IrregularIdx: triples.NewIndexSet(irr)}
	return f
}

// outerRel builds the outer relation (x, o): o is the join key, x the
// row's input position, so a result shows which outer row it came from.
func outerRel(keys []dict.OID) *Rel {
	rel := NewRel("x", "o")
	for i, k := range keys {
		rel.AppendRow(dict.LiteralOID(uint64(i+1)), k)
	}
	return rel
}

// outerKeys returns the named outer key multisets: every key kind a
// join must handle, in no particular order.
func (f *joinFixture) outerKeys(rng *rand.Rand) map[string][]dict.OID {
	sub := func(r int) dict.OID { return dict.ResourceOID(f.base + uint64(r)) }
	mixed := []dict.OID{
		dict.Nil, dict.ResourceOID(1), dict.ResourceOID(f.base - 1), // below Base
		sub(f.count), dict.ResourceOID(f.base + uint64(f.count) + 5), // at and past Base+Count
		dict.LiteralOID(f.base + 7), dict.LiteralOID(3), // literals, one with a subject's payload
		sub(3), sub(40), // tombstoned rows
		dict.ResourceOID(200001), dict.ResourceOID(200003), // foreign subjects
		sub(10), sub(600), sub(2050), // with an overflow value
	}
	for i := 0; i < 400; i++ {
		mixed = append(mixed, sub(rng.Intn(f.count)))
	}
	for i := 0; i < 100; i++ {
		mixed = append(mixed, mixed[rng.Intn(len(mixed))]) // duplicates
	}
	mixed = append(mixed, f.tail[:20]...) // moved and foreign tail subjects
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })

	spread := []dict.OID{sub(f.count - 1), sub(0), sub(f.count / 2), sub(f.count - 1)}

	heavy := []dict.OID{sub(8)} // one key with more than BatchRows rows
	for i := 0; i < BatchRows+300; i++ {
		heavy = append(heavy, sub(7))
	}
	heavy = append(heavy, sub(9), sub(6), sub(7))

	return map[string][]dict.OID{
		"mixed": mixed, "spread": spread, "heavy": heavy,
		"none-in-window": {dict.Nil, dict.LiteralOID(4), dict.ResourceOID(f.base - 1)},
		"empty":          nil,
	}
}

func (f *joinFixture) stars() map[string]Star {
	return map[string]Star{
		"presence": {SubjVar: "o", Props: []StarProp{{Pred: f.pa, ObjVar: "a"}, {Pred: f.pb, ObjVar: "b"}}},
		"range": {SubjVar: "o", Props: []StarProp{
			{Pred: f.pb, ObjVar: "b", HasRange: true, Lo: dict.LiteralOID(3), Hi: dict.LiteralOID(12)},
			{Pred: f.pa, ObjVar: "a"},
		}},
		"const": {SubjVar: "o", Props: []StarProp{{Pred: f.pb, ObjConst: dict.LiteralOID(5)}, {Pred: f.pa, ObjVar: "a"}}},
		// literals past the watermark N: blocks whose zone max passes it
		// take the overflow test
		"overflow": {SubjVar: "o", Props: []StarProp{
			{Pred: f.pa, ObjVar: "a", HasRange: true, Lo: dict.LiteralOID(100), Hi: dict.LiteralOID(200),
				N: dict.LiteralOID(420), Over: []dict.OID{dict.LiteralOID(430), dict.LiteralOID(437)}},
			{Pred: f.pb, ObjVar: "b"},
		}},
		// x is bound by the outer side (its input position)
		"bound": {SubjVar: "o", Props: []StarProp{{Pred: f.pa, ObjVar: "x"}, {Pred: f.pb, ObjVar: "b"}}},
	}
}

// keyRels builds a left and a right relation sharing nk key variables
// over a key domain of dom values (Nil included; dom 1 is Nil alone), with n and m rows.
func keyRels(rng *rand.Rand, nk, dom, n, m int) (*Rel, *Rel) {
	key := func() dict.OID {
		if v := rng.Intn(dom); v > 0 {
			return dict.ResourceOID(uint64(v))
		}
		return dict.Nil
	}
	lv, rv := []string{}, []string{}
	for k := 0; k < nk; k++ {
		lv, rv = append(lv, fmt.Sprintf("k%d", k)), append(rv, fmt.Sprintf("k%d", k))
	}
	l, r := NewRel(append(lv, "l")...), NewRel(append([]string{"r"}, rv...)...)
	for i := 0; i < n; i++ {
		row := []dict.OID{}
		for k := 0; k < nk; k++ {
			row = append(row, key())
		}
		l.AppendRow(append(row, dict.LiteralOID(uint64(i+1)))...)
	}
	for i := 0; i < m; i++ {
		row := []dict.OID{dict.LiteralOID(uint64(i + 1))}
		for k := 0; k < nk; k++ {
			row = append(row, key())
		}
		r.AppendRow(row...)
	}
	return l, r
}

func checkRel(t *testing.T, what string, got, want *Rel) {
	t.Helper()
	if !slices.Equal(got.Vars, want.Vars) {
		t.Fatalf("%s: vars %v, want %v", what, got.Vars, want.Vars)
	}
	if !relsEqual(got, want) {
		t.Errorf("%s: got %d rows, want %d (or the same rows in another order)", what, got.Len(), want.Len())
	}
}

// TestJoinParity checks FKJoinOp and HashJoinOp (building either side)
// against nested-loop references, comparing row sequences, not sets.
// The outer keys repeat, fall below Base and at or past Base+Count, are
// literals or Nil, name tombstoned rows, moved and foreign tail
// subjects, subjects with an overflow value in the irregular store,
// spread over the whole table, or repeat one key more than BatchRows
// times so output resumes across batches. The inner table is the
// clustered run alone or followed by sealed, unsealed and tombstoned
// tail rows, and the FK join runs with and without the full index. The
// hash join also runs 0- to 3-key joins over small key domains, so
// chains are long and slots collide, and empty build and probe sides.
func TestJoinParity(t *testing.T) {
	f := newJoinFixture(t)
	rng := rand.New(rand.NewSource(7))
	ctx := &Ctx{Cat: f.cat}
	tables := map[string]*relational.Table{"clustered": f.clustered, "tail": f.withTail}
	for kname, keys := range f.outerKeys(rng) {
		outer := outerRel(keys)
		for sname, star := range f.stars() {
			for tname, tab := range tables {
				inner := refScan(tab, star, nil, 0, -1)
				for _, buildLeft := range []bool{true, false} {
					want := refHashJoin(outer, inner, buildLeft)
					got := Drain(ctx, NewHashJoinOp(NewRelSource(outer), NewScanOp(tab, star, true, 0, -1), buildLeft))
					checkRel(t, fmt.Sprintf("hash %s %s %s buildLeft=%v", kname, sname, tname, buildLeft), got, want)
				}
				for _, full := range []bool{false, true} {
					var idx *triples.IndexSet
					var foreign, irregular []triples.Triple
					if full {
						idx, foreign, irregular = f.fullIdx, f.foreign, f.irregular
					}
					want := refFKJoin(outer, "o", tab, star, foreign, irregular)
					for _, zones := range []bool{false, true} {
						got := Drain(ctx, NewFKJoinOp(NewRelSource(outer), "o", tab, star, zones, idx))
						checkRel(t, fmt.Sprintf("fk %s %s %s full=%v zones=%v", kname, sname, tname, full, zones), got, want)
					}
				}
			}
		}
	}
	for nk := 0; nk <= 3; nk++ {
		for _, sz := range [][3]int{{5, 300, 200}, {3, 40, 1500}, {40, 0, 50}, {40, 50, 0}, {1, 2, BatchRows + 100}} {
			n, m := sz[1], sz[2]
			if nk == 0 {
				n, m = min(n, 40), min(m, 60)
			}
			l, r := keyRels(rng, nk, sz[0], n, m)
			for _, buildLeft := range []bool{true, false} {
				got := Drain(ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(r), buildLeft))
				checkRel(t, fmt.Sprintf("hash %d keys over %d values, %dx%d, buildLeft=%v", nk, sz[0], n, m, buildLeft),
					got, refHashJoin(l, r, buildLeft))
			}
		}
	}
}

// TestFKJoinMemBudget checks that the FK join charges its state to the
// query's budget, and that the state does not grow with the outer side:
// a budget too small for the drained outer side still joins it, and one
// too small for the state fails the join with ErrMemBudget.
func TestFKJoinMemBudget(t *testing.T) {
	f := newJoinFixture(t)
	keys := make([]dict.OID, 40000)
	for i := range keys {
		keys[i] = dict.ResourceOID(f.base + uint64(i%f.count))
	}
	outer := NewRel("o")
	outer.Cols[0] = keys
	star := f.stars()["presence"]
	want := refFKJoin(outer, "o", f.withTail, star, nil, nil)
	ctx := (&Ctx{}).WithQueryContext(context.Background())
	ctx.Mem = NewMemAccountant(8 * int64(len(keys)) / 2) // half the drained keys
	op := NewFKJoinOp(NewRelSource(outer), "o", f.withTail, star, true, nil)
	out := NewRel(op.Vars()...)
	if err := op.Open(ctx); err != nil {
		t.Fatalf("Open = %v", err)
	}
	b := NewBatch(op.Vars())
	for b.Reset(); op.Next(b); b.Reset() {
		b.AppendToCols(out.Cols)
	}
	op.Close()
	checkRel(t, "fk under budget", out, want)

	ctx = (&Ctx{}).WithQueryContext(context.Background())
	ctx.Mem = NewMemAccountant(1024)
	op = NewFKJoinOp(NewRelSource(outer), "o", f.withTail, star, true, nil)
	if err := op.Open(ctx); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("Open = %v, want ErrMemBudget", err)
	}
	op.Close()
	if !errors.Is(ctx.ExecErr(), ErrMemBudget) {
		t.Fatalf("ExecErr = %v, want ErrMemBudget", ctx.ExecErr())
	}
}

// FuzzJoinKernels drives random outer key multisets — with duplicates,
// Nil, literals, tail subjects and keys outside the table — through the
// FK join, with and without the full index, and the hash join against
// the table scan, and random 0- to 3-key relations through the hash
// join, each checked against its nested-loop reference.
func FuzzJoinKernels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 9, 9, 9, 200}, []byte{1, 2, 3}, uint8(1))
	f.Add([]byte{255, 7, 7, 0, 130, 3}, []byte{}, uint8(2))
	f.Add([]byte{}, []byte{5, 5, 5, 5, 0, 1, 2}, uint8(3))
	jf := newJoinFixture(f)
	stars := jf.stars()
	names := []string{"bound", "const", "overflow", "presence", "range"}
	f.Fuzz(func(t *testing.T, outerBytes, buildBytes []byte, pick uint8) {
		// a byte pair is a key: its first byte picks the kind, the pair
		// a row of the table
		keys := make([]dict.OID, 0, len(outerBytes)/2)
		for i := 0; i+1 < len(outerBytes); i += 2 {
			row := (int(outerBytes[i])<<8 | int(outerBytes[i+1])) % (jf.count + 2)
			switch outerBytes[i] % 16 {
			case 0:
				keys = append(keys, dict.Nil)
			case 1:
				keys = append(keys, dict.LiteralOID(jf.base+uint64(row)))
			case 2:
				keys = append(keys, dict.ResourceOID(jf.base-1-uint64(row%4)))
			case 3:
				keys = append(keys, jf.tail[row%len(jf.tail)])
			default: // rows past count lie past the table
				keys = append(keys, dict.ResourceOID(jf.base+uint64(row)))
			}
		}
		outer := outerRel(keys)
		star := stars[names[int(pick)%len(names)]]
		ctx := &Ctx{Cat: jf.cat}
		tab := jf.clustered
		if pick&64 != 0 {
			tab = jf.withTail
		}
		idx, foreign, irregular := (*triples.IndexSet)(nil), []triples.Triple(nil), []triples.Triple(nil)
		if pick&128 != 0 {
			idx, foreign, irregular = jf.fullIdx, jf.foreign, jf.irregular
		}
		got := Drain(ctx, NewFKJoinOp(NewRelSource(outer), "o", tab, star, pick&4 != 0, idx))
		checkRel(t, "fk", got, refFKJoin(outer, "o", tab, star, foreign, irregular))
		inner := refScan(tab, star, nil, 0, -1)
		for _, buildLeft := range []bool{true, false} {
			got := Drain(ctx, NewHashJoinOp(NewRelSource(outer), NewScanOp(tab, star, true, 0, -1), buildLeft))
			checkRel(t, "hash scan", got, refHashJoin(outer, inner, buildLeft))
		}
		// the relation join: outer bytes are the left rows, build bytes
		// the right ones, each byte one key column value mod 5
		nk := int(pick>>3) % 4
		l, r := keyRels(rand.New(rand.NewSource(0)), nk, 1, 0, 0)
		limit := 600
		if nk == 0 {
			limit = 40 // a cross product
		}
		fill := func(rel *Rel, bs []byte, keyFirst bool) {
			for i := 0; i+nk <= len(bs) && i < limit; i += max(nk, 1) {
				row := []dict.OID{}
				for k := 0; k < nk; k++ {
					row = append(row, dict.OID(bs[i+k]%5))
				}
				tag := dict.LiteralOID(uint64(i + 1))
				if keyFirst {
					rel.AppendRow(append(row, tag)...)
				} else {
					rel.AppendRow(append([]dict.OID{tag}, row...)...)
				}
			}
		}
		fill(l, outerBytes, true)
		fill(r, buildBytes, false)
		for _, buildLeft := range []bool{true, false} {
			got := Drain(ctx, NewHashJoinOp(NewRelSource(l), NewRelSource(r), buildLeft))
			checkRel(t, fmt.Sprintf("hash %d keys", nk), got, refHashJoin(l, r, buildLeft))
		}
	})
}
