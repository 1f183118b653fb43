package exec

import (
	"math/bits"
	"slices"

	"srdf/internal/colstore"
	"srdf/internal/dict"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

// FKJoinOp is the paper's RDFjoin (§II-C), the RDFscan variant that
// "does the same, but receiving a stream of candidate subjects". Subject
// clustering makes row i of a CS table subject Base+i, so a foreign key
// into the table is a row number and the join is a positional fetch —
// MonetDB's fetch join — with neither a sort nor a hash build.
//
// The outer side streams. Per outer batch the join resolves every key
// to its row with Table.RowOf, groups the rows by block, and runs the
// inner star over each block through the scan's own selectBlock, seeded
// with just those rows: zone-map pruning, the ranked kernels, overflow
// literals, pins and page touches are the scan's. It then emits the
// outer rows whose inner row survived, in outer order, straight into
// the consumer's batch.
//
// Keys without a live row in the table are dropped, unless Idx is set:
// then they, and subjects with triples in the irregular store, are
// answered by point lookups over the full index, so the star stays
// exact when another table covers it too or residual triples exist.
// Object variables the outer side already binds are compared, not
// emitted again.
type FKJoinOp struct {
	Left     Operator
	KeyVar   string
	Table    *relational.Table
	Star     Star
	UseZones bool
	Idx      *triples.IndexSet

	vars []string
	// fromLeft/fromGot map each output column to its outer column or to
	// its column of got (-1: the other one); eq pairs a got column with
	// the outer column that already binds its variable.
	fromLeft, fromGot []int
	eq                [][2]int

	ctx   *Ctx
	inner ScanOp
	ready bool // the table has rows that can qualify
	irr   *triples.Projection
	in    *Batch
	key   int // KeyVar's column in in
	// sealedBlocks is the number of sealed blocks; a row's key is its
	// block<<blockShift | offset, tail blocks numbered after them.
	sealedBlocks int
	// Per outer batch: keys/idx are the block keys and logical outer
	// rows of the resolved rows, grouped by block with the help of
	// tk/ti. got holds the star's values of each block's distinct rows,
	// block after block and ascending within one, followed by the index
	// fallback's rows. Logical outer row i matches got rows
	// [lo[i],hi[i]).
	keys, idx, tk, ti []int32
	lo, hi            []int32
	fallback          []int32 // outer rows the full index answers
	hit               [BatchRows]bool
	got               *Rel
	blkCnt            []int32
	views             [][]dict.OID
	// The resume cursor: logical outer row j emits got row k next (-1:
	// from its first).
	j, k int
	done bool
}

// blockShift splits a block key into block and offset; the index
// below fails to compile unless a block holds 1<<blockShift rows.
const blockShift = 10

var _ = [1]struct{}{}[1<<blockShift-colstore.BlockRows]

// NewFKJoinOp joins left's keyVar column against the subjects of star
// over t; idx, when non-nil, is the full index of the fallback lookups.
func NewFKJoinOp(left Operator, keyVar string, t *relational.Table, star Star, useZones bool, idx *triples.IndexSet) *FKJoinOp {
	f := &FKJoinOp{Left: left, KeyVar: keyVar, Table: t, Star: star, UseZones: useZones, Idx: idx}
	lv := left.Vars()
	f.vars = append([]string{}, lv...)
	for c := range lv {
		f.fromLeft, f.fromGot = append(f.fromLeft, c), append(f.fromGot, -1)
	}
	oc := 0
	for i := range star.Props {
		v := star.Props[i].ObjVar
		if v == "" {
			continue
		}
		if li := slices.Index(lv, v); li >= 0 {
			f.eq = append(f.eq, [2]int{oc, li})
		} else {
			f.vars = append(f.vars, v)
			f.fromLeft, f.fromGot = append(f.fromLeft, -1), append(f.fromGot, oc)
		}
		oc++
	}
	return f
}

func (f *FKJoinOp) Vars() []string { return f.vars }

func (f *FKJoinOp) Open(ctx *Ctx) error {
	f.ctx = ctx
	f.done = true
	f.inner = ScanOp{Table: f.Table, Star: f.Star, UseZones: f.UseZones, RowHi: -1}
	f.ready = f.inner.start(ctx)
	sealed := f.Table.SealedRows()
	f.sealedBlocks = (sealed + colstore.BlockRows - 1) / colstore.BlockRows
	tailBlocks := (f.Table.DeltaLen() + colstore.BlockRows - 1) / colstore.BlockRows
	objs := f.Star.Vars()[1:]
	// the block counts and the per-batch vectors are the join's whole
	// state, however long the outer side
	if err := ctx.Mem.Grow(4*int64(f.sealedBlocks+tailBlocks+1) + BatchRows*int64(6*4+1+8*len(objs))); err != nil {
		ctx.Fail(err)
		return err
	}
	if err := f.Left.Open(ctx); err != nil {
		return err
	}
	f.key = slices.Index(f.Left.Vars(), f.KeyVar)
	if f.key < 0 {
		return nil
	}
	if f.Idx != nil && ctx.Cat != nil && ctx.Cat.IrregularIdx.Len() > 0 {
		f.irr = ctx.Cat.IrregularIdx.Get(triples.SPO)
	}
	f.blkCnt = make([]int32, f.sealedBlocks+tailBlocks+1)
	f.keys, f.idx, f.tk, f.ti = selBlocks.get(), selBlocks.get(), selBlocks.get(), selBlocks.get()
	f.lo, f.hi = selBlocks.get(), selBlocks.get()
	f.got = &Rel{Vars: objs, Cols: make([][]dict.OID, len(objs))}
	for c := range f.got.Cols {
		f.got.Cols[c] = oidBlocks.get()
	}
	f.views = make([][]dict.OID, len(objs))
	f.in = NewBatch(f.Left.Vars())
	f.j, f.done = 0, false
	return nil
}

// load pulls the next outer batch and joins it, leaving its matches in
// got and lo/hi; it reports false at the end of the outer side.
func (f *FKJoinOp) load() bool {
	f.in.Reset()
	if !f.Left.Next(f.in) {
		return false
	}
	n := f.in.Len()
	keys, idx := f.tk[:0], f.ti[:0]
	f.fallback = f.fallback[:0]
	sealed := f.Table.SealedRows()
	for i := 0; i < n; i++ {
		f.lo[i], f.hi[i] = 0, 0
		s := f.in.At(f.key, i)
		r := -1
		if f.ready {
			r = f.Table.RowOf(s)
		}
		if f.Idx != nil && (r < 0 || f.irregular(s)) {
			f.fallback = append(f.fallback, int32(i))
			continue
		}
		if r < 0 {
			continue
		}
		k := r
		if r >= sealed {
			k = f.sealedBlocks<<blockShift + r - sealed
		}
		keys, idx = append(keys, int32(k)), append(idx, int32(i))
	}
	m := len(keys)
	byBlock(f.keys[:m], f.idx[:m], keys, idx, f.blkCnt)
	g := f.probe(m) // got's rows, which a star without object variables has no column to count
	for _, i := range f.fallback {
		sub := LookupStarSubject(f.ctx, f.Idx, f.in.At(f.key, int(i)), f.Star)
		for c := range f.got.Cols {
			f.got.Cols[c] = append(f.got.Cols[c], sub.Cols[1+c]...) // col 0 is the subject
		}
		f.lo[i], f.hi[i] = int32(g), int32(g+sub.Len())
		g += sub.Len()
	}
	f.j, f.k = 0, -1
	return true
}

// irregular reports that s has triples in the irregular store: the table
// holds first values only, so overflow values of multi-valued properties
// live there, and only the full index answers such a subject exactly.
func (f *FKJoinOp) irregular(s dict.OID) bool {
	if f.irr == nil {
		return false
	}
	lo, hi := f.irr.Range1(s)
	return hi > lo
}

// byBlock is a stable counting sort of the block keys sk (with their
// payloads si) into dk/di by block, using cnt (one more entry than
// there are blocks) as the counters.
func byBlock(dk, di, sk, si, cnt []int32) {
	clear(cnt)
	for _, k := range sk {
		cnt[k>>blockShift+1]++
	}
	for b := 1; b < len(cnt); b++ {
		cnt[b] += cnt[b-1]
	}
	for j, k := range sk {
		w := &cnt[k>>blockShift]
		dk[*w], di[*w] = k, si[j]
		*w++
	}
}

// probe runs the inner star over the blocks of keys[:m], grouped by
// block, one block at a time: a bitmap of the block's offsets yields
// them ascending and without duplicates, seeds the block's selection
// with them and ranks each key among them. It gathers the survivors'
// values into got, sets lo/hi of the outer rows whose row survived,
// and returns the number of got rows.
func (f *FKJoinOp) probe(m int) int {
	s := &f.inner
	s.region(true, 0, f.Table.SealedRows())
	for c := range f.got.Cols {
		f.got.Cols[c] = f.got.Cols[c][:BatchRows]
	}
	const words = colstore.BlockRows / 64
	nu := 0
	for a := 0; a < m; {
		blk := int(f.keys[a] >> blockShift)
		b := a + 1
		for b < m && int(f.keys[b]>>blockShift) == blk {
			b++
		}
		if blk >= f.sealedBlocks {
			if s.sealed {
				s.region(false, 0, f.Table.DeltaLen())
			}
			blk -= f.sealedBlocks
		}
		var seen [words]uint64
		for _, k := range f.keys[a:b] {
			o := k & (1<<blockShift - 1)
			seen[o>>6] |= 1 << (o & 63)
		}
		// rank(o) is offset o's got row: the first got row of o's word
		// plus the offsets below o in it
		var first [words]int32
		sel := s.sc.sel[:0]
		for w, bs := range seen {
			first[w] = int32(nu + len(sel))
			for ; bs != 0; bs &= bs - 1 {
				sel = append(sel, int32(w<<6+bits.TrailingZeros64(bs)))
			}
		}
		rank := func(o int32) int32 {
			return first[o>>6] + int32(bits.OnesCount64(seen[o>>6]&(1<<(o&63)-1)))
		}
		clear(f.hit[nu : nu+len(sel)])
		nu += len(sel)
		s.sc.sel = sel
		s.pinBlock(blk)
		if sel, all, wlo, whi := s.selectBlock(blk, &s.sc, true); all || len(sel) > 0 {
			sel = s.sc.sel
			oc := 0
			for pi := range s.props {
				if s.Star.Props[pi].ObjVar != "" {
					f.views[oc] = s.blockView(&s.sc, blk, pi, oc, wlo, whi, sel)
					oc++
				}
			}
			for _, k := range sel {
				u := rank(k)
				f.hit[u] = true
				for c, v := range f.views {
					f.got.Cols[c][u] = v[k]
				}
			}
		}
		s.unpinBlock(blk)
		for j := a; j < b; j++ {
			if u := rank(f.keys[j] & (1<<blockShift - 1)); f.hit[u] {
				f.lo[f.idx[j]], f.hi[f.idx[j]] = u, u+1
			}
		}
		a = b
	}
	for c := range f.got.Cols {
		f.got.Cols[c] = f.got.Cols[c][:nu]
	}
	return nu
}

// Next appends the matches of the next outer rows to b until it is
// full, resuming inside an outer row whose matches did not fit last
// time.
func (f *FKJoinOp) Next(b *Batch) bool {
	for !f.done && !b.Full() {
		if f.j == f.in.Len() {
			if !f.load() {
				f.done = true
			}
			continue
		}
		// the match pairs (got row, physical outer row) of this fill
		rows, at := f.tk[:0], f.ti[:0]
		room := BatchRows - b.Len()
		for f.j < f.in.Len() && len(rows) < room {
			p := f.j
			if f.in.Sel != nil {
				p = int(f.in.Sel[p])
			}
			if f.k < 0 {
				f.k = int(f.lo[f.j])
			}
			for ; f.k < int(f.hi[f.j]) && len(rows) < room; f.k++ {
				if f.bound(p, f.k) {
					rows, at = append(rows, int32(f.k)), append(at, int32(p))
				}
			}
			if f.k < int(f.hi[f.j]) {
				break // b is full: resume inside row j
			}
			f.j, f.k = f.j+1, -1
		}
		gatherPairs(b, f.got, f.fromGot, rows, f.in, f.fromLeft, at)
	}
	return b.Len() > 0
}

// bound reports that got row g agrees with physical outer row p on
// every object variable the outer side binds.
func (f *FKJoinOp) bound(p, g int) bool {
	for _, e := range f.eq {
		if f.got.Cols[e[0]][g] != f.in.Cols[e[1]][p] {
			return false
		}
	}
	return true
}

func (f *FKJoinOp) Close() {
	f.inner.Close()
	f.Left.Close()
	for _, b := range [][]int32{f.keys, f.idx, f.tk, f.ti, f.lo, f.hi} {
		selBlocks.put(b)
	}
	if f.got != nil {
		for _, c := range f.got.Cols {
			oidBlocks.put(c)
		}
	}
	f.keys, f.idx, f.tk, f.ti, f.lo, f.hi, f.got = nil, nil, nil, nil, nil, nil, nil
}
