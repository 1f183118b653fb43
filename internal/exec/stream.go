package exec

import (
	"srdf/internal/colstore"
	"srdf/internal/dict"
	"srdf/internal/fault"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// ScanOp is the paper's RDFscan operator (§II-C): it "delivers a tuple
// stream for multiple properties in one go" from the aligned columns of
// one CS table, so the star needs no self-joins. It walks the table
// block by block (the zone-map granularity), pruning blocks and touching
// pages only as the consumer pulls — so a satisfied LIMIT stops the scan
// before the later blocks are ever faulted in.
//
// Predicates are evaluated by the column predicate kernels directly on
// the compressed segments (RLE answers equality in O(runs), FOR blocks
// prune on min/max before touching packed words). Per block, the first
// property that needs testing builds one selection vector and every
// later property refines it in place, so a property tests only the rows
// the earlier ones let through; Open orders the properties most
// selective first. A property whose zone shows every row of the block
// passing is skipped for that block. The surviving rows are emitted as a
// selection vector over zero-copy decoded block views, so rejected rows
// are never copied — consumers gather through Batch.Sel only at
// materialization points.
//
// A table is its sealed rows (the clustered run, then the tail rows
// Compact sealed) followed by its unsealed tail rows, and the scan walks
// both regions with the one per-block loop: after the last sealed block
// it reads the unsealed cells as flat blocks of BlockRows rows through
// the same kernels, overflow test, bloom pass and views. Zone maps,
// tombstones and buffer-pool pages exist for sealed rows only, so those
// checks apply to the sealed region alone.
type ScanOp struct {
	Table    *relational.Table
	Star     Star
	UseZones bool
	// RowLo/RowHi restrict the scan to a row window (RowHi -1 = open),
	// the planner's sort-key range pushdown path.
	RowLo, RowHi int
	// Blooms are runtime join filters pushed down from hash joins above
	// this scan; unpublished handles are skipped at Open.
	Blooms []ScanBloom
	// Stats is the stats id of the plan node whose OpStats receive the
	// per-property kernel skip counts at Close (0: none).
	Stats int

	ctx    *Ctx
	props  []scanProp // in star order
	order  []int      // props in evaluation order
	blooms []scanBloom
	block  int // next block of the region to scan
	last   int // last block of the region (inclusive)
	lo     int // row window within the region
	hi     int
	// base is the physical row of the region's first row, sealed is
	// true while the scan walks the sealed region, and tail is the
	// number of unsealed rows it walks after that.
	base   int
	sealed bool
	tail   int
	// pinned is the block whose columns the scan holds buffer-pool pins
	// on (-1 = none): the views lent by emitBlock stay backed until the
	// consumer's next pull, so eviction never races a live
	// selection-vector view.
	pinned int
	sc     scanScratch
}

// scanProp is one star property as the scan evaluates it: its column,
// the value range its kernel tests — [c,c] for a bound object, the
// pushed-down range, or every non-NULL value for a presence-only
// property — and its rank in the evaluation order.
type scanProp struct {
	p *StarProp
	// col is the property's column in the scanned region: the sealed
	// column, then flat, the untracked view of its unsealed cells.
	col    *colstore.Column
	flat   colstore.Column
	idx    int // column index in Table.Cols
	lo, hi dict.OID
	rank   int     // propConst, propRange or propPresent
	zsel   float64 // fraction of the scanned blocks a range's zones admit
	// skips counts the blocks whose zone made the kernel redundant.
	skips int64
	// touched: the current block's pages of col are accounted.
	touched bool
}

// Evaluation ranks: bound objects first, then ranges by ascending zsel,
// then presence-only properties.
const (
	propConst = iota
	propRange
	propPresent
)

// scanScratch is the per-scanner reusable state: the selection buffer,
// the subject view, and one decode buffer per output column. Nothing
// here is shared between scans. The block-sized buffers come from the
// package free lists: init takes them and release returns them, once,
// when the owner closes (see blocks.go).
type scanScratch struct {
	sel     []int32
	subj    []dict.OID
	objBufs [][]dict.OID // one per output property
	views   [][]dict.OID
	// ovf decodes blocks that may hold overflow literals; taken on
	// first use, so scans of blocks sealed at Organize never hold one.
	ovf []dict.OID
}

func (sc *scanScratch) init(star *Star) {
	outCols := 0
	for i := range star.Props {
		if star.Props[i].ObjVar != "" {
			outCols++
		}
	}
	sc.sel = selBlocks.get()[:0]
	sc.subj = oidBlocks.get()
	sc.objBufs = make([][]dict.OID, outCols)
	for i := range sc.objBufs {
		sc.objBufs[i] = oidBlocks.get()
	}
	sc.views = make([][]dict.OID, 0, outCols+1)
}

// release returns the scratch blocks to their free lists and forgets
// them; a second release is a no-op. Nothing the scratch lent may be read
// afterwards.
func (sc *scanScratch) release() {
	selBlocks.put(sc.sel)
	oidBlocks.put(sc.subj)
	for _, b := range sc.objBufs {
		oidBlocks.put(b)
	}
	if sc.ovf != nil {
		oidBlocks.put(sc.ovf)
	}
	*sc = scanScratch{}
}

// NewScanOp builds a streaming scan of star over one CS table.
func NewScanOp(t *relational.Table, star Star, useZones bool, rowLo, rowHi int) *ScanOp {
	return &ScanOp{Table: t, Star: star, UseZones: useZones, RowLo: rowLo, RowHi: rowHi}
}

func (s *ScanOp) Vars() []string { return s.Star.Vars() }

func (s *ScanOp) Open(ctx *Ctx) error {
	s.start(ctx)
	return nil
}

// start prepares the scan of the sealed window [RowLo,RowHi) and the
// unsealed tail: it resolves the star's columns and bloom filters, ranks
// the properties and takes the scratch. It reports false, leaving
// nothing to scan, when the table has no row to read or no row can
// qualify.
func (s *ScanOp) start(ctx *Ctx) bool {
	s.ctx = ctx
	s.block, s.last = 0, -1 // empty unless rows to scan are established below
	s.tail = 0
	s.pinned = -1
	lo, hi := max(s.RowLo, 0), s.RowHi
	if hi < 0 || hi > s.Table.SealedRows() {
		hi = s.Table.SealedRows()
	}
	s.props = make([]scanProp, len(s.Star.Props))
	for i := range s.Star.Props {
		idx := s.Table.ColIndex(s.Star.Props[i].Pred)
		if idx < 0 {
			return false // planner error; empty result
		}
		s.props[i] = scanProp{p: &s.Star.Props[i], idx: idx}
	}
	s.region(true, lo, hi)
	// Resolve published bloom handles once: the fill happened in the
	// upstream hash join's Open, strictly before this probe-side Open.
	s.blooms = s.blooms[:0]
	for _, sb := range s.Blooms {
		f := sb.H.Filter()
		if f == nil {
			continue
		}
		oc := -1
		if sb.Prop >= 0 {
			oc = 0
			for i := 0; i < sb.Prop; i++ {
				if s.Star.Props[i].ObjVar != "" {
					oc++
				}
			}
		}
		s.blooms = append(s.blooms, scanBloom{f: f, prop: sb.Prop, oc: oc})
	}
	// The row window restricts the sealed region only; the unsealed
	// tail is always scanned (its rows carry arbitrary subjects).
	tail := s.Table.DeltaLen()
	if hi > lo {
		s.block = lo / colstore.BlockRows
		s.last = (hi - 1) / colstore.BlockRows
	} else if tail == 0 {
		return false
	}
	if !s.rankProps() {
		s.last = -1 // contradictory constraints: no row qualifies
		return false
	}
	s.tail = tail
	s.sc.init(&s.Star)
	return true
}

// region points the scan at the sealed region's row window [lo,hi) or,
// when sealed is false, at the first hi rows of the unsealed tail: there
// each property's column is a flat, untracked view of its unsealed
// cells, walked from the first of them in blocks of BlockRows rows.
func (s *ScanOp) region(sealed bool, lo, hi int) {
	s.sealed, s.lo, s.hi, s.base = sealed, lo, hi, 0
	if !sealed {
		s.base = s.Table.SealedRows()
	}
	for i := range s.props {
		sp := &s.props[i]
		sp.col = s.Table.Cols[sp.idx].Data
		if !sealed {
			sp.flat = colstore.Column{Name: sp.col.Name, Vals: s.Table.Delta[sp.idx]}
			sp.col = &sp.flat
		}
	}
}

// enterTail moves the scan from the sealed region to the unsealed tail,
// reporting false when there is none to scan.
func (s *ScanOp) enterTail() bool {
	if !s.sealed || s.tail == 0 {
		return false
	}
	s.region(false, 0, s.tail)
	s.block, s.last = 0, (s.tail-1)/colstore.BlockRows
	return true
}

// rankProps sets each property's kernel range and evaluation order:
// bound objects first, then ranges by ascending zsel over the blocks
// this scan reads, then presence-only properties (ties keep star
// order). It reports false when a bound object fails its own range, so
// no row can qualify.
func (s *ScanOp) rankProps() bool {
	s.order = make([]int, 0, len(s.props))
	for i := range s.props {
		sp := &s.props[i]
		p := sp.p
		switch {
		case p.ObjConst != dict.Nil:
			if !p.matches(p.ObjConst) {
				return false
			}
			sp.rank, sp.lo, sp.hi = propConst, p.ObjConst, p.ObjConst
		case p.HasRange:
			sp.rank, sp.lo, sp.hi = propRange, p.Lo, p.Hi
			zm := sp.col.Zones()
			n, match := 0, 0
			for b := s.block; b <= s.last && b < zm.NumBlocks(); b++ {
				n++
				if zm.MayMatch(b, p.Lo, p.Hi) {
					match++
				}
			}
			if n > 0 {
				sp.zsel = float64(match) / float64(n)
			}
		default:
			sp.rank, sp.lo, sp.hi = propPresent, dict.Nil, ^dict.OID(0)
		}
		// insertion sort: a star has a handful of properties
		k := len(s.order)
		s.order = append(s.order, i)
		for ; k > 0; k-- {
			q := &s.props[s.order[k-1]]
			if q.rank < sp.rank || q.rank == sp.rank && q.zsel <= sp.zsel {
				break
			}
			s.order[k] = s.order[k-1]
		}
		s.order[k] = i
	}
	return true
}

// blockMayMatch reports whether zone maps leave sealed block b of the
// scanned columns able to hold a row satisfying every property.
func (s *ScanOp) blockMayMatch(b int) bool {
	for i := range s.props {
		sp := &s.props[i]
		if sp.rank == propPresent {
			continue
		}
		zm := sp.col.Zones()
		if b >= zm.NumBlocks() {
			continue
		}
		// a range prunes only when the prefix part misses the block and
		// no overflow member lies within its bounds
		if !zm.MayMatch(b, sp.lo, sp.hi) && (sp.rank == propConst || len(sp.p.Over) == 0 ||
			zm.Zones[b].AllNull || !sp.p.overIn(zm.Zones[b].Min, zm.Zones[b].Max)) {
			return false
		}
	}
	return true
}

// selectBlock evaluates the star's predicates over block blk of the
// scanned region with the column kernels and returns the surviving rows
// as a block-relative selection vector (owned by sc). It tests every row
// of the region's [wlo,whi) window or, when seeded, only the rows sc.sel
// holds on entry (ascending, block-relative, inside the window).
// all=true means every row of the window qualifies; otherwise an empty
// sel means the block produced nothing. Seeded, the survivors are in
// sc.sel either way.
func (s *ScanOp) selectBlock(blk int, sc *scanScratch, seeded bool) (sel []int32, all bool, wlo, whi int) {
	bs := blk * colstore.BlockRows
	wlo, whi = max(bs, s.lo), min(bs+colstore.BlockRows, s.hi)
	if s.UseZones && s.sealed && !s.blockMayMatch(blk) {
		return nil, false, wlo, whi // pruned: pages never touched
	}
	rlo, rhi := wlo-bs, whi-bs
	all = !seeded
	for _, i := range s.order {
		sp := &s.props[i]
		col := sp.col
		sp.touched = false
		if s.sealed && zonePasses(col, blk, sp) {
			sp.skips++
			continue
		}
		col.Touch(wlo, whi)
		sp.touched = true
		switch {
		case len(sp.p.Over) > 0 && (!s.sealed || overflowBlock(col, blk, sp.p)):
			if all {
				sc.sel = appendWindow(sc.sel[:0], rlo, rhi)
			}
			sc.sel = refineOverflow(col, blk, sp.p, sc)
		case !all:
			sc.sel = col.RefineBlock(blk, sp.lo, sp.hi, sc.sel)
		default:
			sc.sel = col.SelectBlock(blk, rlo, rhi, sp.lo, sp.hi, sc.sel[:0])
		}
		all = false
		if len(sc.sel) == 0 {
			return nil, false, wlo, whi
		}
	}
	// Mask tombstoned rows (deleted or migrated to the delta tail): the
	// sealed segments are immutable, so deletion is a scan-time filter.
	if del := s.Table.Del; s.sealed && del.AnyInRange(wlo, whi) {
		if all {
			sc.sel = appendWindow(sc.sel[:0], rlo, rhi)
			all = false
		}
		out := sc.sel[:0]
		for _, k := range sc.sel {
			if !del.Get(bs + int(k)) {
				out = append(out, k)
			}
		}
		sc.sel = out
		if len(sc.sel) == 0 {
			return nil, false, wlo, whi
		}
	}
	// Runtime bloom filters from hash joins above this scan: drop rows
	// whose join key is provably absent from the build side. Gathering
	// the key column here is paid back by never moving the row further.
	if len(s.blooms) > 0 {
		if all {
			sc.sel = appendWindow(sc.sel[:0], rlo, rhi)
			all = false
		}
		for bi := range s.blooms {
			bl := &s.blooms[bi]
			out := sc.sel[:0]
			if bl.prop < 0 {
				for _, k := range sc.sel {
					if bl.f.MayContain(s.Table.SubjectOID(s.base + bs + int(k))) {
						out = append(out, k)
					}
				}
			} else {
				sp := &s.props[bl.prop]
				if !sp.touched {
					sp.col.Touch(wlo, whi)
					sp.touched = true
				}
				vals := sp.col.GatherBlock(blk, sc.sel, sc.objBufs[bl.oc])
				for _, k := range sc.sel {
					if bl.f.MayContain(vals[k]) {
						out = append(out, k)
					}
				}
			}
			sc.sel = out
			if len(sc.sel) == 0 {
				return nil, false, wlo, whi
			}
		}
	}
	if all {
		return nil, true, wlo, whi
	}
	if len(sc.sel) == rhi-rlo {
		return nil, true, wlo, whi // every row survived: emit dense
	}
	return sc.sel, false, wlo, whi
}

// appendWindow appends the block-relative rows [rlo,rhi) to sel.
func appendWindow(sel []int32, rlo, rhi int) []int32 {
	for i := rlo; i < rhi; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// zonePasses reports that sealed block blk of col is NULL-free with its
// zone inside sp's range, so every row passes without a kernel.
func zonePasses(col *colstore.Column, blk int, sp *scanProp) bool {
	zm := col.Zones()
	if blk >= zm.NumBlocks() {
		return false
	}
	z := zm.Zones[blk]
	return !z.HasNull && !z.AllNull && z.Min >= sp.lo && z.Max <= sp.hi
}

// overflowBlock reports that sealed block blk of col may hold literals
// minted since Organize: its zone max lies past the watermark, which
// only blocks sealed by Compact do (unsealed blocks always may). Blocks
// sealed at Organize never get here.
func overflowBlock(col *colstore.Column, blk int, p *StarProp) bool {
	zm := col.Zones()
	return blk >= zm.NumBlocks() || zm.Zones[blk].Max > p.N
}

// refineOverflow is the range kernel of a block that may hold overflow
// literals: it keeps the rows of sc.sel whose value lies in [Lo,Hi] or
// is one of the range's overflow members.
func refineOverflow(col *colstore.Column, blk int, p *StarProp, sc *scanScratch) []int32 {
	if sc.ovf == nil {
		sc.ovf = oidBlocks.get()
	}
	vals := col.BlockValues(blk, sc.ovf)
	out := sc.sel[:0]
	for _, k := range sc.sel {
		if v := vals[k]; v != dict.Nil && p.matches(v) {
			out = append(out, k)
		}
	}
	return out
}

// scanBloom is one resolved bloom probe: the published filter plus the
// star property it keys on (-1 = the subject column).
type scanBloom struct {
	f    *BloomFilter
	prop int
	oc   int // objBufs index when prop >= 0
}

// blockView resolves output column oc (backed by prop pi) of block blk
// for the given selection, touching its pages if the kernel pass did
// not. Sparse selections gather single rows off the compressed form;
// dense ones decode the block (zero-copy for plain blocks).
func (s *ScanOp) blockView(sc *scanScratch, blk, pi, oc, wlo, whi int, sel []int32) []dict.OID {
	col := s.props[pi].col
	if !s.props[pi].touched {
		col.Touch(wlo, whi)
	}
	if sel != nil && len(sel)*4 < whi-wlo {
		return col.GatherBlock(blk, sel, sc.objBufs[oc])
	}
	return col.BlockValues(blk, sc.objBufs[oc])
}

// emitBlock lends block blk's surviving rows to the consumer batch as
// views plus a selection vector — no row copies.
func (s *ScanOp) emitBlock(b *Batch, blk int, sel []int32, wlo, whi int) {
	bs := blk * colstore.BlockRows
	sc := &s.sc
	views := sc.views[:0]
	if sel == nil {
		// dense window: slice the views, no selection needed
		n := whi - wlo
		subj := sc.subj[:n]
		for k := 0; k < n; k++ {
			subj[k] = s.Table.SubjectOID(s.base + wlo + k)
		}
		views = append(views, subj)
		oc := 0
		for i := range s.props {
			if s.Star.Props[i].ObjVar == "" {
				continue
			}
			view := s.blockView(sc, blk, i, oc, wlo, whi, nil)
			views = append(views, view[wlo-bs:whi-bs])
			oc++
		}
		b.SetViews(nil, views...)
		return
	}
	subj := sc.subj[:colstore.BlockRows]
	for _, k := range sel {
		subj[k] = s.Table.SubjectOID(s.base + bs + int(k))
	}
	views = append(views, subj)
	oc := 0
	for i := range s.props {
		if s.Star.Props[i].ObjVar == "" {
			continue
		}
		views = append(views, s.blockView(sc, blk, i, oc, wlo, whi, sel))
		oc++
	}
	b.SetViews(sel, views...)
}

// pinBlock / unpinBlock hold buffer-pool pins on block blk of every
// scanned column, so the pool cannot evict a decoded block out from
// under a kernel or a lent view.
func (s *ScanOp) pinBlock(blk int) {
	for i := range s.props {
		s.props[i].col.PinBlock(blk)
	}
}

func (s *ScanOp) unpinBlock(blk int) {
	for i := range s.props {
		s.props[i].col.UnpinBlock(blk)
	}
}

func (s *ScanOp) Next(b *Batch) bool {
	// the views lent by the previous emitBlock are dead once the
	// consumer pulls again; release their pins
	if s.pinned >= 0 {
		s.unpinBlock(s.pinned)
		s.pinned = -1
	}
	if s.ctx.Cancelled() {
		return false
	}
	for {
		for s.block <= s.last {
			// a selective scan can skip many blocks between emitted batches;
			// re-poll so cancellation latency stays bounded by one block
			if s.ctx.Cancelled() {
				return false
			}
			// the chaos tests' panic-isolation point: a panicking scan
			// fails its query, not the process
			if err := fault.Point("exec.scan"); err != nil {
				panic(err)
			}
			blk := s.block
			s.block++
			s.pinBlock(blk)
			sel, all, wlo, whi := s.selectBlock(blk, &s.sc, false)
			if !all && len(sel) == 0 {
				s.unpinBlock(blk)
				continue
			}
			if all {
				sel = nil
			}
			s.emitBlock(b, blk, sel, wlo, whi)
			s.pinned = blk // held until the consumer's next pull or Close
			return true
		}
		if !s.enterTail() {
			return false
		}
	}
}

func (s *ScanOp) Close() {
	if s.pinned >= 0 {
		s.unpinBlock(s.pinned)
		s.pinned = -1
	}
	// the consumer stopped pulling, so no lent view is read again
	s.sc.release()
	if s.ctx == nil {
		return
	}
	if st := s.ctx.Stats.Node(s.Stats); st != nil {
		for i := range s.props {
			st.addSkips(i, s.props[i].skips)
			s.props[i].skips = 0
		}
	}
}

// DefaultStarOp evaluates a star with the paper's Default plan family: a
// seed index scan on the most selective pattern, pulled chunk by chunk,
// then one self-join per remaining property (PSO index lookups, or a
// merge join when the seed is large). Without clustering the lookups hit
// the index "all over the place" — the access pattern the paper
// critiques. Merge cursors persist across chunks, so each property run
// is read once, in subject order.
type DefaultStarOp struct {
	star Star
	idx  *triples.IndexSet

	ctx      *Ctx
	pso, pos *triples.Projection
	seed     int // index of the seed property
	seedLen  int

	// streaming seed cursor: either a projection window [cursor,hiRow)
	// or a pre-sorted materialized seed (range case, which must sort).
	kind    seedKind
	cursor  int
	hiRow   int
	seedRel relCursor

	ext     []extendState
	pending relCursor
	done    bool
}

type seedKind uint8

const (
	seedConst seedKind = iota // pos.C run of a bound object
	seedRange                 // materialized (sorted) range seed
	seedRun                   // full pso property run
)

// extendState is the persistent join state of one non-seed property.
type extendState struct {
	prop   *StarProp
	lookup bool // index nested-loop vs merge self-join
	k      int  // merge cursor into the pso run
	runLo  int
	runHi  int
}

// NewDefaultStarOp builds a streaming Default-family star operator.
func NewDefaultStarOp(star Star, idx *triples.IndexSet) *DefaultStarOp {
	return &DefaultStarOp{star: star, idx: idx}
}

func (d *DefaultStarOp) Vars() []string { return d.star.Vars() }

func (d *DefaultStarOp) Open(ctx *Ctx) error {
	d.ctx = ctx
	if len(d.star.Props) == 0 {
		d.done = true
		return nil
	}
	d.pso = d.idx.Get(triples.PSO)
	d.pos = d.idx.Get(triples.POS)
	d.seed, d.seedLen = chooseSeed(&d.star, d.pso, d.pos)
	sp := &d.star.Props[d.seed]
	switch {
	case sp.ObjConst != dict.Nil:
		d.kind = seedConst
		d.cursor, d.hiRow = d.pos.Range2(sp.Pred, sp.ObjConst)
	case sp.HasRange:
		// the range seed must sort by subject before streaming
		d.kind = seedRange
		d.seedRel = relCursor{rel: rangeSeed(ctx, sp, d.star.SubjVar, d.pos)}
	default:
		d.kind = seedRun
		d.cursor, d.hiRow = d.pso.Range1(sp.Pred)
	}
	for i := range d.star.Props {
		if i == d.seed {
			continue
		}
		p := &d.star.Props[i]
		runLo, runHi := d.pso.Range1(p.Pred)
		st := extendState{prop: p, k: runLo, runLo: runLo, runHi: runHi}
		// the seed cardinality, known upfront, fixes the choice
		st.lookup = d.seedLen*4 < runHi-runLo
		if !st.lookup {
			// the merge self-join reads the whole run
			ctx.touchProj(d.pso, runLo, runHi, 2|4)
		}
		d.ext = append(d.ext, st)
	}
	return nil
}

// nextSeedChunk produces the next <=BatchRows seed rows, sorted by
// subject, or nil at exhaustion.
func (d *DefaultStarOp) nextSeedChunk() *Rel {
	sp := &d.star.Props[d.seed]
	switch d.kind {
	case seedRange:
		chunk := NewRel(d.seedRel.rel.Vars...)
		n := d.seedRel.rel.Len() - d.seedRel.off
		if n <= 0 {
			return nil
		}
		if n > BatchRows {
			n = BatchRows
		}
		for i := range chunk.Cols {
			chunk.Cols[i] = d.seedRel.rel.Cols[i][d.seedRel.off : d.seedRel.off+n]
		}
		d.seedRel.off += n
		return chunk
	case seedConst:
		if d.cursor >= d.hiRow {
			return nil
		}
		n := d.hiRow - d.cursor
		if n > BatchRows {
			n = BatchRows
		}
		d.ctx.touchProj(d.pos, d.cursor, d.cursor+n, 4) // C = subjects
		chunk := NewRel(d.star.SubjVar)
		chunk.Cols[0] = d.pos.C[d.cursor : d.cursor+n]
		d.cursor += n
		return chunk
	default: // seedRun
		if d.cursor >= d.hiRow {
			return nil
		}
		n := d.hiRow - d.cursor
		if n > BatchRows {
			n = BatchRows
		}
		d.ctx.touchProj(d.pso, d.cursor, d.cursor+n, 2|4)
		var chunk *Rel
		if sp.ObjVar != "" {
			chunk = NewRel(d.star.SubjVar, sp.ObjVar)
			chunk.Cols[0] = d.pso.B[d.cursor : d.cursor+n]
			chunk.Cols[1] = d.pso.C[d.cursor : d.cursor+n]
		} else {
			chunk = NewRel(d.star.SubjVar)
			chunk.Cols[0] = d.pso.B[d.cursor : d.cursor+n]
		}
		d.cursor += n
		return chunk
	}
}

// extendChunk joins one more property onto a seed chunk, advancing the
// persistent merge cursor (chunks arrive subject-sorted, so the cursor
// never rewinds).
func (d *DefaultStarOp) extendChunk(rel *Rel, st *extendState) *Rel {
	si := rel.ColIdx(d.star.SubjVar)
	p := st.prop
	outVars := rel.Vars
	if p.ObjVar != "" {
		outVars = append(append([]string{}, rel.Vars...), p.ObjVar)
	}
	out := NewRel(outVars...)
	buf := make([]dict.OID, 0, len(rel.Vars)+1)

	if st.lookup {
		for i := 0; i < rel.Len(); i++ {
			s := rel.Cols[si][i]
			lo, hi := d.pso.Range2(p.Pred, s)
			if hi == lo {
				continue
			}
			d.ctx.touchProj(d.pso, lo, hi, 4)
			for k := lo; k < hi; k++ {
				o := d.pso.C[k]
				if !p.matches(o) {
					continue
				}
				buf = rel.Row(i, buf)
				if p.ObjVar != "" {
					buf = append(buf, o)
				}
				out.AppendRow(buf...)
			}
		}
		return out
	}

	for i := 0; i < rel.Len(); i++ {
		s := rel.Cols[si][i]
		for st.k < st.runHi && d.pso.B[st.k] < s {
			st.k++
		}
		for j := st.k; j < st.runHi && d.pso.B[j] == s; j++ {
			o := d.pso.C[j]
			if !p.matches(o) {
				continue
			}
			buf = rel.Row(i, buf)
			if p.ObjVar != "" {
				buf = append(buf, o)
			}
			out.AppendRow(buf...)
		}
	}
	return out
}

func (d *DefaultStarOp) Next(b *Batch) bool {
	for !d.done {
		if d.ctx.Cancelled() {
			d.done = true
			return false
		}
		if d.pending.rel != nil && d.pending.fill(b) {
			return true
		}
		chunk := d.nextSeedChunk()
		if chunk == nil {
			d.done = true
			return false
		}
		for i := range d.ext {
			if chunk.Len() == 0 {
				break
			}
			chunk = d.extendChunk(chunk, &d.ext[i])
		}
		if chunk.Len() > 0 {
			// the seed choice reordered columns; restore the star's
			// declared schema before emitting positionally
			ordered := NewRel(d.star.Vars()...)
			for i, v := range ordered.Vars {
				ordered.Cols[i] = chunk.Cols[chunk.ColIdx(v)]
			}
			chunk = ordered
		}
		d.pending = relCursor{rel: chunk}
	}
	return false
}

func (d *DefaultStarOp) Close() {}

// FilterOp streams FILTER evaluation as selection-vector refinement: it
// runs the compiled expression over each input batch's logical rows and
// forwards the batch's column views with a shrunken selection instead of
// copying the survivors — rejected rows cost no data movement, and a
// filter over a scan composes two selections without materializing
// either.
type FilterOp struct {
	in   Operator
	prog program
	root int

	ctx     *Ctx
	inBatch *Batch
	sel     []int32 // grows to the largest surviving selection
}

// NewFilterOp streams Filter over each input batch.
func NewFilterOp(in Operator, expr sparql.Expr) Operator {
	f := &FilterOp{in: in}
	f.prog.reserve(exprSize(expr))
	f.root = f.prog.compile(expr, in.Vars(), nil)
	return f
}

func (f *FilterOp) Vars() []string { return f.in.Vars() }

func (f *FilterOp) Open(ctx *Ctx) error {
	f.ctx = ctx
	f.inBatch = NewBatch(f.in.Vars())
	return f.in.Open(ctx)
}

func (f *FilterOp) Next(b *Batch) bool {
	for {
		f.inBatch.Reset()
		if !f.in.Next(f.inBatch) {
			return false
		}
		n := f.inBatch.Len()
		f.prog.run(f.ctx, f.inBatch.Cols, f.inBatch.Sel, n, nil)
		res := f.prog.result(f.root)
		sel := f.sel[:0]
		for r := 0; r < n; r++ {
			if pass, ok := res.truth(r); ok && pass {
				phys := r
				if f.inBatch.Sel != nil {
					phys = int(f.inBatch.Sel[r])
				}
				sel = append(sel, int32(phys))
			}
		}
		f.sel = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == n && f.inBatch.Sel == nil {
			b.SetViews(nil, f.inBatch.Cols...) // nothing rejected: stay dense
		} else {
			b.SetViews(sel, f.inBatch.Cols...)
		}
		return true
	}
}

func (f *FilterOp) Close() {
	f.in.Close()
	f.prog.release()
}

// HashJoinOp is the streaming natural hash join: the build side is
// drained and hashed at Open, the probe side streams through. The output
// schema is the left child's variables followed by the right child's
// extras regardless of which side builds, so plan shapes keep their
// column order.
//
// The hash table is keyed on the OIDs of the shared variables, however
// many (none makes a cross product): slots is open-addressed over the
// distinct build keys and holds each key's first build row + 1, and
// next chains the key's further build rows in ascending order. So every
// probe row meets its matches in build order.
type HashJoinOp struct {
	left, right Operator
	buildLeft   bool
	vars        []string
	// Blooms are handles to publish after the build side drains: each is
	// filled with the build column of its variable, then probe-side scans
	// (opened strictly after) prune their selection vectors with it.
	Blooms []*BloomHandle

	ctx      *Ctx
	probe    Operator
	build    *Rel
	slots    []int32
	next     []int32
	key      []dict.OID // the key being inserted or looked up
	buildKey []int
	probeKey []int
	// per output var: source column (build or probe)
	fromBuild []int
	fromProbe []int

	probeBatch *Batch
	// The resume cursor: probe row j of probeBatch emits build row cur
	// next (-1: row j is not looked up yet). rows/at are the match pairs
	// (build row, physical probe row) of the batch being filled.
	j        int
	cur      int32
	rows, at []int32
	done     bool
}

// NewHashJoinOp joins left and right on their shared variables, hashing
// the side indicated by buildLeft.
func NewHashJoinOp(left, right Operator, buildLeft bool) *HashJoinOp {
	vars := append([]string{}, left.Vars()...)
	seen := map[string]bool{}
	for _, v := range vars {
		seen[v] = true
	}
	for _, v := range right.Vars() {
		if !seen[v] {
			vars = append(vars, v)
		}
	}
	return &HashJoinOp{left: left, right: right, buildLeft: buildLeft, vars: vars}
}

func (h *HashJoinOp) Vars() []string { return h.vars }

func (h *HashJoinOp) Open(ctx *Ctx) error {
	h.ctx = ctx
	buildSide := h.right
	h.probe = h.left
	if h.buildLeft {
		buildSide = h.left
		h.probe = h.right
	}
	h.build = Drain(ctx, buildSide)
	if err := ctx.StopErr(); err != nil {
		// the build-side drain bailed (cancel, budget, panic):
		// fail Open instead of probing against a partial build
		return err
	}
	// the hash table on top of the drained cells Drain charged
	n := h.build.Len()
	size := 0
	if n > 0 {
		size = 2
		for size < 2*n {
			size *= 2
		}
	}
	if err := ctx.Mem.Grow(4 * int64(size+n)); err != nil {
		ctx.Fail(err)
		return err
	}
	colOf := func(vars []string, v string) int {
		for i, w := range vars {
			if w == v {
				return i
			}
		}
		return -1
	}
	// Publish bloom filters before the probe side opens, so its scans
	// observe them in their Open.
	for _, bh := range h.Blooms {
		ci := colOf(h.build.Vars, bh.Var)
		if ci < 0 {
			continue
		}
		f := NewBloomFilter(n)
		for i := 0; i < n; i++ {
			f.Add(h.build.Cols[ci][i])
		}
		bh.publish(f)
	}
	if err := h.probe.Open(ctx); err != nil {
		return err
	}
	probeVars := h.probe.Vars()
	for _, v := range h.build.Vars {
		if pi := colOf(probeVars, v); pi >= 0 {
			h.buildKey = append(h.buildKey, colOf(h.build.Vars, v))
			h.probeKey = append(h.probeKey, pi)
		}
	}
	h.fromBuild = make([]int, len(h.vars))
	h.fromProbe = make([]int, len(h.vars))
	for i, v := range h.vars {
		h.fromBuild[i] = colOf(h.build.Vars, v)
		h.fromProbe[i] = colOf(probeVars, v)
	}
	// Insert the build rows last to first, each at the head of its key's
	// chain, so the chains come out ascending.
	h.slots, h.next = make([]int32, size), make([]int32, n)
	h.key = make([]dict.OID, len(h.buildKey))
	mask := uint64(size - 1)
	for i := n - 1; i >= 0; i-- {
		for c, ci := range h.buildKey {
			h.key[c] = h.build.Cols[ci][i]
		}
		s := hashKey(h.key) & mask
		for h.slots[s] != 0 && !h.buildKeyEq(h.slots[s]-1) {
			s = (s + 1) & mask
		}
		h.next[i] = h.slots[s] - 1
		h.slots[s] = int32(i + 1)
	}
	h.probeBatch = NewBatch(probeVars)
	h.j, h.cur = 0, -1
	h.rows, h.at = make([]int32, 0, BatchRows), make([]int32, 0, BatchRows)
	h.done = false
	return nil
}

// buildKeyEq reports whether build row r's key equals h.key.
func (h *HashJoinOp) buildKeyEq(r int32) bool {
	for c, ci := range h.buildKey {
		if h.build.Cols[ci][r] != h.key[c] {
			return false
		}
	}
	return true
}

// lookup returns the first build row whose key equals physical probe
// row p's, or -1.
func (h *HashJoinOp) lookup(p int) int32 {
	if len(h.slots) == 0 {
		return -1
	}
	for c, ci := range h.probeKey {
		h.key[c] = h.probeBatch.Cols[ci][p]
	}
	mask := uint64(len(h.slots) - 1)
	for s := hashKey(h.key) & mask; h.slots[s] != 0; s = (s + 1) & mask {
		if r := h.slots[s] - 1; h.buildKeyEq(r) {
			return r
		}
	}
	return -1
}

// Next appends the matches of the next probe rows to b until it is
// full, resuming inside a probe row whose matches did not fit last time.
func (h *HashJoinOp) Next(b *Batch) bool {
	for !h.done && !b.Full() {
		pb := h.probeBatch
		if h.j == pb.Len() {
			pb.Reset()
			h.j = 0
			if !h.probe.Next(pb) {
				h.done = true
			}
			continue
		}
		rows, at := h.rows[:0], h.at[:0]
		room := BatchRows - b.Len()
		for h.j < pb.Len() && len(rows) < room {
			p := h.j
			if pb.Sel != nil {
				p = int(pb.Sel[p])
			}
			if h.cur < 0 {
				if h.cur = h.lookup(p); h.cur < 0 {
					h.j++
					continue
				}
			}
			for ; h.cur >= 0 && len(rows) < room; h.cur = h.next[h.cur] {
				rows, at = append(rows, h.cur), append(at, int32(p))
			}
			if h.cur >= 0 {
				break // b is full: resume inside row j
			}
			h.j++
		}
		gatherPairs(b, h.build, h.fromBuild, rows, pb, h.fromProbe, at)
		h.rows, h.at = rows, at
	}
	return b.Len() > 0
}

func (h *HashJoinOp) Close() { h.probe.Close() }
