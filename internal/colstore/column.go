package colstore

import (
	"sort"
	"sync"

	"srdf/internal/dict"
)

// Column is a fixed-length vector of OIDs with NULLs, the physical
// representation of one property of one characteristic set after subject
// clustering: row i holds the property value of the CS's i-th subject
// (paper §II-C — "for a whole stretch of subjects we get aligned
// stretches of Objects"). dict.Nil encodes SQL NULL.
//
// A column has two lives. During build it is a mutable flat vector
// (Vals) filled with Set. Seal freezes it into per-block compressed
// segments (see segment.go): Vals is dropped, reads go through the
// segment layer, and the scan-side predicate kernels (SelectBlock,
// RefineBlock) evaluate on the compressed form.
// Every accessor works on both representations, so untracked or
// never-sealed columns (tests, scratch data) behave exactly as before.
type Column struct {
	Name string
	Vals []dict.OID

	segs []Segment // non-nil once sealed; one per BlockRows block
	n    int       // row count after sealing (Vals is gone)

	nullCount int
	zm        *ZoneMap

	pool *BufferPool
	obj  uint32

	// accMu guards the pool account. Eager Seal accounts the whole
	// column at once; snapshot-restored columns account block by block
	// as lazy segments fault in, so Release must subtract exactly what
	// was added — these counters, not the theoretical total. released
	// marks the account closed: blocks faulting in afterwards (in-flight
	// snapshot readers racing a Compact) decode but no longer account,
	// so neither the pool's resident bytes nor its lazy/decoded tallies
	// drift. lazyLeft counts this column's not-yet-decoded lazy blocks;
	// Release hands the remainder back to the pool's SegmentsLazy.
	accMu    sync.Mutex
	accComp  int64
	accLog   int64
	lazyLeft int
	released bool
}

// accountSegment adds one decoded block (or, for Seal, the whole
// column) to the pool account, unless the account was already closed by
// Release. It reports whether the bytes were accepted (and must
// therefore reach the pool). lazy marks a lazy-block fault, which also
// consumes one pending-decode slot.
func (c *Column) accountSegment(comp, log int, lazy bool) bool {
	c.accMu.Lock()
	defer c.accMu.Unlock()
	if c.released {
		return false
	}
	c.accComp += int64(comp)
	c.accLog += int64(log)
	if lazy {
		c.lazyLeft--
	}
	return true
}

// unaccountSegment reverses accountSegment for one evicted lazy block:
// the block reverts to undecoded, so its decode slot reopens. Reports
// whether the account was still open (a released column already settled
// everything wholesale).
func (c *Column) unaccountSegment(comp, log int) bool {
	c.accMu.Lock()
	defer c.accMu.Unlock()
	if c.released {
		return false
	}
	c.accComp -= int64(comp)
	c.accLog -= int64(log)
	c.lazyLeft++
	return true
}

// PinBlock keeps block b's decoded form resident until UnpinBlock: the
// pool's eviction skips pinned blocks, so zero-copy views handed out by
// a scan stay backed. No-op for unsealed columns and eager segments.
func (c *Column) PinBlock(b int) {
	if c.segs == nil {
		return
	}
	if lz, ok := c.segs[b].(*lazySegment); ok {
		lz.pin()
	}
}

// UnpinBlock releases a PinBlock pin.
func (c *Column) UnpinBlock(b int) {
	if c.segs == nil {
		return
	}
	if lz, ok := c.segs[b].(*lazySegment); ok {
		lz.unpin()
	}
}

// NewColumn allocates an n-row column of NULLs registered with pool
// (pool may be nil for untracked columns).
func NewColumn(name string, n int, pool *BufferPool) *Column {
	c := &Column{Name: name, Vals: make([]dict.OID, n), nullCount: n, pool: pool}
	if pool != nil {
		c.obj = pool.NewObject()
	}
	return c
}

// Len returns the number of rows.
func (c *Column) Len() int {
	if c.segs != nil {
		return c.n
	}
	return len(c.Vals)
}

// Sealed reports whether the column has been frozen into compressed
// segments.
func (c *Column) Sealed() bool { return c.segs != nil }

// Seal freezes the column into per-block compressed segments, builds its
// zone map from the per-segment summaries, accounts the compressed size
// against the buffer pool, and releases the flat vector. Set panics
// after Seal; sealing an already-sealed column is a no-op.
func (c *Column) Seal() {
	if c.segs != nil {
		return
	}
	n := len(c.Vals)
	nb := (n + BlockRows - 1) / BlockRows
	c.segs = make([]Segment, nb)
	zm := &ZoneMap{Zones: make([]Zone, nb), Rows: n}
	compressed := 0
	for b := 0; b < nb; b++ {
		lo := b * BlockRows
		hi := lo + BlockRows
		if hi > n {
			hi = n
		}
		seg := EncodeBlock(c.Vals[lo:hi])
		c.segs[b] = seg
		zm.Zones[b] = seg.Zone()
		compressed += seg.Bytes()
	}
	c.n = n
	c.zm = zm
	c.Vals = nil
	if c.accountSegment(compressed, 8*n, false) && c.pool != nil {
		c.pool.AddSegmentBytes(compressed, 8*n)
	}
}

// Release un-accounts a sealed column's resident segment size from its
// pool — the bookkeeping counterpart of Seal, used when a compaction
// replaces the column with a freshly sealed successor. The data itself
// stays readable (snapshots may still scan it).
func (c *Column) Release() {
	if c.segs == nil {
		return
	}
	c.accMu.Lock()
	comp, log, left := c.accComp, c.accLog, c.lazyLeft
	c.accComp, c.accLog, c.lazyLeft = 0, 0, 0
	c.released = true
	c.accMu.Unlock()
	if c.pool != nil {
		c.pool.AddSegmentBytes(int(-comp), int(-log))
		// never-decoded blocks of a released column are no longer
		// pending anything
		c.pool.dropLazySegments(left)
		// decoded blocks leave the eviction LRU without counting as
		// evictions; the byte subtraction above already covered them
		for _, seg := range c.segs {
			if lz, ok := seg.(*lazySegment); ok {
				c.pool.forgetBlock(lz)
			}
		}
	}
}

// seg returns the segment holding row i and i's block-relative index.
func (c *Column) seg(i int) (Segment, int) {
	return c.segs[i/BlockRows], i % BlockRows
}

// peek returns row i without accounting a page touch.
func (c *Column) peek(i int) dict.OID {
	if c.segs != nil {
		s, k := c.seg(i)
		return s.Get(k)
	}
	return c.Vals[i]
}

// Set assigns row i. Only valid before Seal.
func (c *Column) Set(i int, v dict.OID) {
	if c.segs != nil {
		panic("colstore: Set on sealed column " + c.Name)
	}
	old := c.Vals[i]
	if old == dict.Nil && v != dict.Nil {
		c.nullCount--
	} else if old != dict.Nil && v == dict.Nil {
		c.nullCount++
	}
	c.Vals[i] = v
	c.zm = nil
}

// Get returns row i, accounting the page touch.
func (c *Column) Get(i int) dict.OID {
	c.Touch(i, i+1)
	return c.peek(i)
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.peek(i) == dict.Nil }

// NullCount returns the number of NULL rows.
func (c *Column) NullCount() int { return c.nullCount }

// Touch accounts a read of rows [lo,hi) against the buffer pool without
// copying data. Operators call it once per scanned block.
func (c *Column) Touch(lo, hi int) {
	if c.pool != nil {
		c.pool.AccessRange(c.obj, lo, hi)
	}
}

// Zones returns the column's zone map, building it on first use. Sealed
// columns carry the zone map assembled from segment summaries at Seal
// time, so this never races even under concurrent scans.
func (c *Column) Zones() *ZoneMap {
	if c.zm == nil {
		c.zm = BuildZoneMap(c.Vals)
	}
	return c.zm
}

// Pool returns the buffer pool the column accounts against (may be nil).
func (c *Column) Pool() *BufferPool { return c.pool }

// NumBlocks returns the number of BlockRows-sized blocks.
func (c *Column) NumBlocks() int {
	return (c.Len() + BlockRows - 1) / BlockRows
}

// BlockEncoding returns the encoding of block b (EncPlain for unsealed
// columns, which are raw vectors).
func (c *Column) BlockEncoding(b int) Encoding {
	if c.segs == nil {
		return EncPlain
	}
	return c.segs[b].Encoding()
}

// Encodings tallies the column's segments per encoding.
func (c *Column) Encodings() EncodingCounts {
	var ec EncodingCounts
	if c.segs == nil {
		ec[EncPlain] = c.NumBlocks()
		return ec
	}
	for _, s := range c.segs {
		ec[s.Encoding()]++
	}
	return ec
}

// CompressedBytes returns the resident size of the sealed representation
// (or the flat vector size when unsealed).
func (c *Column) CompressedBytes() int {
	if c.segs == nil {
		return 8 * len(c.Vals)
	}
	n := 0
	for _, s := range c.segs {
		n += s.Bytes()
	}
	return n
}

// BlockValues returns the decoded values of block b, indexed
// block-relatively. For plain blocks (sealed or not) the returned slice
// aliases column storage — callers must treat it as read-only; other
// encodings decode into buf. The caller is responsible for Touch.
func (c *Column) BlockValues(b int, buf []dict.OID) []dict.OID {
	lo := b * BlockRows
	if c.segs == nil {
		hi := lo + BlockRows
		if hi > len(c.Vals) {
			hi = len(c.Vals)
		}
		return c.Vals[lo:hi]
	}
	seg := c.segs[b]
	if p, ok := asPlain(seg); ok {
		return p.view()
	}
	return seg.Decode(buf[:0])
}

// GatherBlock fills buf (a full-block scratch, indexed block-relatively)
// with the values of block b at the selected positions only — the
// sparse-selection alternative to a full BlockValues decode. Plain
// blocks return their zero-copy view instead. The caller is responsible
// for Touch.
func (c *Column) GatherBlock(b int, sel []int32, buf []dict.OID) []dict.OID {
	if c.segs == nil {
		lo := b * BlockRows
		hi := lo + BlockRows
		if hi > len(c.Vals) {
			hi = len(c.Vals)
		}
		return c.Vals[lo:hi]
	}
	return gather(c.segs[b], sel, buf)
}

// SelectBlock appends the rows i (block-relative, within [lo,hi)) of
// block b whose non-NULL value lies in [vlo,vhi], evaluating on the
// compressed form. An equality test is [v,v]; a presence test is
// [dict.Nil, ^dict.OID(0)].
func (c *Column) SelectBlock(b, lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	if c.segs != nil {
		return c.segs[b].Select(lo, hi, vlo, vhi, sel)
	}
	return selectVals(c.Vals[b*BlockRows:], lo, hi, vlo, vhi, sel)
}

// RefineBlock keeps, in place, the rows of sel (block-relative,
// ascending) of block b whose non-NULL value lies in [vlo,vhi]: the
// kernel for every property after the first, which reads only the rows
// an earlier property let through.
func (c *Column) RefineBlock(b int, vlo, vhi dict.OID, sel []int32) []int32 {
	if c.segs != nil {
		return c.segs[b].Refine(vlo, vhi, sel)
	}
	return refineVals(c.Vals[b*BlockRows:], vlo, vhi, sel)
}

// AscendingWindow returns the [lo,hi) row window whose values lie in
// [vlo,vhi], for columns that are physically ascending with NULLs at the
// tail (the sub-ordering layout of sort-key columns). It binary-searches
// without accounting page touches — this is planner work, not a scan.
func (c *Column) AscendingWindow(vlo, vhi dict.OID) (int, int) {
	n := c.Len() - c.NullCount()
	lo := sort.Search(n, func(i int) bool { return c.peek(i) >= vlo })
	hi := sort.Search(n, func(i int) bool { return c.peek(i) > vhi })
	return lo, hi
}

// Values decodes the whole column into a fresh slice, without touching
// the buffer pool — a convenience for dumps, debugging and tests.
func (c *Column) Values() []dict.OID {
	if c.segs == nil {
		return append([]dict.OID(nil), c.Vals...)
	}
	out := make([]dict.OID, 0, c.n)
	for _, s := range c.segs {
		out = s.Decode(out)
	}
	return out
}

// TrackedSlice registers an existing OID slice (such as one component of
// a sorted projection) with a pool, so index scans over it can account
// page touches too. It does not copy the data.
type TrackedSlice struct {
	Vals []dict.OID
	pool *BufferPool
	obj  uint32
}

// Track registers vals against pool.
func Track(vals []dict.OID, pool *BufferPool) *TrackedSlice {
	ts := &TrackedSlice{Vals: vals, pool: pool}
	if pool != nil {
		ts.obj = pool.NewObject()
	}
	return ts
}

// Touch accounts a read of rows [lo,hi).
func (ts *TrackedSlice) Touch(lo, hi int) {
	if ts.pool != nil {
		ts.pool.AccessRange(ts.obj, lo, hi)
	}
}
