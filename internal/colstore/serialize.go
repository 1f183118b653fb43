// Segment serialization: the on-disk representation of a sealed column
// is exactly its in-memory compressed form — the RLE / frame-of-reference
// / block-dictionary / plain encodings of segment.go, framed per block.
// A restored column holds lazy segments: the encoded payload stays where
// the snapshot layer put it (a slice into the mmap'd file, or the heap
// buffer of the pread fallback) and is not decoded until a scan first
// touches the block. The decode is accounted against the buffer pool,
// which owns it from then on: under byte-budget pressure the pool evicts
// the decoded form and the block reverts to its encoded bytes, to be
// re-decoded on the next touch — so opening a large store does no
// per-value work and a store larger than the budget stays queryable.
package colstore

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"srdf/internal/dict"
)

// AppendOID appends o in the snapshot varint form: the literal tag bit is
// rotated down so literal OIDs stay as short as resource OIDs.
func AppendOID(dst []byte, o dict.OID) []byte {
	return binary.AppendUvarint(dst, bits.RotateLeft64(uint64(o), 1))
}

// DecodeOID reads one AppendOID-encoded OID, returning the bytes
// consumed (<= 0 on malformed input, like binary.Uvarint).
func DecodeOID(b []byte) (dict.OID, int) {
	u, n := binary.Uvarint(b)
	return dict.OID(bits.RotateLeft64(u, 63)), n
}

// BlockMeta describes one sealed block of a serialized column: everything
// a reader needs for zone maps and planning without touching the payload.
type BlockMeta struct {
	Enc  Encoding
	Rows int
	Zone Zone
	Len  int // encoded payload length in bytes
}

// MarshalBlocks appends the sealed column's per-block payloads to dst and
// returns the matching metadata. Lazy blocks that were never decoded are
// copied verbatim, so re-saving a snapshot-opened store neither decodes
// nor re-encodes anything and is byte-stable.
func (c *Column) MarshalBlocks(dst []byte) ([]byte, []BlockMeta, error) {
	if c.segs == nil {
		return nil, nil, fmt.Errorf("colstore: column %s is not sealed", c.Name)
	}
	metas := make([]BlockMeta, len(c.segs))
	for i, seg := range c.segs {
		start := len(dst)
		if lz, ok := seg.(*lazySegment); ok {
			dst = append(dst, lz.blob...)
			metas[i] = BlockMeta{Enc: lz.enc, Rows: lz.rows, Zone: lz.zone, Len: len(dst) - start}
			continue
		}
		var err error
		dst, err = appendSegmentPayload(dst, seg)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: column %s block %d: %w", c.Name, i, err)
		}
		metas[i] = BlockMeta{Enc: seg.Encoding(), Rows: seg.Len(), Zone: seg.Zone(), Len: len(dst) - start}
	}
	return dst, metas, nil
}

// RestoreSealed rebuilds a sealed column from serialized block metadata
// and the concatenated payload bytes (which it slices, not copies).
// Payloads are structurally validated now — lengths, widths, run bounds —
// but decoded only on first touch; the pool tracks the pending blocks via
// SegmentsLazy/SegmentsDecoded.
func RestoreSealed(name string, nullCount int, metas []BlockMeta, blob []byte, pool *BufferPool) (*Column, error) {
	c := &Column{Name: name, nullCount: nullCount, pool: pool}
	if pool != nil {
		c.obj = pool.NewObject()
	}
	c.segs = make([]Segment, len(metas))
	zm := &ZoneMap{Zones: make([]Zone, len(metas))}
	off, n := 0, 0
	for i, m := range metas {
		if m.Rows <= 0 || m.Rows > BlockRows {
			return nil, fmt.Errorf("colstore: column %s block %d: bad row count %d", name, i, m.Rows)
		}
		if i < len(metas)-1 && m.Rows != BlockRows {
			return nil, fmt.Errorf("colstore: column %s block %d: interior block has %d rows", name, i, m.Rows)
		}
		if m.Len < 0 || off+m.Len > len(blob) {
			return nil, fmt.Errorf("colstore: column %s block %d: payload overruns segment data", name, i)
		}
		payload := blob[off : off+m.Len : off+m.Len]
		if err := validateSegmentPayload(m.Enc, m.Rows, payload); err != nil {
			return nil, fmt.Errorf("colstore: column %s block %d: %w", name, i, err)
		}
		c.segs[i] = &lazySegment{blob: payload, enc: m.Enc, rows: m.Rows, zone: m.Zone, col: c}
		zm.Zones[i] = m.Zone
		off += m.Len
		n += m.Rows
	}
	if off != len(blob) {
		return nil, fmt.Errorf("colstore: column %s: %d trailing segment bytes", name, len(blob)-off)
	}
	c.n = n
	zm.Rows = n
	c.zm = zm
	c.lazyLeft = len(metas)
	if pool != nil {
		pool.addLazySegments(len(metas))
		// Validation touched every payload byte; on a mapped snapshot
		// those pages need not stay resident until a scan wants them.
		pool.releaseEncoded(blob)
	}
	return c, nil
}

// lazySegment defers decoding of one snapshot block. The encoded
// payload (blob) references the snapshot layer's buffer — a slice into
// the mmap'd file for mapped opens — so MarshalBlocks can always copy
// it verbatim and an undecoded block costs no heap at all. The decoded
// form is published through an atomic for lock-free reads; the mutex
// serializes the decode/evict transitions, and pins (held by scans at
// block granularity) keep the pool from evicting a block whose views
// are live.
type lazySegment struct {
	blob []byte
	enc  Encoding
	rows int
	zone Zone
	col  *Column

	mu  sync.Mutex              // decode/evict transitions
	seg atomic.Pointer[Segment] // nil while encoded-only
	// pins (>0 blocks eviction) is mutated under mu so evict's check is
	// exact; the atomic lets the pool's LRU walk skim it lock-free.
	pins atomic.Int32

	// pool-lock-guarded eviction bookkeeping (see BufferPool)
	elem     *list.Element
	resBytes int
}

// pin prevents eviction of the decoded form until the matching unpin.
// Pinning does not itself decode; the first kernel touch does.
func (s *lazySegment) pin() {
	s.mu.Lock()
	s.pins.Add(1)
	s.mu.Unlock()
	if s.col.pool != nil && s.seg.Load() != nil {
		s.col.pool.touchBlock(s)
	}
}

func (s *lazySegment) unpin() {
	s.mu.Lock()
	s.pins.Add(-1)
	s.mu.Unlock()
}

// load returns the decoded segment, faulting it in if needed. Callers
// that hold no pin get a snapshot that stays valid (the GC keeps it
// alive) but may be evicted from the pool behind their back; scans pin
// first.
func (s *lazySegment) load() Segment {
	if p := s.seg.Load(); p != nil {
		return *p
	}
	return s.fault()
}

// fault decodes the payload and hands the decoded bytes to the pool.
// Payloads are validated at restore time, so a decode failure here
// means the bytes changed underneath us — an invariant violation, not
// an input error.
func (s *lazySegment) fault() Segment {
	s.mu.Lock()
	if p := s.seg.Load(); p != nil {
		s.mu.Unlock()
		return *p
	}
	seg, err := decodeSegmentPayload(s.enc, s.rows, s.zone, s.blob)
	if err != nil {
		s.mu.Unlock()
		panic(fmt.Sprintf("colstore: segment of %s corrupted after open: %v", s.col.Name, err))
	}
	// A fault counts only while the column's account is open: a block
	// faulting in after Release (an in-flight snapshot reader outliving
	// a Compact) must inflate neither the pool's resident bytes nor its
	// lazy/decoded tallies — Release already settled both for this
	// column.
	accounted := s.col.accountSegment(seg.Bytes(), 8*s.rows, true)
	s.seg.Store(&seg)
	s.mu.Unlock()
	if accounted && s.col.pool != nil {
		s.col.pool.blockDecoded(s, seg.Bytes(), 8*s.rows)
		s.col.pool.enforceBudget()
	}
	return seg
}

// evict drops the decoded form, reverting the block to its encoded
// bytes. It refuses pinned or already-encoded blocks. cold marks a
// ResetCold flush rather than budget pressure.
func (s *lazySegment) evict(cold bool) bool {
	s.mu.Lock()
	if s.pins.Load() != 0 || s.seg.Load() == nil {
		s.mu.Unlock()
		return false
	}
	bytes := (*s.seg.Load()).Bytes()
	s.seg.Store(nil)
	// Reopen the column account for this block: it is lazy again, and
	// the next fault must re-account. A released column settled its
	// account wholesale — a straggler block that registered with the
	// pool after Release just leaves quietly.
	if accounted := s.col.unaccountSegment(bytes, 8*s.rows); s.col.pool != nil {
		if accounted {
			s.col.pool.blockEvicted(s, 8*s.rows, cold)
		} else {
			s.col.pool.forgetBlock(s)
		}
	}
	s.mu.Unlock()
	return true
}

func (s *lazySegment) Len() int           { return s.rows }
func (s *lazySegment) Encoding() Encoding { return s.enc }
func (s *lazySegment) Zone() Zone         { return s.zone }

// Bytes reports the resident size: the undecoded payload while the
// block is encoded-only, the decoded segment while faulted in.
func (s *lazySegment) Bytes() int {
	if p := s.seg.Load(); p != nil {
		return (*p).Bytes()
	}
	return len(s.blob)
}

func (s *lazySegment) Get(i int) dict.OID { return s.load().Get(i) }

func (s *lazySegment) Decode(dst []dict.OID) []dict.OID { return s.load().Decode(dst) }

func (s *lazySegment) Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	return s.load().Select(lo, hi, vlo, vhi, sel)
}

func (s *lazySegment) Refine(vlo, vhi dict.OID, sel []int32) []int32 {
	return s.load().Refine(vlo, vhi, sel)
}

// asPlain unwraps a (possibly lazy) segment to its plain form for
// zero-copy block views, faulting lazy blocks in.
func asPlain(seg Segment) (*plainSegment, bool) {
	if lz, ok := seg.(*lazySegment); ok {
		seg = lz.load()
	}
	p, ok := seg.(*plainSegment)
	return p, ok
}

// appendWords writes packed bit words as fixed 8-byte little-endian.
func appendWords(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// appendSegmentPayload serializes one decoded segment. The frame (enc,
// rows, zone, length) lives in BlockMeta; the payload is just the body.
func appendSegmentPayload(dst []byte, seg Segment) ([]byte, error) {
	switch s := seg.(type) {
	case *plainSegment:
		for _, v := range s.vals {
			dst = AppendOID(dst, v)
		}
	case *rleSegment:
		dst = binary.AppendUvarint(dst, uint64(len(s.vals)))
		prev := int32(0)
		for i, v := range s.vals {
			dst = AppendOID(dst, v)
			dst = binary.AppendUvarint(dst, uint64(s.ends[i]-prev))
			prev = s.ends[i]
		}
	case *forSegment:
		dst = AppendOID(dst, s.base)
		dst = append(dst, byte(s.width))
		dst = appendWords(dst, s.packed)
	case *dictSegment:
		dst = binary.AppendUvarint(dst, uint64(len(s.dictVals)))
		var prev dict.OID
		for i, v := range s.dictVals {
			if i == 0 {
				dst = AppendOID(dst, v)
			} else {
				// sorted ascending: delta-encode
				dst = binary.AppendUvarint(dst, uint64(v-prev))
			}
			prev = v
		}
		dst = append(dst, byte(s.width))
		dst = appendWords(dst, s.packed)
	default:
		return nil, fmt.Errorf("unknown segment type %T", seg)
	}
	return dst, nil
}

// segReader is a bounds-checked cursor over one payload.
type segReader struct {
	b   []byte
	off int
	bad bool
}

func (r *segReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) oid() dict.OID {
	v, n := DecodeOID(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return dict.Nil
	}
	r.off += n
	return v
}

func (r *segReader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *segReader) words(n int) []uint64 {
	if n < 0 || r.off+8*n > len(r.b) {
		r.bad = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

func (r *segReader) done() bool { return !r.bad && r.off == len(r.b) }

// decodeSegmentPayload rebuilds one segment; rows and zone come from the
// block metadata. It never panics on malformed input.
func decodeSegmentPayload(enc Encoding, rows int, zone Zone, b []byte) (Segment, error) {
	r := &segReader{b: b}
	switch enc {
	case EncPlain:
		vals := make([]dict.OID, rows)
		for i := range vals {
			vals[i] = r.oid()
		}
		if !r.done() {
			return nil, fmt.Errorf("malformed plain payload")
		}
		return &plainSegment{vals: vals, zone: zone}, nil
	case EncRLE:
		runs := r.uvarint()
		if r.bad || runs == 0 || runs > uint64(rows) {
			return nil, fmt.Errorf("malformed rle payload: %d runs over %d rows", runs, rows)
		}
		s := &rleSegment{
			vals: make([]dict.OID, runs),
			ends: make([]int32, runs),
			zone: zone,
		}
		end := int32(0)
		for i := range s.vals {
			s.vals[i] = r.oid()
			d := r.uvarint()
			if r.bad || d == 0 || uint64(end)+d > uint64(rows) {
				return nil, fmt.Errorf("malformed rle payload: bad run length")
			}
			end += int32(d)
			s.ends[i] = end
		}
		if !r.done() || int(end) != rows {
			return nil, fmt.Errorf("malformed rle payload: runs cover %d of %d rows", end, rows)
		}
		return s, nil
	case EncFOR:
		base := r.oid()
		width := int(r.byte())
		if r.bad || width > 64 {
			return nil, fmt.Errorf("malformed for payload: width %d", width)
		}
		packed := r.words((rows*width + 63) / 64)
		if !r.done() {
			return nil, fmt.Errorf("malformed for payload")
		}
		return &forSegment{base: base, width: width, n: rows, packed: packed, zone: zone}, nil
	case EncDict:
		card := r.uvarint()
		if r.bad || card == 0 || card > uint64(rows) || card > maxDictCard+1 {
			return nil, fmt.Errorf("malformed dict payload: cardinality %d", card)
		}
		dv := make([]dict.OID, card)
		dv[0] = r.oid()
		for i := 1; i < int(card); i++ {
			d := r.uvarint()
			if r.bad || d == 0 {
				return nil, fmt.Errorf("malformed dict payload: values not ascending")
			}
			dv[i] = dv[i-1] + dict.OID(d)
		}
		width := int(r.byte())
		if r.bad || width != bits.Len64(card-1) {
			return nil, fmt.Errorf("malformed dict payload: width %d for cardinality %d", width, card)
		}
		packed := r.words((rows*width + 63) / 64)
		if !r.done() {
			return nil, fmt.Errorf("malformed dict payload")
		}
		// every code must index the dictionary
		if maxPacked(packed, width, rows) >= card {
			return nil, fmt.Errorf("malformed dict payload: code out of range")
		}
		return &dictSegment{dictVals: dv, width: width, n: rows, packed: packed, zone: zone}, nil
	default:
		return nil, fmt.Errorf("unknown encoding %d", enc)
	}
}

// validateSegmentPayload structurally checks a payload — frame lengths,
// bit widths, run and code bounds — without materializing any values, so
// lazy faults after a validated open cannot fail. This is the cheap half
// of decodeSegmentPayload: no allocation, no per-value reconstruction.
func validateSegmentPayload(enc Encoding, rows int, b []byte) error {
	r := &segReader{b: b}
	switch enc {
	case EncPlain:
		for i := 0; i < rows; i++ {
			r.oid()
		}
		if !r.done() {
			return fmt.Errorf("malformed plain payload")
		}
	case EncRLE:
		runs := r.uvarint()
		if r.bad || runs == 0 || runs > uint64(rows) {
			return fmt.Errorf("malformed rle payload: %d runs over %d rows", runs, rows)
		}
		covered := uint64(0)
		for i := uint64(0); i < runs; i++ {
			r.oid()
			d := r.uvarint()
			if r.bad || d == 0 || covered+d > uint64(rows) {
				return fmt.Errorf("malformed rle payload: bad run length")
			}
			covered += d
		}
		if !r.done() || covered != uint64(rows) {
			return fmt.Errorf("malformed rle payload: runs cover %d of %d rows", covered, rows)
		}
	case EncFOR:
		r.oid()
		width := int(r.byte())
		if r.bad || width > 64 {
			return fmt.Errorf("malformed for payload: width %d", width)
		}
		if r.off+8*((rows*width+63)/64) != len(b) {
			return fmt.Errorf("malformed for payload")
		}
	case EncDict:
		card := r.uvarint()
		if r.bad || card == 0 || card > uint64(rows) || card > maxDictCard+1 {
			return fmt.Errorf("malformed dict payload: cardinality %d", card)
		}
		r.oid()
		for i := uint64(1); i < card; i++ {
			if d := r.uvarint(); r.bad || d == 0 {
				return fmt.Errorf("malformed dict payload: values not ascending")
			}
		}
		width := int(r.byte())
		if r.bad || width != bits.Len64(card-1) {
			return fmt.Errorf("malformed dict payload: width %d for cardinality %d", width, card)
		}
		nWords := (rows*width + 63) / 64
		if r.off+8*nWords != len(b) {
			return fmt.Errorf("malformed dict payload")
		}
		// every code must index the dictionary: the packed words of a
		// block of at most BlockRows rows and maxDictWidth-bit codes fit
		// a stack buffer, so the check unpacks like the kernels do
		var words [(BlockRows*maxDictWidth + 63) / 64]uint64
		if nWords > len(words) {
			return fmt.Errorf("malformed dict payload: %d rows", rows)
		}
		for i := range words[:nWords] {
			words[i] = binary.LittleEndian.Uint64(b[r.off+8*i:])
		}
		if maxPacked(words[:nWords], width, rows) >= card {
			return fmt.Errorf("malformed dict payload: code out of range")
		}
	default:
		return fmt.Errorf("unknown encoding %d", enc)
	}
	return nil
}
