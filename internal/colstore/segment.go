// Compressed columnar segments: each BlockRows-sized block of a sealed
// column is stored under the lightest of four MonetDB/X100-style
// encodings, chosen per block at build time. Predicate kernels evaluate
// equality and range selections directly on the compressed form and emit
// selection vectors, so a scan never decodes (or copies) rows that a
// predicate rejects: RLE answers equality in O(runs), frame-of-reference
// blocks prune via min/max before touching packed words, and block
// dictionaries compare small codes instead of 8-byte OIDs. A refine
// kernel narrows an existing selection, so a scan's later predicates
// test only the rows its earlier ones let through.
package colstore

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"srdf/internal/dict"
)

// Encoding names a segment's physical representation.
type Encoding uint8

const (
	// EncPlain stores the raw OID vector.
	EncPlain Encoding = iota
	// EncRLE stores (value, run-end) pairs; ideal for sorted or
	// low-cardinality clustered columns.
	EncRLE
	// EncFOR stores bit-packed deltas from the block minimum
	// (frame-of-reference); ideal for narrow value ranges without NULLs.
	EncFOR
	// EncDict stores a per-block value dictionary plus bit-packed codes;
	// ideal for low-cardinality blocks that do not run.
	EncDict
)

func (e Encoding) String() string {
	switch e {
	case EncRLE:
		return "rle"
	case EncFOR:
		return "for"
	case EncDict:
		return "dict"
	default:
		return "plain"
	}
}

// Segment is one immutable compressed block of a sealed column. Row
// indexes are block-relative ([0,Len)). Select appends the
// block-relative indexes of matching rows to sel without decompressing
// the block; Refine narrows a selection an earlier kernel
// built, testing only the rows it still holds. dict.Nil cells never
// match any kernel. FOR and dict blocks compare packed deltas or codes,
// unpacked a word at a time (see unpack), never decoded OIDs.
type Segment interface {
	// Len returns the row count of the block.
	Len() int
	// Encoding identifies the physical representation.
	Encoding() Encoding
	// Bytes returns the resident size of the compressed form.
	Bytes() int
	// Zone returns the block's min/max/NULL summary.
	Zone() Zone
	// Get returns row i.
	Get(i int) dict.OID
	// Decode appends all rows to dst and returns it.
	Decode(dst []dict.OID) []dict.OID
	// Select appends i for the rows i in [lo,hi) whose non-NULL value
	// lies in [vlo,vhi]. An equality test is the range [v,v]; a presence
	// test is [dict.Nil, ^dict.OID(0)].
	Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32
	// Refine keeps, in place and in order, the rows of sel (ascending
	// block-relative indexes, no base) whose non-NULL value lies in
	// [vlo,vhi], and returns the shortened slice. An equality test is
	// the range [v,v]; a presence test is [dict.Nil, ^dict.OID(0)].
	Refine(vlo, vhi dict.OID, sel []int32) []int32
}

// maxDictCard caps the per-block dictionary size; beyond it the chooser
// falls back to FOR or plain.
const maxDictCard = 256

// maxDictWidth is the widest code a valid dict payload carries: a
// snapshot admits maxDictCard+1 distinct values, so codes up to
// maxDictCard, which take bits.Len(maxDictCard) bits.
const maxDictWidth = 9

// EncodeBlock analyzes one block and returns it under the smallest
// feasible encoding (ties prefer RLE, then FOR, then dict: cheaper
// kernels win at equal size).
func EncodeBlock(vals []dict.OID) Segment {
	n := len(vals)
	zone := Zone{AllNull: true}
	runs := 0
	distinct := make(map[dict.OID]struct{}, 17)
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			runs++
		}
		if len(distinct) <= maxDictCard {
			distinct[v] = struct{}{}
		}
		if v == dict.Nil {
			zone.HasNull = true
			continue
		}
		if zone.AllNull {
			zone.Min, zone.Max, zone.AllNull = v, v, false
			continue
		}
		if v < zone.Min {
			zone.Min = v
		}
		if v > zone.Max {
			zone.Max = v
		}
	}

	plainBytes := 8 * n
	best := Encoding(EncPlain)
	// A compressed form must save at least 1/8 of the plain size to be
	// worth its decode cost; marginal wins stay plain (and zero-copy).
	bestBytes := plainBytes - plainBytes/8

	rleBytes := 12 * runs
	if rleBytes < bestBytes {
		best, bestBytes = EncRLE, rleBytes
	}
	forWidth := 0
	if !zone.HasNull && !zone.AllNull {
		forWidth = bits.Len64(uint64(zone.Max - zone.Min))
		if forBytes := 16 + packedBytes(n, forWidth); forBytes < bestBytes {
			best, bestBytes = EncFOR, forBytes
		}
	}
	dictWidth := 0
	if d := len(distinct); d <= maxDictCard {
		dictWidth = bits.Len64(uint64(d - 1))
		if dictBytes := 8*d + packedBytes(n, dictWidth); dictBytes < bestBytes {
			best = EncDict
		}
	}

	switch best {
	case EncRLE:
		return encodeRLE(vals, runs, zone)
	case EncFOR:
		return encodeFOR(vals, forWidth, zone)
	case EncDict:
		return encodeDict(vals, distinct, zone)
	default:
		seg := &plainSegment{vals: append([]dict.OID(nil), vals...), zone: zone}
		return seg
	}
}

func packedBytes(n, width int) int { return 8 * ((n*width + 63) / 64) }

// --- bit packing -----------------------------------------------------

// packBits stores n width-bit values (width in [0,64]) little-endian in
// a []uint64.
func packBits(deltas []uint64, width int) []uint64 {
	if width == 0 {
		return nil
	}
	out := make([]uint64, (len(deltas)*width+63)/64)
	for i, d := range deltas {
		bit := i * width
		w, off := bit>>6, uint(bit&63)
		out[w] |= d << off
		if off+uint(width) > 64 {
			out[w+1] |= d >> (64 - off)
		}
	}
	return out
}

// unpack writes the packed values first, first+1, ... (width bits each,
// width in [0,64]) to dst, each plus add. It is the one read path of FOR
// and dict blocks: it walks the words in order with a running shift, one
// load per word, so a value pays a shift and a mask, and a value that
// straddles two words one more shift and OR.
func unpack[T ~uint64](dst []T, packed []uint64, width, first int, add T) {
	if width == 0 {
		for i := range dst {
			dst[i] = add
		}
		return
	}
	if len(dst) == 0 {
		return
	}
	mask, uw := widthMask(width), uint(width)
	bit := first * width
	w, off := bit>>6, uint(bit&63)
	cur := packed[w]
	for i := range dst {
		v := cur >> off
		if off += uw; off >= 64 {
			off -= 64
			// the next word holds the value's high off bits; when off is
			// 0 the shift moves every bit past the mask (or out, at 64)
			if w++; w < len(packed) {
				cur = packed[w]
				v |= cur << (uw - off)
			}
		}
		dst[i] = T(v&mask) + add
	}
}

func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// unpackChunk is how many packed values a kernel unpacks at a time into
// its stack buffer.
const unpackChunk = 64

// selectPacked appends the rows i in [lo,hi) whose packed value lies in
// [dlo,dhi] (dlo <= dhi): the values are compared packed — as FOR
// deltas or dict codes — never as OIDs.
func selectPacked(packed []uint64, width, lo, hi int, dlo, dhi uint64, sel []int32) []int32 {
	var buf [unpackChunk]uint64
	n := len(sel)
	sel = slices.Grow(sel, hi-lo)[:n+hi-lo]
	span := dhi - dlo
	for c := lo; c < hi; c += unpackChunk {
		vals := buf[:min(unpackChunk, hi-c)]
		unpack(vals, packed, width, c, 0)
		for j, d := range vals {
			sel[n] = int32(c + j)
			if d-dlo <= span {
				n++
			}
		}
	}
	return sel[:n]
}

// refinePacked keeps, in place, the rows of sel whose packed value lies
// in [dlo,dhi] (dlo <= dhi). Survivors less than unpackChunk rows apart
// share one unpack, which stops at the last of them, so a sparse
// selection unpacks little more than the rows it holds.
func refinePacked(packed []uint64, width int, dlo, dhi uint64, sel []int32) []int32 {
	var buf [unpackChunk]uint64
	span := dhi - dlo
	n := 0
	for k := 0; k < len(sel); {
		first := int(sel[k])
		e := k + 1
		for e < len(sel) && int(sel[e])-first < unpackChunk {
			e++
		}
		unpack(buf[:int(sel[e-1])-first+1], packed, width, first, 0)
		for ; k < e; k++ {
			i := sel[k]
			sel[n] = i
			if buf[int(i)-first]-dlo <= span {
				n++
			}
		}
	}
	return sel[:n]
}

// maxPacked returns the largest of the first n packed values.
func maxPacked(packed []uint64, width, n int) uint64 {
	var buf [unpackChunk]uint64
	m := uint64(0)
	for c := 0; c < n; c += unpackChunk {
		vals := buf[:min(unpackChunk, n-c)]
		unpack(vals, packed, width, c, 0)
		for _, v := range vals {
			m = max(m, v)
		}
	}
	return m
}

// packedAt returns packed value i (width bits, width in [1,64]).
func packedAt(packed []uint64, width, i int) uint64 {
	bit := i * width
	w, off := bit>>6, uint(bit&63)
	v := packed[w] >> off
	if off+uint(width) > 64 {
		v |= packed[w+1] << (64 - off)
	}
	return v & widthMask(width)
}

// gather writes buf[k] = row k of seg for every k in sel (ascending,
// block-relative) and returns buf; a plain block returns its zero-copy
// view instead. A lazy block is resolved once, and then each encoding
// reads the selected rows in one loop of its own: FOR and dict unpack
// just the selected positions, RLE walks its runs alongside sel.
func gather(seg Segment, sel []int32, buf []dict.OID) []dict.OID {
	if lz, ok := seg.(*lazySegment); ok {
		seg = lz.load()
	}
	switch s := seg.(type) {
	case *plainSegment:
		return s.view()
	case *forSegment:
		if s.width == 0 {
			for _, k := range sel {
				buf[k] = s.base
			}
			break
		}
		for _, k := range sel {
			buf[k] = s.base + dict.OID(packedAt(s.packed, s.width, int(k)))
		}
	case *dictSegment:
		if s.width == 0 {
			for _, k := range sel {
				buf[k] = s.dictVals[0]
			}
			break
		}
		for _, k := range sel {
			buf[k] = s.dictVals[packedAt(s.packed, s.width, int(k))]
		}
	case *rleSegment:
		r := 0
		for _, k := range sel {
			for s.ends[r] <= k {
				r++
			}
			buf[k] = s.vals[r]
		}
	default:
		for _, k := range sel {
			buf[k] = seg.Get(int(k))
		}
	}
	return buf
}

// appendRows appends every row i in [lo,hi).
func appendRows(lo, hi int, sel []int32) []int32 {
	for i := lo; i < hi; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// selectVals appends the rows i in [lo,hi) whose vals[i] is a non-NULL
// value in [vlo,vhi]: the select kernel of flat vectors.
func selectVals(vals []dict.OID, lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	vlo = max(vlo, dict.Nil+1) // dict.Nil is the smallest OID
	if vlo > vhi {
		return sel
	}
	span := vhi - vlo
	for i := lo; i < hi; i++ {
		if vals[i]-vlo <= span {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// refineVals keeps, in place, the rows i of sel whose vals[i] is a
// non-NULL value in [vlo,vhi]: the refine kernel of flat vectors.
func refineVals(vals []dict.OID, vlo, vhi dict.OID, sel []int32) []int32 {
	vlo = max(vlo, dict.Nil+1) // dict.Nil is the smallest OID
	if vlo > vhi {
		return sel[:0]
	}
	span := vhi - vlo
	n := 0
	for _, i := range sel {
		sel[n] = i
		if vals[i]-vlo <= span {
			n++
		}
	}
	return sel[:n]
}

// --- plain -----------------------------------------------------------

type plainSegment struct {
	vals []dict.OID
	zone Zone
}

func (s *plainSegment) Len() int           { return len(s.vals) }
func (s *plainSegment) Encoding() Encoding { return EncPlain }
func (s *plainSegment) Bytes() int         { return 8 * len(s.vals) }
func (s *plainSegment) Zone() Zone         { return s.zone }
func (s *plainSegment) Get(i int) dict.OID { return s.vals[i] }

// view exposes the raw vector for zero-copy block reads.
func (s *plainSegment) view() []dict.OID { return s.vals }

func (s *plainSegment) Decode(dst []dict.OID) []dict.OID { return append(dst, s.vals...) }

func (s *plainSegment) Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	return selectVals(s.vals, lo, hi, vlo, vhi, sel)
}

func (s *plainSegment) Refine(vlo, vhi dict.OID, sel []int32) []int32 {
	return refineVals(s.vals, vlo, vhi, sel)
}

// --- run-length ------------------------------------------------------

type rleSegment struct {
	vals []dict.OID // one per run
	ends []int32    // cumulative exclusive end of each run
	zone Zone
}

func encodeRLE(vals []dict.OID, runs int, zone Zone) *rleSegment {
	s := &rleSegment{
		vals: make([]dict.OID, 0, runs),
		ends: make([]int32, 0, runs),
		zone: zone,
	}
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			s.vals = append(s.vals, v)
			s.ends = append(s.ends, int32(i))
		}
		s.ends[len(s.ends)-1] = int32(i + 1)
	}
	return s
}

func (s *rleSegment) Len() int {
	if len(s.ends) == 0 {
		return 0
	}
	return int(s.ends[len(s.ends)-1])
}
func (s *rleSegment) Encoding() Encoding { return EncRLE }
func (s *rleSegment) Bytes() int         { return 8*len(s.vals) + 4*len(s.ends) }
func (s *rleSegment) Zone() Zone         { return s.zone }

func (s *rleSegment) Get(i int) dict.OID {
	r := sort.Search(len(s.ends), func(k int) bool { return s.ends[k] > int32(i) })
	return s.vals[r]
}

func (s *rleSegment) Decode(dst []dict.OID) []dict.OID {
	n := len(dst)
	dst = slices.Grow(dst, s.Len())[:n+s.Len()]
	out, start := dst[n:], 0
	for r, v := range s.vals {
		run := out[start:s.ends[r]]
		for i := range run {
			run[i] = v
		}
		start = int(s.ends[r])
	}
	return dst
}

// runWindow appends the rows of run r clipped to [lo,hi).
func (s *rleSegment) runWindow(r, lo, hi int, sel []int32) []int32 {
	rlo := 0
	if r > 0 {
		rlo = int(s.ends[r-1])
	}
	return appendRows(max(rlo, lo), min(int(s.ends[r]), hi), sel)
}

func (s *rleSegment) Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	for r, rv := range s.vals {
		if rv != dict.Nil && rv >= vlo && rv <= vhi {
			sel = s.runWindow(r, lo, hi, sel)
		}
	}
	return sel
}

// Refine walks the runs alongside the selection: each run's value is
// tested once, when the first survivor inside it arrives.
func (s *rleSegment) Refine(vlo, vhi dict.OID, sel []int32) []int32 {
	n, r, end, ok := 0, -1, int32(0), false
	for _, i := range sel {
		for i >= end {
			r++
			end = s.ends[r]
			v := s.vals[r]
			ok = v != dict.Nil && v >= vlo && v <= vhi
		}
		sel[n] = i
		if ok {
			n++
		}
	}
	return sel[:n]
}

// --- frame of reference ----------------------------------------------

// forSegment stores v[i] = base + delta[i] with deltas bit-packed. Only
// chosen for blocks without NULLs, so every row is a valid value.
type forSegment struct {
	base   dict.OID
	width  int
	n      int
	packed []uint64
	zone   Zone
}

func encodeFOR(vals []dict.OID, width int, zone Zone) *forSegment {
	deltas := make([]uint64, len(vals))
	for i, v := range vals {
		deltas[i] = uint64(v - zone.Min)
	}
	return &forSegment{
		base:   zone.Min,
		width:  width,
		n:      len(vals),
		packed: packBits(deltas, width),
		zone:   zone,
	}
}

func (s *forSegment) Len() int           { return s.n }
func (s *forSegment) Encoding() Encoding { return EncFOR }
func (s *forSegment) Bytes() int         { return 16 + 8*len(s.packed) }
func (s *forSegment) Zone() Zone         { return s.zone }
func (s *forSegment) Get(i int) dict.OID {
	var v [1]dict.OID
	unpack(v[:], s.packed, s.width, i, s.base)
	return v[0]
}

func (s *forSegment) Decode(dst []dict.OID) []dict.OID {
	n := len(dst)
	dst = slices.Grow(dst, s.n)[:n+s.n]
	unpack(dst[n:], s.packed, s.width, 0, s.base)
	return dst
}

// deltas maps [vlo,vhi] onto the block's delta range. none: no row can
// match (min/max prune, packed words never touched); all: every row
// matches.
func (s *forSegment) deltas(vlo, vhi dict.OID) (dlo, dhi uint64, none, all bool) {
	if vhi < s.zone.Min || vlo > s.zone.Max || vlo > vhi {
		return 0, 0, true, false
	}
	if vlo <= s.zone.Min && vhi >= s.zone.Max {
		return 0, 0, false, true
	}
	if vlo > s.base {
		dlo = uint64(vlo - s.base)
	}
	return dlo, uint64(vhi - s.base), false, false
}

func (s *forSegment) Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	switch dlo, dhi, none, all := s.deltas(vlo, vhi); {
	case none:
		return sel
	case all:
		return appendRows(lo, hi, sel) // FOR blocks are NULL-free
	default:
		return selectPacked(s.packed, s.width, lo, hi, dlo, dhi, sel)
	}
}

func (s *forSegment) Refine(vlo, vhi dict.OID, sel []int32) []int32 {
	switch dlo, dhi, none, all := s.deltas(vlo, vhi); {
	case none:
		return sel[:0]
	case all:
		return sel
	default:
		return refinePacked(s.packed, s.width, dlo, dhi, sel)
	}
}

// --- block dictionary ------------------------------------------------

// dictSegment stores the block's distinct values sorted ascending plus a
// bit-packed code per row. dict.Nil, when present, is always code 0
// (it is the smallest OID).
type dictSegment struct {
	dictVals []dict.OID
	width    int
	n        int
	packed   []uint64
	zone     Zone
}

func encodeDict(vals []dict.OID, distinct map[dict.OID]struct{}, zone Zone) *dictSegment {
	dv := make([]dict.OID, 0, len(distinct))
	for v := range distinct {
		dv = append(dv, v)
	}
	slices.Sort(dv)
	code := make(map[dict.OID]uint64, len(dv))
	for i, v := range dv {
		code[v] = uint64(i)
	}
	width := bits.Len64(uint64(len(dv) - 1))
	deltas := make([]uint64, len(vals))
	for i, v := range vals {
		deltas[i] = code[v]
	}
	return &dictSegment{
		dictVals: dv,
		width:    width,
		n:        len(vals),
		packed:   packBits(deltas, width),
		zone:     zone,
	}
}

func (s *dictSegment) Len() int           { return s.n }
func (s *dictSegment) Encoding() Encoding { return EncDict }
func (s *dictSegment) Bytes() int         { return 8*len(s.dictVals) + 8*len(s.packed) }
func (s *dictSegment) Zone() Zone         { return s.zone }
func (s *dictSegment) Get(i int) dict.OID {
	var c [1]uint64
	unpack(c[:], s.packed, s.width, i, 0)
	return s.dictVals[c[0]]
}

func (s *dictSegment) Decode(dst []dict.OID) []dict.OID {
	n := len(dst)
	dst = slices.Grow(dst, s.n)[:n+s.n]
	out := dst[n:]
	unpack(out, s.packed, s.width, 0, 0) // codes, mapped in place
	for i, c := range out {
		out[i] = s.dictVals[c]
	}
	return dst
}

// codes maps [vlo,vhi] onto the block's code range once: the dictionary
// is sorted, so a value range is a code range. none: no non-NULL row can
// match; all: every row matches.
func (s *dictSegment) codes(vlo, vhi dict.OID) (clo, chi uint64, none, all bool) {
	lo, _ := slices.BinarySearch(s.dictVals, vlo)
	hi, found := slices.BinarySearch(s.dictVals, vhi)
	if found {
		hi++
	}
	if lo == 0 && s.zone.HasNull {
		lo = 1 // never select NULL cells
	}
	if lo >= hi {
		return 0, 0, true, false
	}
	return uint64(lo), uint64(hi - 1), false, lo == 0 && hi == len(s.dictVals)
}

func (s *dictSegment) Select(lo, hi int, vlo, vhi dict.OID, sel []int32) []int32 {
	switch clo, chi, none, all := s.codes(vlo, vhi); {
	case none:
		return sel // codes never touched
	case all:
		return appendRows(lo, hi, sel)
	default:
		return selectPacked(s.packed, s.width, lo, hi, clo, chi, sel)
	}
}

func (s *dictSegment) Refine(vlo, vhi dict.OID, sel []int32) []int32 {
	switch clo, chi, none, all := s.codes(vlo, vhi); {
	case none:
		return sel[:0]
	case all:
		return sel
	default:
		return refinePacked(s.packed, s.width, clo, chi, sel)
	}
}

// EncodingCounts tallies segments per encoding, for Explain and stats.
type EncodingCounts [4]int

func (ec EncodingCounts) String() string {
	s := ""
	for e, n := range ec {
		if n == 0 {
			continue
		}
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("%s×%d", Encoding(e), n)
	}
	if s == "" {
		return "none"
	}
	return s
}
