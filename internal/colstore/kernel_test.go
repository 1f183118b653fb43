package colstore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"srdf/internal/dict"
)

// bruteRefine keeps the rows of in whose value is a non-NULL value in
// [vlo,vhi].
func bruteRefine(vals []dict.OID, in []int32, vlo, vhi dict.OID) []int32 {
	out := []int32{}
	for _, i := range in {
		if v := vals[i]; v != dict.Nil && v >= vlo && v <= vhi {
			out = append(out, i)
		}
	}
	return out
}

// kernelMismatch checks every kernel of seg against brute force over
// vals: Decode and Get, Select on the window [lo,hi) as a range, an
// equality and a presence test, and Refine of the ascending selection in to
// [vlo,vhi]. It returns "" when all agree, else what disagreed.
func kernelMismatch(seg Segment, vals []dict.OID, lo, hi int, vlo, vhi dict.OID, in []int32) string {
	if seg.Len() != len(vals) {
		return fmt.Sprintf("Len = %d, want %d", seg.Len(), len(vals))
	}
	dec := seg.Decode([]dict.OID{lit(7)}) // decodes append
	if len(dec) != len(vals)+1 || dec[0] != lit(7) {
		return fmt.Sprintf("Decode appended %d values, want %d", len(dec)-1, len(vals))
	}
	for i, v := range vals {
		if dec[i+1] != v {
			return fmt.Sprintf("Decode[%d] = %v, want %v", i, dec[i+1], v)
		}
		if g := seg.Get(i); g != v {
			return fmt.Sprintf("Get(%d) = %v, want %v", i, g, v)
		}
	}
	buf := make([]dict.OID, len(vals))
	g := gather(seg, in, buf)
	for _, k := range in {
		if g[k] != vals[k] {
			return fmt.Sprintf("gather %v: row %d = %v, want %v", in, k, g[k], vals[k])
		}
	}
	prefix := []int32{-1} // selects append after what sel holds
	for _, r := range [][2]dict.OID{{vlo, vhi}, {vlo, vlo}, {dict.Nil, ^dict.OID(0)}} {
		// a range, an equality test and a presence test
		inRange := func(v dict.OID) bool { return v >= r[0] && v <= r[1] }
		got := seg.Select(lo, hi, r[0], r[1], append([]int32(nil), prefix...))
		if want := bruteSelect(vals, lo, hi, inRange); got[0] != -1 || !eqSel(got[1:], want) {
			return fmt.Sprintf("Select[%d,%d) [%v,%v]: got %v want %v", lo, hi, r[0], r[1], got[1:], want)
		}
	}
	want := bruteRefine(vals, in, vlo, vhi)
	sel := append([]int32(nil), in...)
	if got := seg.Refine(vlo, vhi, sel); !eqSel(got, want) {
		return fmt.Sprintf("Refine %v [%v,%v]: got %v want %v", in, vlo, vhi, got, want)
	}
	// an equality refine is the range [v,v], a presence refine the full range
	if got, want := seg.Refine(vlo, vlo, append([]int32(nil), in...)), bruteRefine(vals, in, vlo, vlo); !eqSel(got, want) {
		return fmt.Sprintf("Refine %v [%v,%v]: got %v want %v", in, vlo, vlo, got, want)
	}
	if got, want := seg.Refine(dict.Nil, ^dict.OID(0), append([]int32(nil), in...)), bruteRefine(vals, in, dict.Nil, ^dict.OID(0)); !eqSel(got, want) {
		return fmt.Sprintf("presence Refine %v: got %v want %v", in, got, want)
	}
	return ""
}

// lazyCopy serializes seg and restores it as a one-block column: the
// returned segment is the lazy form a snapshot-opened store scans.
func lazyCopy(seg Segment) (Segment, error) {
	payload, err := appendSegmentPayload(nil, seg)
	if err != nil {
		return nil, err
	}
	metas := []BlockMeta{{Enc: seg.Encoding(), Rows: seg.Len(), Zone: seg.Zone(), Len: len(payload)}}
	c, err := RestoreSealed("t.c", 0, metas, payload, nil)
	if err != nil {
		return nil, err
	}
	return c.segs[0], nil
}

// randSel returns a random ascending selection of rows in [0,n).
func randSel(rng *rand.Rand, n int) []int32 {
	keep := rng.Intn(4) // 0: empty-ish, 3: dense
	out := []int32{}
	for i := 0; i < n; i++ {
		if rng.Intn(4) < keep || rng.Intn(64) == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// randWindow returns a random non-empty [lo,hi) inside [0,n).
func randWindow(rng *rand.Rand, n int) (int, int) {
	lo := rng.Intn(n)
	return lo, lo + 1 + rng.Intn(n-lo)
}

// randRange returns a [vlo,vhi] probe over vals: around stored values
// mostly, sometimes the whole domain or an inverted (empty) range.
func randRange(rng *rand.Rand, vals []dict.OID) (dict.OID, dict.OID) {
	a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
	if a > b {
		a, b = b, a
	}
	switch rng.Intn(8) {
	case 0:
		return dict.Nil, ^dict.OID(0)
	case 1:
		return b, a // inverted unless equal
	case 2:
		return a, a
	case 3:
		return a + 1, b - 1
	}
	return a, b
}

// forBlock builds a FOR block of n rows packed at width w: deltas below
// 2^w, with the smallest and (from two rows on) the largest present, and
// a third of the rows near the top so every bit is exercised. Width 0 is
// a constant block. The encoder never picks FOR at widths near 64 (plain
// is smaller), so the block is built directly.
func forBlock(rng *rand.Rand, n, w int) (Segment, []dict.OID) {
	top := widthMask(w)
	base := dict.OID(1)
	if w < 64 {
		base += dict.OID(rng.Uint64() >> 1 &^ top)
	} else {
		top-- // from base 1 the deltas end at 2^64-1: dict.Nil is never stored
	}
	vals := make([]dict.OID, n)
	for i := range vals {
		d := rng.Uint64() & top
		if rng.Intn(3) == 0 {
			d = top - min(top, uint64(rng.Intn(3)))
		}
		vals[i] = base + dict.OID(d)
	}
	vals[rng.Intn(n)] = base
	if n > 1 {
		vals[rng.Intn(n)] = base + dict.OID(top)
	}
	return encodeFOR(vals, w, BuildZoneMap(vals).Zones[0]), vals
}

// dictBlock builds a dict block of n rows (NULLs included when nulls)
// whose codes are packed at width w. Widths up to bits.Len(n-1) are the
// natural width of a block with that many distinct values; wider ones
// pad the codes, which the kernels must read just the same (a snapshot
// only admits the natural width, so those stay in memory).
func dictBlock(rng *rand.Rand, n, w int, nulls bool) (Segment, []dict.OID, bool) {
	card, natural := min(n, 1+rng.Intn(20), 1<<min(w, 20)), w == 0
	if lo := 1<<max(min(w-1, 20), 0) + 1; w > 0 && lo <= min(n, maxDictCard+1) {
		// 2^(w-1)+1 ... 2^w distinct values need exactly w bits
		card, natural = lo+rng.Intn(min(lo-1, min(n, maxDictCard+1)-lo+1)), true
	}
	domain := make([]dict.OID, 0, card)
	seen := map[dict.OID]bool{}
	if nulls {
		domain, seen[dict.Nil] = append(domain, dict.Nil), true
	}
	for len(domain) < card {
		v := lit(uint64(1 + rng.Intn(1<<20)))
		if !seen[v] {
			domain, seen[v] = append(domain, v), true
		}
	}
	vals := make([]dict.OID, n)
	for i := range vals {
		vals[i] = domain[rng.Intn(card)]
	}
	copy(vals, domain) // every code occurs, the widest included
	distinct := map[dict.OID]struct{}{}
	for _, v := range vals {
		distinct[v] = struct{}{}
	}
	seg := encodeDict(vals, distinct, BuildZoneMap(vals).Zones[0])
	if natural && seg.width != w {
		panic(fmt.Sprintf("dict block of %d values has width %d, want %d", card, seg.width, w))
	}
	if seg.width != w {
		codes := make([]uint64, n)
		for i := range codes {
			var c [1]uint64
			unpack(c[:], seg.packed, seg.width, i, 0)
			codes[i] = c[0]
		}
		seg.width, seg.packed = w, packBits(codes, w)
		natural = false
	}
	return seg, vals, natural
}

// kernelWidths are the packed widths the kernels must read exactly:
// empty, one bit, values that straddle words at odd widths, the
// half-word boundary on either side, and full words.
var kernelWidths = []int{0, 1, 7, 31, 32, 33, 63, 64}

// checkWidths runs kernelMismatch over FOR and dict blocks at every
// kernel width, in memory and (where a snapshot admits the block) on
// the lazily restored copy.
func checkWidths(t *testing.T, rng *rand.Rand) {
	for _, w := range kernelWidths {
		for _, n := range []int{1, 63, 64, 65, BlockRows - 3, BlockRows} {
			type block struct {
				name   string
				seg    Segment
				vals   []dict.OID
				serial bool
			}
			forSeg, forVals := forBlock(rng, n, w)
			blocks := []block{{"for", forSeg, forVals, true}}
			for _, nulls := range []bool{false, true} {
				if nulls && n == 1 {
					continue
				}
				seg, vals, natural := dictBlock(rng, n, w, nulls)
				blocks = append(blocks, block{fmt.Sprintf("dict(nulls=%v)", nulls), seg, vals, natural})
			}
			for _, b := range blocks {
				segs := []Segment{b.seg}
				if b.serial {
					lz, err := lazyCopy(b.seg)
					if err != nil {
						t.Fatalf("%s w=%d n=%d: restore: %v", b.name, w, n, err)
					}
					segs = append(segs, lz)
				}
				for _, seg := range segs {
					for trial := 0; trial < 4; trial++ {
						lo, hi := randWindow(rng, n)
						vlo, vhi := randRange(rng, b.vals)
						if msg := kernelMismatch(seg, b.vals, lo, hi, vlo, vhi, randSel(rng, n)); msg != "" {
							t.Fatalf("%s w=%d n=%d (%T): %s", b.name, w, n, seg, msg)
						}
					}
				}
			}
		}
	}
}

// FuzzSegmentKernels encodes a fuzzed value block under every encoding
// that can hold it and checks the kernels against brute force on a
// fuzzed window, range and input selection, in memory and after a
// serialize round trip. It must never panic.
//
// raw decodes as: byte 0 the delta width (mod 65), byte 1 a NULL mask
// stride, then 8 bytes per value (masked to the width, offset from a
// base) up to BlockRows values. sel is a row bitmap (rows past its end
// are selected). pick chooses whether vlo/vhi index stored values.
func FuzzSegmentKernels(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(0), uint16(2), uint64(0), uint64(1), byte(3), []byte{0xff})
	f.Add([]byte{64, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9}, uint16(1), uint16(3), uint64(1), uint64(2), byte(1), []byte{0x5})
	f.Add(append([]byte{33, 2}, make([]byte, 8*200)...), uint16(10), uint16(150), uint64(5), uint64(1<<40), byte(0), []byte{0xaa, 0x55})
	f.Fuzz(func(t *testing.T, raw []byte, wlo, whi uint16, vlo, vhi uint64, pick byte, selBits []byte) {
		if len(raw) < 10 {
			return
		}
		width, stride := int(raw[0])%65, int(raw[1])
		raw = raw[2:]
		n := min(len(raw)/8, BlockRows)
		if n == 0 {
			return
		}
		mask := widthMask(width)
		base := uint64(1) << 40
		vals := make([]dict.OID, n)
		for i := range vals {
			var u uint64
			for _, b := range raw[8*i : 8*i+8] {
				u = u<<8 | uint64(b)
			}
			vals[i] = dict.OID(base + u&mask) // wraps past the top; still a value
			if stride > 0 && i%stride == 0 {
				vals[i] = dict.Nil
			}
		}
		lo := int(wlo) % n
		hi := lo + 1 + int(whi)%(n-lo)
		qlo, qhi := dict.OID(vlo), dict.OID(vhi)
		if pick&1 != 0 {
			qlo = vals[vlo%uint64(n)]
		}
		if pick&2 != 0 {
			qhi = vals[vhi%uint64(n)]
		}
		in := []int32{}
		for i := 0; i < n; i++ {
			if i/8 >= len(selBits) || selBits[i/8]>>(i%8)&1 != 0 {
				in = append(in, int32(i))
			}
		}

		zone := BuildZoneMap(vals).Zones[0]
		runs, distinct := 0, map[dict.OID]struct{}{}
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				runs++
			}
			distinct[v] = struct{}{}
		}
		segs := []Segment{
			&plainSegment{vals: append([]dict.OID(nil), vals...), zone: zone},
			encodeRLE(vals, runs, zone),
			EncodeBlock(vals),
		}
		if !zone.HasNull && !zone.AllNull {
			segs = append(segs, encodeFOR(vals, bits.Len64(uint64(zone.Max-zone.Min)), zone))
		}
		if len(distinct) <= maxDictCard+1 {
			segs = append(segs, encodeDict(vals, distinct, zone))
		}
		for _, seg := range segs {
			lz, err := lazyCopy(seg)
			if err != nil {
				t.Fatalf("%v: restore: %v", seg.Encoding(), err)
			}
			for _, s := range []Segment{seg, lz} {
				if msg := kernelMismatch(s, vals, lo, hi, qlo, qhi, in); msg != "" {
					t.Fatalf("%v (%T): %s", seg.Encoding(), s, msg)
				}
			}
		}
	})
}
