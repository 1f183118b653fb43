package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"srdf/internal/dict"
)

// blockShapes generates value distributions that steer the encoder to
// each of the four encodings.
var blockShapes = map[string]func(rng *rand.Rand, n int) []dict.OID{
	"runs": func(rng *rand.Rand, n int) []dict.OID { // → RLE
		vals := make([]dict.OID, n)
		v := lit(uint64(1 + rng.Intn(100)))
		for i := range vals {
			if rng.Intn(64) == 0 {
				v = lit(uint64(1 + rng.Intn(100)))
			}
			vals[i] = v
		}
		return vals
	},
	"narrow": func(rng *rand.Rand, n int) []dict.OID { // → FOR
		base := uint64(1 + rng.Intn(1_000_000))
		vals := make([]dict.OID, n)
		for i := range vals {
			vals[i] = lit(base + uint64(rng.Intn(250)))
		}
		return vals
	},
	"lowcard": func(rng *rand.Rand, n int) []dict.OID { // → dict
		domain := make([]dict.OID, 20)
		for i := range domain {
			domain[i] = lit(uint64(1 + rng.Intn(1<<40)))
		}
		vals := make([]dict.OID, n)
		for i := range vals {
			vals[i] = domain[rng.Intn(len(domain))]
		}
		return vals
	},
	"random": func(rng *rand.Rand, n int) []dict.OID { // → plain
		vals := make([]dict.OID, n)
		for i := range vals {
			vals[i] = lit(1 + rng.Uint64()>>1)
		}
		return vals
	},
	"nullish": func(rng *rand.Rand, n int) []dict.OID { // NULL-heavy
		vals := make([]dict.OID, n)
		for i := range vals {
			if rng.Intn(3) > 0 {
				vals[i] = dict.Nil
			} else {
				vals[i] = lit(uint64(1 + rng.Intn(1000)))
			}
		}
		return vals
	},
}

func bruteSelect(vals []dict.OID, lo, hi int, pred func(dict.OID) bool) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if v := vals[i]; v != dict.Nil && pred(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

func eqSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegmentRoundtripAndKernels checks, for every block shape, that the
// chosen encoding decodes to the source values and that the predicate
// kernels agree with a brute-force scan over the decoded form.
func TestSegmentRoundtripAndKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, gen := range blockShapes {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(BlockRows)
			vals := gen(rng, n)
			seg := EncodeBlock(vals)
			if seg.Len() != n {
				t.Fatalf("%s: Len = %d, want %d", name, seg.Len(), n)
			}
			dec := seg.Decode(nil)
			for i, v := range vals {
				if dec[i] != v {
					t.Fatalf("%s/%s: Decode[%d] = %v, want %v", name, seg.Encoding(), i, dec[i], v)
				}
				if g := seg.Get(i); g != v {
					t.Fatalf("%s/%s: Get(%d) = %v, want %v", name, seg.Encoding(), i, g, v)
				}
			}
			// window-restricted kernels vs brute force
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			probe := vals[rng.Intn(n)]
			if probe == dict.Nil {
				probe = lit(5)
			}
			got := seg.Select(lo, hi, probe, probe, nil)
			want := bruteSelect(vals, lo, hi, func(v dict.OID) bool { return v == probe })
			if !eqSel(got, want) {
				t.Fatalf("%s/%s: SelectEq mismatch: got %v want %v", name, seg.Encoding(), got, want)
			}
			vlo := probe - dict.OID(rng.Intn(50))
			vhi := probe + dict.OID(rng.Intn(50))
			got = seg.Select(lo, hi, vlo, vhi, nil)
			want = bruteSelect(vals, lo, hi, func(v dict.OID) bool { return v >= vlo && v <= vhi })
			if !eqSel(got, want) {
				t.Fatalf("%s/%s: SelectRange[%v,%v] mismatch", name, seg.Encoding(), vlo, vhi)
			}
			got = seg.Select(lo, hi, dict.Nil, ^dict.OID(0), nil)
			want = bruteSelect(vals, lo, hi, func(dict.OID) bool { return true })
			if !eqSel(got, want) {
				t.Fatalf("%s/%s: SelectNotNil mismatch", name, seg.Encoding())
			}
			// zone summary matches a fresh zone-map build
			zm := BuildZoneMap(vals[:min(n, BlockRows)])
			if z, w := seg.Zone(), zm.Zones[0]; z != w {
				t.Fatalf("%s/%s: Zone = %+v, want %+v", name, seg.Encoding(), z, w)
			}
		}
	}
}

// TestEncodingChoice pins the encoder's choice on archetypal blocks.
func TestEncodingChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sorted := make([]dict.OID, BlockRows)
	for i := range sorted {
		sorted[i] = lit(uint64(1 + i/128)) // long runs
	}
	if e := EncodeBlock(sorted).Encoding(); e != EncRLE {
		t.Errorf("runs block encoded as %v, want rle", e)
	}
	if e := EncodeBlock(blockShapes["narrow"](rng, BlockRows)).Encoding(); e != EncFOR {
		t.Errorf("narrow block encoded as %v, want for", e)
	}
	if e := EncodeBlock(blockShapes["lowcard"](rng, BlockRows)).Encoding(); e != EncDict {
		t.Errorf("low-cardinality block encoded as %v, want dict", e)
	}
	if e := EncodeBlock(blockShapes["random"](rng, BlockRows)).Encoding(); e != EncPlain {
		t.Errorf("random block encoded as %v, want plain", e)
	}
	for _, shape := range []string{"runs", "narrow", "lowcard"} {
		vals := blockShapes[shape](rng, BlockRows)
		if seg := EncodeBlock(vals); seg.Bytes() >= 8*len(vals) {
			t.Errorf("%s block not smaller than plain: %d >= %d", shape, seg.Bytes(), 8*len(vals))
		}
	}
}

// sealColumn builds a sealed column from vals.
func sealColumn(t *testing.T, vals []dict.OID, pool *BufferPool) *Column {
	t.Helper()
	c := NewColumn("t", len(vals), pool)
	for i, v := range vals {
		if v != dict.Nil {
			c.Set(i, v)
		}
	}
	c.Seal()
	return c
}

// TestSealedColumnParity checks that every Column accessor agrees before
// and after Seal.
func TestSealedColumnParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, gen := range blockShapes {
		vals := gen(rng, 2*BlockRows+17) // straddles blocks, ragged tail
		un := NewColumn("u", len(vals), nil)
		for i, v := range vals {
			if v != dict.Nil {
				un.Set(i, v)
			}
		}
		sealed := sealColumn(t, vals, nil)
		if sealed.Len() != un.Len() || sealed.NullCount() != un.NullCount() {
			t.Fatalf("%s: Len/NullCount diverge after seal", name)
		}
		if !sealed.Sealed() || un.Sealed() {
			t.Fatalf("%s: Sealed flags wrong", name)
		}
		for i := range vals {
			if sealed.Get(i) != un.Get(i) || sealed.IsNull(i) != un.IsNull(i) {
				t.Fatalf("%s: row %d diverges after seal", name, i)
			}
		}
		sv, uv := sealed.Values(), un.Values()
		for i := range sv {
			if sv[i] != uv[i] {
				t.Fatalf("%s: Values()[%d] diverges", name, i)
			}
		}
		// zone maps identical
		szm, uzm := sealed.Zones(), un.Zones()
		if len(szm.Zones) != len(uzm.Zones) {
			t.Fatalf("%s: zone counts diverge", name)
		}
		for b := range szm.Zones {
			if szm.Zones[b] != uzm.Zones[b] {
				t.Fatalf("%s: zone %d diverges: %+v vs %+v", name, b, szm.Zones[b], uzm.Zones[b])
			}
		}
	}
}

func TestSetOnSealedPanics(t *testing.T) {
	c := sealColumn(t, []dict.OID{lit(1), lit(2)}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Set on sealed column did not panic")
		}
	}()
	c.Set(0, lit(3))
}

// TestColumnKernelsAcrossBlocks runs predicates straddling block
// boundaries and compares the per-block kernels against brute force over
// the whole column.
func TestColumnKernelsAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, gen := range blockShapes {
		vals := gen(rng, 3*BlockRows+1) // single-row tail block
		c := sealColumn(t, vals, nil)
		if c.NumBlocks() != 4 {
			t.Fatalf("%s: blocks = %d, want 4", name, c.NumBlocks())
		}
		probe := vals[BlockRows-1] // value sitting at a block boundary
		if probe == dict.Nil {
			probe = vals[0]
		}
		vlo, vhi := probe-64, probe+64
		var gotEq, gotRg, gotNN []int32
		for b := 0; b < c.NumBlocks(); b++ {
			lo := b * BlockRows
			hi := min(lo+BlockRows, len(vals))
			gotEq = rebased(gotEq, lo, c.SelectBlock(b, 0, hi-lo, probe, probe, nil))
			gotRg = rebased(gotRg, lo, c.SelectBlock(b, 0, hi-lo, vlo, vhi, nil))
			gotNN = rebased(gotNN, lo, c.SelectBlock(b, 0, hi-lo, dict.Nil, ^dict.OID(0), nil))
		}
		if want := bruteSelect(vals, 0, len(vals), func(v dict.OID) bool { return v == probe }); !eqSel(gotEq, want) {
			t.Fatalf("%s: cross-block SelectEq mismatch", name)
		}
		if want := bruteSelect(vals, 0, len(vals), func(v dict.OID) bool { return v >= vlo && v <= vhi }); !eqSel(gotRg, want) {
			t.Fatalf("%s: cross-block SelectRange mismatch", name)
		}
		if want := bruteSelect(vals, 0, len(vals), func(dict.OID) bool { return true }); !eqSel(gotNN, want) {
			t.Fatalf("%s: cross-block SelectNotNil mismatch", name)
		}
	}
}

// rebased appends the block-relative rows of blk, offset by the block's
// first row lo, to sel.
func rebased(sel []int32, lo int, blk []int32) []int32 {
	for _, i := range blk {
		sel = append(sel, int32(lo)+i)
	}
	return sel
}

// TestAllNilBlocks covers columns with entirely-NULL blocks: the zones
// are AllNull, every kernel selects nothing, and Seal handles them.
func TestAllNilBlocks(t *testing.T) {
	vals := make([]dict.OID, 2*BlockRows+5)
	vals[BlockRows+3] = lit(42) // single value in block 1; blocks 0 and 2 all NULL
	c := sealColumn(t, vals, nil)
	zm := c.Zones()
	if !zm.Zones[0].AllNull || zm.Zones[1].AllNull || !zm.Zones[2].AllNull {
		t.Fatalf("AllNull flags wrong: %+v", zm.Zones)
	}
	for b := 0; b < c.NumBlocks(); b++ {
		lo := b * BlockRows
		hi := min(lo+BlockRows, len(vals))
		if sel := c.SelectBlock(b, 0, hi-lo, dict.Nil, ^dict.OID(0), nil); b != 1 && len(sel) != 0 {
			t.Errorf("block %d: all-NULL block selected %d rows", b, len(sel))
		}
	}
	if got := c.SelectBlock(1, 0, BlockRows, lit(42), lit(42), nil); len(got) != 1 || got[0] != 3 {
		t.Errorf("SelectEq in sparse block = %v, want [3]", got)
	}
	if c.NullCount() != len(vals)-1 {
		t.Errorf("NullCount = %d", c.NullCount())
	}
}

// TestSingleRowTailBlock covers the 1-row tail block edge case.
func TestSingleRowTailBlock(t *testing.T) {
	vals := make([]dict.OID, BlockRows+1)
	for i := range vals {
		vals[i] = lit(uint64(i + 1))
	}
	c := sealColumn(t, vals, nil)
	if c.NumBlocks() != 2 {
		t.Fatalf("blocks = %d", c.NumBlocks())
	}
	if got := c.SelectBlock(1, 0, 1, lit(uint64(BlockRows+1)), lit(uint64(BlockRows+1)), nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("tail block SelectEq = %v", got)
	}
	if v := c.Get(BlockRows); v != lit(uint64(BlockRows+1)) {
		t.Errorf("tail Get = %v", v)
	}
	if bv := c.BlockValues(1, make([]dict.OID, BlockRows)); len(bv) != 1 || bv[0] != lit(uint64(BlockRows+1)) {
		t.Errorf("tail BlockValues = %v", bv)
	}
}

// TestAscendingWindow compares the segment-aware binary search against a
// brute-force window over an ascending column with NULLs at the tail.
func TestAscendingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 2*BlockRows + 100
	vals := make([]dict.OID, n)
	v := uint64(10)
	keyed := n - 50 // NULLs at the tail
	for i := 0; i < keyed; i++ {
		v += uint64(rng.Intn(3))
		vals[i] = lit(v)
	}
	c := sealColumn(t, vals, nil)
	for trial := 0; trial < 50; trial++ {
		vlo := lit(uint64(rng.Intn(int(v) + 20)))
		vhi := vlo + dict.OID(rng.Intn(100))
		lo, hi := c.AscendingWindow(vlo, vhi)
		for i := 0; i < keyed; i++ {
			in := vals[i] >= vlo && vals[i] <= vhi
			if in != (i >= lo && i < hi) {
				t.Fatalf("window [%d,%d) wrong at row %d (v=%v, range [%v,%v])", lo, hi, i, vals[i], vlo, vhi)
			}
		}
	}
}

// TestGatherBlock checks the sparse gather path against Get.
func TestGatherBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, gen := range blockShapes {
		vals := gen(rng, BlockRows)
		c := sealColumn(t, vals, nil)
		sel := []int32{0, 17, 500, int32(BlockRows - 1)}
		buf := make([]dict.OID, BlockRows)
		view := c.GatherBlock(0, sel, buf)
		for _, k := range sel {
			if view[k] != vals[k] {
				t.Fatalf("%s: GatherBlock[%d] = %v, want %v", name, k, view[k], vals[k])
			}
		}
	}
}

// TestSealPoolAccounting checks segment-byte accounting and the
// compression ratio in pool stats.
func TestSealPoolAccounting(t *testing.T) {
	pool := NewPool(0)
	vals := make([]dict.OID, 4*BlockRows)
	for i := range vals {
		vals[i] = lit(uint64(1 + i/128)) // 8 runs per block
	}
	c := sealColumn(t, vals, pool)
	st := pool.Stats()
	if st.LogicalBytes != int64(8*len(vals)) {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, 8*len(vals))
	}
	if st.SegmentBytes <= 0 || st.SegmentBytes >= st.LogicalBytes {
		t.Errorf("SegmentBytes = %d not in (0,%d)", st.SegmentBytes, st.LogicalBytes)
	}
	if st.CompressionRatio < 2 {
		t.Errorf("CompressionRatio = %.2f, want >= 2 for run blocks", st.CompressionRatio)
	}
	if got := c.CompressedBytes(); int64(got) != st.SegmentBytes {
		t.Errorf("CompressedBytes = %d, pool says %d", got, st.SegmentBytes)
	}
	ec := c.Encodings()
	if ec[EncRLE] != 4 {
		t.Errorf("encodings = %v, want 4 rle blocks", ec)
	}
	if ec.String() != "rle×4" {
		t.Errorf("EncodingCounts.String() = %q", ec.String())
	}
}

// TestSegmentKernelQuick is the property check: on arbitrary value
// blocks, kernels always agree with brute force — on the whole block, on
// random [lo,hi) sub-windows, and for the refine kernel over a random
// ascending input selection — both on the encoded block and on the lazy
// segment restored from its serialized bytes. FOR and dict blocks are
// also checked at every packed width in kernelWidths, values straddling
// words included.
func TestSegmentKernelQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(BlockRows)
		vals := make([]dict.OID, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = dict.Nil
			case 1:
				vals[i] = lit(uint64(1 + rng.Intn(10)))
			default:
				vals[i] = lit(uint64(1 + rng.Intn(100000)))
			}
		}
		seg := EncodeBlock(vals)
		probe := lit(uint64(1 + rng.Intn(100000)))
		if !eqSel(seg.Select(0, n, probe, probe, nil),
			bruteSelect(vals, 0, n, func(v dict.OID) bool { return v == probe })) {
			return false
		}
		vlo, vhi := probe-dict.OID(rng.Intn(1000)), probe+dict.OID(rng.Intn(1000))
		if !eqSel(seg.Select(0, n, vlo, vhi, nil),
			bruteSelect(vals, 0, n, func(v dict.OID) bool { return v >= vlo && v <= vhi })) {
			return false
		}
		if !eqSel(seg.Select(0, n, dict.Nil, ^dict.OID(0), nil),
			bruteSelect(vals, 0, n, func(dict.OID) bool { return true })) {
			return false
		}
		lz, err := lazyCopy(seg)
		if err != nil {
			t.Logf("seed %d: restore: %v", seed, err)
			return false
		}
		for _, s := range []Segment{seg, lz} {
			for trial := 0; trial < 4; trial++ {
				lo, hi := randWindow(rng, n)
				qlo, qhi := vlo, vhi
				if trial > 0 {
					qlo, qhi = randRange(rng, vals)
				}
				if msg := kernelMismatch(s, vals, lo, hi, qlo, qhi, randSel(rng, n)); msg != "" {
					t.Logf("seed %d %v (%T): %s", seed, seg.Encoding(), s, msg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	checkWidths(t, rand.New(rand.NewSource(17)))
}
