package triples

import (
	"cmp"
	"math/bits"
	"slices"

	"srdf/internal/dict"
)

const (
	// radixBits is the widest digit of one counting pass: 2048 uint32
	// counters stay resident in L1 while the rows stream through.
	radixBits    = 11
	radixBuckets = 1 << radixBits
	// radixMinRows is the input size below which clearing and summing
	// the counters of every pass costs more than a comparison sort.
	radixMinRows = 256
)

// sortRows returns the order that arranges rows 0..n-1 ascending by
// keys[0], then keys[1], and so on; rows that tie on every key stay in
// input order. It is the one sort kernel behind every projection: an LSD
// radix sort — one stable counting pass per digit of at most 11 bits,
// least significant key first — over keys densified to their significant bits,
// so a column of ~64 k distinct terms costs two passes instead of the
// n·log n closure calls of a comparison sort.
func sortRows(n int, keys ...[]dict.OID) []uint32 {
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	if sortedRows(n, keys) {
		return idx
	}
	if n < radixMinRows {
		slices.SortFunc(idx, func(x, y uint32) int {
			if c := compareRows(keys, x, y); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		return idx
	}
	tmp := make([]uint32, n)
	dense := make([]uint64, n)
	for k := len(keys) - 1; k >= 0; k-- {
		width := densify(keys[k], dense)
		passes := (width + radixBits - 1) / radixBits
		if passes == 0 {
			continue // a constant column orders nothing
		}
		// equal digits: 16 significant bits sort as 8+8, not 11+5, so
		// the scatter of each pass writes to as few streams as it can
		digit := (width + passes - 1) / passes
		mask := uint64(1)<<digit - 1
		// a digit's histogram does not depend on the row order, so the
		// counts of all digits come from one sequential scan of the
		// key and each pass is left with a single gather per row
		var counts [(64 + radixBits - 1) / radixBits][radixBuckets]uint32
		for _, v := range dense {
			for d := 0; d < passes; d++ {
				counts[d][(v>>(d*digit))&mask]++
			}
		}
		for d := 0; d < passes; d++ {
			idx, tmp = radixPass(idx, tmp, dense, d*digit, mask, counts[d][:mask+1])
		}
	}
	return idx
}

// compareRows orders rows x and y by the key columns.
func compareRows(keys [][]dict.OID, x, y uint32) int {
	for _, k := range keys {
		if c := cmp.Compare(k[x], k[y]); c != 0 {
			return c
		}
	}
	return 0
}

// sortedRows reports whether the rows already ascend by the keys — one
// early-exiting scan that spares the passes for a table Dedup just left
// in SPO order and for batches generated in key order.
func sortedRows(n int, keys [][]dict.OID) bool {
	for i := 1; i < n; i++ {
		if compareRows(keys, uint32(i-1), uint32(i)) > 0 {
			return false
		}
	}
	return true
}

// densify writes key to out as order-preserving small integers and
// returns their bit width. An OID is a dense payload plus the literal
// flag in bit 63: moving the flag down to just above the widest payload
// and subtracting the column minimum leaves about log2(#terms)
// significant bits out of 64 (and the full 64 only when a payload
// really uses 63 bits, where the mapping is the identity).
func densify(key []dict.OID, out []uint64) int {
	lo, hi := key[0], key[0]
	var maxPayload uint64
	for _, v := range key {
		lo, hi = min(lo, v), max(hi, v)
		maxPayload = max(maxPayload, v.Payload())
	}
	flagAt := uint(bits.Len64(maxPayload))
	pack := func(v dict.OID) uint64 { return v.Payload() | uint64(v>>63)<<flagAt }
	base := pack(lo)
	for i, v := range key {
		out[i] = pack(v) - base
	}
	return bits.Len64(pack(hi) - base)
}

// radixPass stably distributes the rows of src into dst by the digit of
// their key selected by shift and mask, given that digit's histogram,
// and returns the two buffers with roles swapped. A digit on which all
// rows agree moves nothing and is skipped.
func radixPass(src, dst []uint32, key []uint64, shift int, mask uint64, cnt []uint32) (sorted, spare []uint32) {
	if cnt[(key[0]>>shift)&mask] == uint32(len(src)) {
		return src, dst
	}
	var sum uint32
	for d, c := range cnt {
		cnt[d] = sum
		sum += c
	}
	for _, r := range src {
		d := (key[r] >> shift) & mask
		dst[cnt[d]] = r
		cnt[d]++
	}
	return dst, src
}
