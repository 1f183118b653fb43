package exec

import (
	"sync/atomic"

	"srdf/internal/dict"
)

// BloomFilter is a split bloom filter over OIDs: two probe positions
// derived from one 64-bit mix of the OID, in a power-of-two bit array
// sized at ~10 bits per key (<1% false positives). It is filled once on
// a hash join's build side and then read by the probe-side scans (of
// every query sharing the plan), so it must not be mutated after
// publication.
type BloomFilter struct {
	bits []uint64
	mask uint64 // bit-index mask; len(bits)*64 - 1
}

// NewBloomFilter sizes a filter for n keys.
func NewBloomFilter(n int) *BloomFilter {
	bits := uint64(64)
	for bits < uint64(10*n) {
		bits <<= 1
	}
	return &BloomFilter{bits: make([]uint64, bits/64), mask: bits - 1}
}

// mix64 is the splitmix64 finalizer — a cheap full-avalanche mix so the
// two probe positions are independent even for dense OID ranges.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts o.
func (f *BloomFilter) Add(o dict.OID) {
	h := mix64(uint64(o))
	i1 := h & f.mask
	i2 := (h >> 32) & f.mask
	f.bits[i1>>6] |= 1 << (i1 & 63)
	f.bits[i2>>6] |= 1 << (i2 & 63)
}

// MayContain reports whether o could have been added: false means o is
// provably absent (no false negatives), true is a maybe.
func (f *BloomFilter) MayContain(o dict.OID) bool {
	h := mix64(uint64(o))
	i1 := h & f.mask
	i2 := (h >> 32) & f.mask
	return f.bits[i1>>6]&(1<<(i1&63)) != 0 && f.bits[i2>>6]&(1<<(i2&63)) != 0
}

// BloomHandle carries a runtime join filter from a hash join's build
// side down into a probe-side scan. The planner allocates the handle and
// wires it to both ends; HashJoinOp publishes the filled filter in Open
// after draining the build side and before opening the probe side, so
// every probe-side scan observes it (or, if the probe opens without a
// publication — a plan shape the planner avoids — scans simply skip the
// filter and stay exact).
//
// The handle lives in the (cached, re-executable) plan, so publication
// is atomic: concurrent executions of one cached plan may race
// publish/Filter, and the filter contents are deterministic for a given
// epoch, so observing another execution's filter is harmless.
type BloomHandle struct {
	// Var is the shared join variable the filter keys on.
	Var    string
	filter atomic.Pointer[BloomFilter]
}

func (h *BloomHandle) publish(f *BloomFilter) { h.filter.Store(f) }

// Filter returns the published filter, or nil before publication.
func (h *BloomHandle) Filter() *BloomFilter { return h.filter.Load() }

// ScanBloom attaches a bloom handle to one scan column: Prop indexes the
// star property whose values are tested, or -1 for the subject. Filters
// only ever drop rows whose join key is provably absent from the build
// side, so the join result is row-identical with filtering disabled.
type ScanBloom struct {
	H    *BloomHandle
	Prop int // index into Star.Props; -1 = subject
}
