package dict

import (
	"fmt"
	"sort"
)

// Literal order. Range pushdown and zone maps compare literal OIDs in
// place of values, which is sound only where payload order is value
// order. Organize establishes it for every literal it sees and records
// the watermark N: payloads 1..N are non-decreasing under Compare.
// Literals minted afterwards get payloads past N — the overflow — and,
// since every overflow OID is larger than every ordered one, blocks
// sealed at Organize (all values <= N) keep their OID-range kernels
// unchanged. The overflow literals are indexed by value so a range can
// still name them: a value range becomes the OID interval over 1..N plus
// the set of overflow OIDs whose values lie in it.

// Bound is one end of a value range; an unset Bound is open.
type Bound struct {
	V      Value
	Strict bool
	Set    bool
}

// LiteralOrder is an immutable view of the literal order at one instant:
// payloads 1..N are value-ordered, and the overflow index lists every
// later payload sorted by (value, payload). Plans read a view published
// with their epoch instead of the live dictionary, so writers minting
// literals never race a planner.
type LiteralOrder struct {
	N    uint64
	over []uint64
	vals []Value // payload-1 indexed; covers 1..N and every overflow payload
}

// Ordered reports that an ordered prefix exists, i.e. that literal OID
// ranges carry value semantics at all.
func (o *LiteralOrder) Ordered() bool { return o != nil && o.N > 0 }

// Range translates the value range [lo,hi] into literal OIDs: the
// inclusive prefix interval [first,last] (empty when first > last) and
// the overflow OIDs inside the range, ascending. Only meaningful when
// Ordered.
func (o *LiteralOrder) Range(lo, hi Bound) (first, last OID, over []OID) {
	prefix := o.vals[:o.N]
	first, last = LiteralOID(1), LiteralOID(o.N)
	if lo.Set {
		c, ok := prefixCeil(prefix, lo.V, lo.Strict)
		if !ok {
			first, last = 1, Nil
		} else {
			first = c
		}
	}
	if hi.Set && first <= last {
		f, ok := prefixFloor(prefix, hi.V, hi.Strict)
		if !ok {
			first, last = 1, Nil
		} else {
			last = f
		}
	}
	if first > last {
		first, last = 1, Nil // canonical empty interval
	}
	val := func(i int) Value { return o.vals[o.over[i]-1] }
	i, j := 0, len(o.over)
	if lo.Set {
		i = sort.Search(len(o.over), func(k int) bool { return above(val(k), lo) })
	}
	if hi.Set {
		j = sort.Search(len(o.over), func(k int) bool { return !below(val(k), hi) })
	}
	if i >= j {
		return first, last, nil
	}
	over = make([]OID, 0, j-i)
	for _, p := range o.over[i:j] {
		over = append(over, LiteralOID(p))
	}
	sort.Slice(over, func(a, b int) bool { return over[a] < over[b] })
	return first, last, over
}

// above reports that v satisfies the lower bound lo.
func above(v Value, lo Bound) bool {
	c := Compare(v, lo.V)
	return c > 0 || (c == 0 && !lo.Strict)
}

// below reports that v satisfies the upper bound hi.
func below(v Value, hi Bound) bool {
	c := Compare(v, hi.V)
	return c < 0 || (c == 0 && !hi.Strict)
}

// prefixCeil binary-searches the value-ordered prefix for the first
// value >= v (> v when strict).
func prefixCeil(prefix []Value, v Value, strict bool) (OID, bool) {
	i := sort.Search(len(prefix), func(k int) bool { return above(prefix[k], Bound{V: v, Strict: strict}) })
	if i >= len(prefix) {
		return Nil, false
	}
	return LiteralOID(uint64(i + 1)), true
}

// prefixFloor binary-searches the value-ordered prefix for the last
// value <= v (< v when strict).
func prefixFloor(prefix []Value, v Value, strict bool) (OID, bool) {
	i := sort.Search(len(prefix), func(k int) bool { return !below(prefix[k], Bound{V: v, Strict: strict}) })
	if i == 0 {
		return Nil, false
	}
	return LiteralOID(uint64(i)), true
}

// LiteralOrder returns the current literal-order view, first folding the
// literals minted since the previous view into the overflow index: one
// sort of the new payloads and one merge into a fresh slice, so views
// already handed out never change.
func (d *Dictionary) LiteralOrder() *LiteralOrder {
	d.mu.RLock()
	if len(d.overNew) == 0 {
		o := &LiteralOrder{N: uint64(d.litN), over: d.over, vals: d.litVals}
		d.mu.RUnlock()
		return o
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldOverflowLocked()
	return &LiteralOrder{N: uint64(d.litN), over: d.over, vals: d.litVals}
}

// LiteralOrderCounts returns the watermark N and the number of overflow
// literals minted since it was set.
func (d *Dictionary) LiteralOrderCounts() (ordered, overflow int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.litN, len(d.over) + len(d.overNew)
}

// lessOver orders overflow payloads by (value, payload).
func (d *Dictionary) lessOver(a, b uint64) bool {
	if c := Compare(d.litVals[a-1], d.litVals[b-1]); c != 0 {
		return c < 0
	}
	return a < b
}

func (d *Dictionary) foldOverflowLocked() {
	if len(d.overNew) == 0 {
		return
	}
	fresh := d.overNew
	sort.Slice(fresh, func(i, j int) bool { return d.lessOver(fresh[i], fresh[j]) })
	merged := make([]uint64, 0, len(d.over)+len(fresh))
	i, j := 0, 0
	for i < len(d.over) && j < len(fresh) {
		if d.lessOver(fresh[j], d.over[i]) {
			merged = append(merged, fresh[j])
			j++
		} else {
			merged = append(merged, d.over[i])
			i++
		}
	}
	merged = append(merged, d.over[i:]...)
	merged = append(merged, fresh[j:]...)
	d.over, d.overNew = merged, nil
}

// setWatermarkLocked declares payloads 1..n value-ordered and indexes
// every later payload as overflow.
func (d *Dictionary) setWatermarkLocked(n int) {
	d.litN, d.over, d.overNew = n, nil, nil
	if n == 0 {
		return
	}
	for p := n + 1; p <= len(d.litVals); p++ {
		d.overNew = append(d.overNew, uint64(p))
	}
	d.foldOverflowLocked()
}

// CheckOrder verifies the literal-order invariant: payloads 1..N are
// non-decreasing under Compare, and with N > 0 the overflow index is
// sorted by (value, payload) and holds exactly the payloads N+1..len
// (with N = 0 no order is claimed and the index is empty).
func (d *Dictionary) CheckOrder() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.litN
	if n > len(d.litVals) {
		return fmt.Errorf("dict: watermark %d exceeds %d literals", n, len(d.litVals))
	}
	for p := 2; p <= n; p++ {
		if Compare(d.litVals[p-2], d.litVals[p-1]) > 0 {
			return fmt.Errorf("dict: ordered literals L%d > L%d", p-1, p)
		}
	}
	if n == 0 {
		if len(d.over)+len(d.overNew) > 0 {
			return fmt.Errorf("dict: %d overflow literals indexed without a watermark", len(d.over)+len(d.overNew))
		}
		return nil
	}
	for i := 1; i < len(d.over); i++ {
		if !d.lessOver(d.over[i-1], d.over[i]) {
			return fmt.Errorf("dict: overflow index unsorted at %d (L%d, L%d)", i, d.over[i-1], d.over[i])
		}
	}
	want := len(d.litVals) - n
	if got := len(d.over) + len(d.overNew); got != want {
		return fmt.Errorf("dict: overflow index holds %d literals, want %d", got, want)
	}
	seen := make([]bool, want)
	for _, list := range [][]uint64{d.over, d.overNew} {
		for _, p := range list {
			if p <= uint64(n) || p > uint64(len(d.litVals)) || seen[p-uint64(n)-1] {
				return fmt.Errorf("dict: overflow index holds L%d outside or twice in (%d,%d]", p, n, len(d.litVals))
			}
			seen[p-uint64(n)-1] = true
		}
	}
	return nil
}
