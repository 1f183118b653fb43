// Package triples implements the dictionary-encoded triple table and the
// six ordered projections (SPO, SOP, PSO, POS, OSP, OPS) that the
// MonetDB+HSP prototype — the paper's baseline — keeps for exhaustive
// indexing. All downstream machinery (CS detection, subject clustering,
// both query-plan families) operates on these structures.
//
// In the reorganized store the projections are only the fallback for
// the irregular residue and for non-star access paths, so they are kept
// cheap: every order is produced by one radix kernel (sort.go), an
// IndexSet is the only copy of its triples — its SPO projection is the
// row store, adopted without a sort when the rows arrive in SPO order —
// each other order is sorted the first time a reader asks for it, and a
// batch of updates is merged into the orders that exist instead of
// re-sorting the set (index.go).
package triples

import (
	"fmt"
	"sort"

	"srdf/internal/dict"
)

// Triple is a dictionary-encoded statement.
type Triple struct {
	S, P, O dict.OID
}

// Table is a sequence of triples in arrival order, stored column-wise
// like MonetDB BATs: a bulk load or a batch of pending writes, before an
// IndexSet adopts or merges it.
type Table struct {
	S, P, O []dict.OID
}

// NewTable returns an empty table with the given capacity hint.
func NewTable(capHint int) *Table {
	return &Table{
		S: make([]dict.OID, 0, capHint),
		P: make([]dict.OID, 0, capHint),
		O: make([]dict.OID, 0, capHint),
	}
}

// Len returns the number of triples.
func (t *Table) Len() int { return len(t.S) }

// Append adds one triple.
func (t *Table) Append(s, p, o dict.OID) {
	t.S = append(t.S, s)
	t.P = append(t.P, p)
	t.O = append(t.O, o)
}

// AppendTriple adds one triple.
func (t *Table) AppendTriple(tr Triple) { t.Append(tr.S, tr.P, tr.O) }

// At returns the i-th triple in parse order.
func (t *Table) At(i int) Triple { return Triple{t.S[i], t.P[i], t.O[i]} }

// Remap rewrites every OID through the supplied function. Used by the
// subject-clustering reorganizer after dictionary renumbering.
func (t *Table) Remap(f func(dict.OID) dict.OID) {
	for i := range t.S {
		t.S[i] = f(t.S[i])
		t.P[i] = f(t.P[i])
		t.O[i] = f(t.O[i])
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := NewTable(t.Len())
	c.S = append(c.S, t.S...)
	c.P = append(c.P, t.P...)
	c.O = append(c.O, t.O...)
	return c
}

// Dedup sorts the table in SPO order and removes exact duplicate triples,
// returning the number removed. RDF graphs are sets; bulk loads of dirty
// data commonly carry duplicates.
func (t *Table) Dedup() int {
	n := t.Len()
	spo := Build(t, SPO)
	spo.dedup()
	t.S, t.P, t.O = spo.A, spo.B, spo.C
	return n - t.Len()
}

// Perm names one of the six sort orders of a projection.
type Perm uint8

// The six permutations of (subject, predicate, object).
const (
	SPO Perm = iota
	SOP
	PSO
	POS
	OSP
	OPS
)

// AllPerms lists every projection order.
var AllPerms = [6]Perm{SPO, SOP, PSO, POS, OSP, OPS}

func (p Perm) String() string {
	switch p {
	case SPO:
		return "SPO"
	case SOP:
		return "SOP"
	case PSO:
		return "PSO"
	case POS:
		return "POS"
	case OSP:
		return "OSP"
	case OPS:
		return "OPS"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// permOrder lists, per permutation, which of (S, P, O) = (0, 1, 2) is
// its first, second and third component.
var permOrder = [6][3]uint8{
	SPO: {0, 1, 2},
	SOP: {0, 2, 1},
	PSO: {1, 0, 2},
	POS: {1, 2, 0},
	OSP: {2, 0, 1},
	OPS: {2, 1, 0},
}

// key returns the components of a triple in the permutation's order.
func (p Perm) key(t Triple) (dict.OID, dict.OID, dict.OID) {
	spo, o := [3]dict.OID{t.S, t.P, t.O}, permOrder[p]
	return spo[o[0]], spo[o[1]], spo[o[2]]
}

// cols returns the columns of a table in the permutation's order.
func (p Perm) cols(t *Table) (a, b, c []dict.OID) {
	spo, o := [3][]dict.OID{t.S, t.P, t.O}, permOrder[p]
	return spo[o[0]], spo[o[1]], spo[o[2]]
}

// Projection is a copy of the triple table sorted in one permutation
// order, with binary-search range access on its (1st), (1st,2nd) and
// (1st,2nd,3rd) prefixes. A/B/C hold the permuted components.
type Projection struct {
	Order   Perm
	A, B, C []dict.OID
}

// Build sorts the table into the given permutation order. The
// projection owns its arrays: later changes to the table do not reach it.
func Build(t *Table, p Perm) *Projection {
	a, b, c := p.cols(t)
	return gather(p, sortRows(t.Len(), a, b, c), a, b, c)
}

// gather copies the rows of three columns out in the given order.
func gather(p Perm, order []uint32, a, b, c []dict.OID) *Projection {
	pr := &Projection{
		Order: p,
		A:     make([]dict.OID, len(order)),
		B:     make([]dict.OID, len(order)),
		C:     make([]dict.OID, len(order)),
	}
	for k, i := range order {
		pr.A[k], pr.B[k], pr.C[k] = a[i], b[i], c[i]
	}
	return pr
}

// Len returns the number of rows.
func (pr *Projection) Len() int { return len(pr.A) }

// dedup collapses equal adjacent rows in place, turning a sorted
// projection into a set.
func (pr *Projection) dedup() {
	w := 0
	for i := range pr.A {
		if w > 0 && compareAt(pr, i, pr, w-1) == 0 {
			continue
		}
		pr.A[w], pr.B[w], pr.C[w] = pr.A[i], pr.B[i], pr.C[i]
		w++
	}
	pr.A, pr.B, pr.C = pr.A[:w], pr.B[:w], pr.C[:w]
}

// At returns row i in permuted component order.
func (pr *Projection) At(i int) (a, b, c dict.OID) { return pr.A[i], pr.B[i], pr.C[i] }

// Triple reconstructs the original (S,P,O) triple at row i.
func (pr *Projection) Triple(i int) Triple {
	a, b, c := pr.A[i], pr.B[i], pr.C[i]
	switch pr.Order {
	case SPO:
		return Triple{a, b, c}
	case SOP:
		return Triple{a, c, b}
	case PSO:
		return Triple{b, a, c}
	case POS:
		return Triple{c, a, b}
	case OSP:
		return Triple{b, c, a}
	default: // OPS
		return Triple{c, b, a}
	}
}

// Range1 returns [lo,hi) of rows whose first component equals a.
func (pr *Projection) Range1(a dict.OID) (int, int) {
	lo := sort.Search(len(pr.A), func(i int) bool { return pr.A[i] >= a })
	hi := sort.Search(len(pr.A), func(i int) bool { return pr.A[i] > a })
	return lo, hi
}

// Range2 returns [lo,hi) of rows with first component a and second b.
func (pr *Projection) Range2(a, b dict.OID) (int, int) {
	lo1, hi1 := pr.Range1(a)
	lo := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] >= b })
	hi := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] > b })
	return lo, hi
}

// Range2Between returns [lo,hi) of rows with first component a and second
// component in [bLo,bHi]. Because literal OIDs are value-ordered after
// reorganization, this implements value range predicates on O directly
// over the POS projection (paper §II-B).
func (pr *Projection) Range2Between(a, bLo, bHi dict.OID) (int, int) {
	lo1, hi1 := pr.Range1(a)
	lo := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] >= bLo })
	hi := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] > bHi })
	return lo, hi
}

// Range3 returns [lo,hi) of rows exactly matching (a,b,c).
func (pr *Projection) Range3(a, b, c dict.OID) (int, int) {
	lo2, hi2 := pr.Range2(a, b)
	lo := lo2 + sort.Search(hi2-lo2, func(i int) bool { return pr.C[lo2+i] >= c })
	hi := lo2 + sort.Search(hi2-lo2, func(i int) bool { return pr.C[lo2+i] > c })
	return lo, hi
}

// Contains reports whether the exact triple is present.
func (pr *Projection) Contains(t Triple) bool {
	a, b, c := pr.Order.key(t)
	lo, hi := pr.Range3(a, b, c)
	return hi > lo
}

// Distinct1 iterates the distinct values of the first component of pr,
// calling fn with each value and its row range.
func (pr *Projection) Distinct1(fn func(v dict.OID, lo, hi int)) {
	n := pr.Len()
	for lo := 0; lo < n; {
		v := pr.A[lo]
		hi := lo + 1
		for hi < n && pr.A[hi] == v {
			hi++
		}
		fn(v, lo, hi)
		lo = hi
	}
}

// Distinct2 iterates distinct (first,second) pairs within [lo,hi),
// calling fn with the pair's row range.
func (pr *Projection) Distinct2(lo, hi int, fn func(b dict.OID, l, h int)) {
	for l := lo; l < hi; {
		v := pr.B[l]
		h := l + 1
		for h < hi && pr.B[h] == v {
			h++
		}
		fn(v, l, h)
		l = h
	}
}
