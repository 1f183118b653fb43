// Package cluster implements subject clustering (paper §II-B): after CS
// discovery, the store is physically reorganized so that
//
//   - subjects of one characteristic set occupy one contiguous OID range,
//     ordered within the CS by a sort-key property (for RDF-H, dates —
//     "we ordered the LINEITEM and ORDERS CS-es internally on resp. the
//     shipdate and orderdate attributes"),
//   - literal OIDs are reassigned in (type, value) order, so comparisons
//     on O identifiers execute value range predicates, and
//   - everything else keeps a stable order at the tail of the OID space.
//
// The result is that the PSO table's per-property runs become aligned
// per-CS column stretches — relational columnar storage re-surfacing
// inside the triple representation.
package cluster

import (
	"fmt"
	"sort"

	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/triples"
)

// Options controls reorganization.
type Options struct {
	// SortKeys maps an emergent table name to the predicate IRI whose
	// values order that CS's subjects. Unlisted CSs fall back to
	// AutoSortKey behaviour.
	SortKeys map[string]string
	// AutoSortKey picks a key automatically: the first date-typed
	// column, else the first integer column, else load order. A real
	// self-organizing system would derive this from workload analysis;
	// the paper acknowledges its prototype chose dates by hand.
	AutoSortKey bool
	// KeepLiteralOrder leaves literal OIDs in appearance order instead
	// of value order. Used by the benchmark harness to model the
	// paper's "ParseOrder" configurations, where OID comparisons carry
	// no value semantics and zone maps are unusable.
	KeepLiteralOrder bool
}

// DefaultOptions enables automatic sort-key selection.
func DefaultOptions() Options { return Options{AutoSortKey: true} }

// Range describes the contiguous subject-OID stretch of one CS.
type Range struct {
	CSID int
	// Base is the payload of the first subject OID in the stretch.
	Base uint64
	// Count is the number of subjects.
	Count int
	// SortPred is the predicate the stretch is sub-ordered by (Nil if
	// load order).
	SortPred dict.OID
}

// Info is the outcome of a reorganization.
type Info struct {
	Ranges []Range
	byCS   map[int]int // cs id -> index into Ranges
	// ResMap and LitMap are the payload remappings that were applied
	// (old payload-1 -> new payload), kept for audit and testing.
	ResMap, LitMap []uint64
}

// RangeOf returns the subject range of a CS.
func (inf *Info) RangeOf(csID int) (Range, bool) {
	i, ok := inf.byCS[csID]
	if !ok {
		return Range{}, false
	}
	return inf.Ranges[i], true
}

// RowOf translates a clustered subject OID into its row inside its CS's
// aligned columns.
func (inf *Info) RowOf(csID int, subj dict.OID) (int, bool) {
	r, ok := inf.RangeOf(csID)
	if !ok {
		return 0, false
	}
	p := subj.Payload()
	if p < r.Base || p >= r.Base+uint64(r.Count) {
		return 0, false
	}
	return int(p - r.Base), true
}

// Reorganize renumbers the dictionary and rewrites the triple table in
// place, updating the schema's subject references to the new OIDs.
// The caller must rebuild projections afterwards.
func Reorganize(tb *triples.Table, d *dict.Dictionary, schema *cs.Schema, opts Options) (*Info, error) {
	return ReorganizeSPO(triples.Build(tb, triples.SPO), tb, d, schema, opts)
}

// ReorganizeSPO is Reorganize for a caller that already holds tb's SPO
// projection (the one schema discovery ran on). The projection is read
// for sort-key values only and is stale once this returns: tb has been
// renumbered, spo has not.
func ReorganizeSPO(spo *triples.Projection, tb *triples.Table, d *dict.Dictionary, schema *cs.Schema, opts Options) (*Info, error) {
	inf := &Info{byCS: make(map[int]int)}

	// --- Literal remap: value order. ---
	nLit := d.NumLiterals()
	litOrder := make([]uint64, nLit) // new position -> old payload
	for i := range litOrder {
		litOrder[i] = uint64(i + 1)
	}
	if !opts.KeepLiteralOrder {
		vals := d.LiteralValues()
		sort.SliceStable(litOrder, func(i, j int) bool {
			c := dict.Compare(vals[litOrder[i]-1], vals[litOrder[j]-1])
			if c != 0 {
				return c < 0
			}
			return litOrder[i] < litOrder[j]
		})
	}
	litMap := make([]uint64, nLit) // old payload-1 -> new payload
	for newPos, oldPayload := range litOrder {
		litMap[oldPayload-1] = uint64(newPos + 1)
	}

	// --- Resource remap: CS-major, sort-key-minor. ---
	nRes := d.NumResources()
	resMap := make([]uint64, nRes)
	next := uint64(1)
	for _, c := range schema.CSs {
		if !c.Retained {
			continue
		}
		sortPred := pickSortKey(c, d, opts)
		subjects := append([]dict.OID(nil), c.Subjects...)
		if sortPred != dict.Nil {
			sortSubjectsByKey(subjects, sortPred, spo, d)
		}
		base := next
		for _, s := range subjects {
			p := s.Payload()
			if resMap[p-1] != 0 {
				return nil, fmt.Errorf("cluster: subject %v is in two CSs", s)
			}
			resMap[p-1] = next
			next++
		}
		inf.byCS[c.ID] = len(inf.Ranges)
		inf.Ranges = append(inf.Ranges, Range{CSID: c.ID, Base: base, Count: len(subjects), SortPred: sortPred})
	}
	// Remaining resources (predicates, non-subject URIs, irregular
	// subjects) keep their relative order after the clustered stretches.
	for old := uint64(1); old <= uint64(nRes); old++ {
		if resMap[old-1] == 0 {
			resMap[old-1] = next
			next++
		}
	}

	// --- Apply. ---
	d.Remap(resMap, litMap, !opts.KeepLiteralOrder)
	remap := func(o dict.OID) dict.OID {
		p := o.Payload()
		if p == 0 {
			return o
		}
		if o.IsLiteral() {
			return dict.LiteralOID(litMap[p-1])
		}
		return dict.ResourceOID(resMap[p-1])
	}
	tb.Remap(remap)

	// Update schema subject references, keeping the new SortPred order
	// inside each CS (ranges are contiguous, so the sorted-by-OID list is
	// exactly the sub-ordered list).
	newSubjectCS := make(map[dict.OID]int, len(schema.SubjectCS))
	for s, id := range schema.SubjectCS {
		newSubjectCS[remap(s)] = id
	}
	schema.SubjectCS = newSubjectCS
	for _, c := range schema.CSs {
		for i, s := range c.Subjects {
			c.Subjects[i] = remap(s)
		}
		sort.Slice(c.Subjects, func(x, y int) bool { return c.Subjects[x] < c.Subjects[y] })
	}
	// Remap FK and prop predicate OIDs.
	for i := range schema.FKs {
		schema.FKs[i].Pred = remap(schema.FKs[i].Pred)
	}
	for _, c := range schema.CSs {
		for i := range c.Props {
			c.Props[i].Pred = remap(c.Props[i].Pred)
		}
		sort.Slice(c.Props, func(x, y int) bool { return c.Props[x].Pred < c.Props[y].Pred })
		if c.TypeObj != dict.Nil {
			c.TypeObj = remap(c.TypeObj)
		}
	}
	for i := range inf.Ranges {
		if inf.Ranges[i].SortPred != dict.Nil {
			inf.Ranges[i].SortPred = remap(inf.Ranges[i].SortPred)
		}
	}
	inf.ResMap, inf.LitMap = resMap, litMap
	return inf, nil
}

// pickSortKey chooses the sub-ordering property of a CS.
func pickSortKey(c *cs.CS, d *dict.Dictionary, opts Options) dict.OID {
	if iri, ok := opts.SortKeys[c.Name]; ok {
		for i := range c.Props {
			t, _ := d.Term(c.Props[i].Pred)
			if t.Value == iri {
				return c.Props[i].Pred
			}
		}
	}
	if !opts.AutoSortKey {
		return dict.Nil
	}
	// Prefer a date column, then an integer column; prefer non-null,
	// single-valued columns.
	best := dict.Nil
	bestScore := -1
	for i := range c.Props {
		ps := &c.Props[i]
		if ps.SplitOff {
			continue
		}
		var score int
		switch ps.Kind {
		case dict.VDate, dict.VDateTime:
			score = 100
		case dict.VInt, dict.VFloat:
			score = 50
		default:
			continue
		}
		if !ps.Nullable {
			score += 10
		}
		if ps.MultiSubjects == 0 {
			score += 5
		}
		if score > bestScore {
			best, bestScore = ps.Pred, score
		}
	}
	return best
}

// sortSubjectsByKey orders subjects by the value of their first sortPred
// object, NULLs last, ties by subject OID (stable, deterministic).
func sortSubjectsByKey(subjects []dict.OID, sortPred dict.OID, spo *triples.Projection, d *dict.Dictionary) {
	type keyed struct {
		s   dict.OID
		val dict.Value
		has bool
	}
	ks := make([]keyed, len(subjects))
	for i, s := range subjects {
		lo, hi := spo.Range2(s, sortPred)
		k := keyed{s: s}
		if hi > lo {
			o := spo.C[lo]
			if o.IsLiteral() {
				k.val = d.Value(o)
				k.has = true
			}
		}
		ks[i] = k
	}
	sort.SliceStable(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.has != b.has {
			return a.has // values first, NULLs last
		}
		if a.has {
			if c := dict.Compare(a.val, b.val); c != 0 {
				return c < 0
			}
		}
		return a.s < b.s
	})
	for i := range ks {
		subjects[i] = ks[i].s
	}
}
