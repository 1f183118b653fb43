// Delta layer: the mutable side of the catalog. Sealed segments are
// immutable, so live updates land next to them — per-table delta rows
// (an unsealed columnar tail), a row-keyed delete bitmap over the sealed
// region, and the irregular store as the spill target for triples that
// fit no table ("PSO leftover"). Readers take the whole catalog as a
// snapshot: every mutation here happens on a CloneForWrite copy, so a
// query that started on the previous catalog keeps a consistent view
// while writers append.
package relational

import (
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/triples"
)

// Bitmap is a fixed-universe bitset used as the delete (tombstone)
// bitmap over a table's sealed rows. The zero value / nil is an empty
// bitmap.
type Bitmap struct {
	words []uint64
	n     int
}

// Set marks row i.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if b.words[w]&(1<<(uint(i)&63)) == 0 {
		b.words[w] |= 1 << (uint(i) & 63)
		b.n++
	}
}

// Get reports whether row i is marked; nil-safe.
func (b *Bitmap) Get(i int) bool {
	if b == nil {
		return false
	}
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of marked rows; nil-safe.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	return b.n
}

// AnyInRange reports whether any row in [lo,hi) is marked; nil-safe.
func (b *Bitmap) AnyInRange(lo, hi int) bool {
	if b == nil || b.n == 0 || hi <= lo {
		return false
	}
	for i := lo; i < hi; {
		w := i >> 6
		if w >= len(b.words) {
			return false
		}
		if b.words[w] == 0 {
			i = (w + 1) << 6
			continue
		}
		if b.words[w]&(1<<(uint(i)&63)) != 0 {
			return true
		}
		i++
	}
	return false
}

// Clone deep-copies the bitmap; nil-safe.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return nil
	}
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// DeltaRows is a table's unsealed columnar tail: one row per
// delta-resident subject, with Cols aligned to the table's Cols.
// Delta rows never share subjects with live sealed rows — a subject
// moving into the delta tombstones its sealed row first.
type DeltaRows struct {
	Subj  []dict.OID
	Cols  [][]dict.OID
	rowOf map[dict.OID]int
}

// Len returns the number of delta rows; nil-safe.
func (d *DeltaRows) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Subj)
}

// Clone deep-copies the delta; nil-safe.
func (d *DeltaRows) Clone() *DeltaRows {
	if d == nil {
		return nil
	}
	nd := &DeltaRows{
		Subj:  append([]dict.OID(nil), d.Subj...),
		Cols:  make([][]dict.OID, len(d.Cols)),
		rowOf: make(map[dict.OID]int, len(d.rowOf)),
	}
	for i := range d.Cols {
		nd.Cols[i] = append([]dict.OID(nil), d.Cols[i]...)
	}
	for s, r := range d.rowOf {
		nd.rowOf[s] = r
	}
	return nd
}

// SealedRows returns the number of physical rows in the sealed columns:
// the clustered dense region plus compacted-in extra rows.
func (t *Table) SealedRows() int { return t.Count + len(t.Extra) }

// NumRows returns sealed plus delta rows.
func (t *Table) NumRows() int { return t.SealedRows() + t.Delta.Len() }

// DeltaLen returns the number of unsealed delta rows.
func (t *Table) DeltaLen() int { return t.Delta.Len() }

// LiveCount returns the number of rows that are neither tombstoned nor
// permanent holes left by Compact.
func (t *Table) LiveCount() int { return t.NumRows() - t.Del.Count() - t.holes.Count() }

// HoleCount returns the number of permanent all-NULL rows.
func (t *Table) HoleCount() int { return t.holes.Count() }

// union merges two bitmaps into a fresh one; nil-safe.
func union(a, b *Bitmap) *Bitmap {
	if a.Count() == 0 {
		return b.Clone()
	}
	out := a.Clone()
	if b != nil {
		for w, bits := range b.words {
			for w >= len(out.words) {
				out.words = append(out.words, 0)
			}
			added := bits &^ out.words[w]
			out.words[w] |= bits
			for ; added != 0; added &= added - 1 {
				out.n++
			}
		}
	}
	return out
}

// DenseLiveRow returns s's clustered dense row if it is still live —
// neither tombstoned nor a permanent hole — else -1. Unlike RowOf it
// ignores delta and extra residences: it answers "does this table's
// build-time state (cells, link-table entries) still speak for s?",
// which goes false the moment s is vacated into the delta layer.
func (t *Table) DenseLiveRow(s dict.OID) int {
	p := s.Payload()
	if !s.IsResource() || p < t.Base || p >= t.Base+uint64(t.Count) {
		return -1
	}
	r := int(p - t.Base)
	if t.Del.Get(r) || t.holes.Get(r) {
		return -1
	}
	return r
}

// ColIndex returns the index of the column for pred in Cols, or -1.
func (t *Table) ColIndex(pred dict.OID) int {
	for i, c := range t.Cols {
		if c.Prop.Pred == pred {
			return i
		}
	}
	return -1
}

// Value returns the cell of column ci at physical row (sealed rows read
// through the compressed segments and account a page touch; delta rows
// are memory-resident and free).
func (t *Table) Value(ci, row int) dict.OID {
	if sr := t.SealedRows(); row >= sr {
		return t.Delta.Cols[ci][row-sr]
	}
	return t.Cols[ci].Data.Get(row)
}

// appendDeltaRow adds one delta row; vals must be aligned to Cols.
func (t *Table) appendDeltaRow(s dict.OID, vals []dict.OID) int {
	if t.Delta == nil {
		t.Delta = &DeltaRows{Cols: make([][]dict.OID, len(t.Cols)), rowOf: make(map[dict.OID]int)}
	}
	i := len(t.Delta.Subj)
	t.Delta.Subj = append(t.Delta.Subj, s)
	for ci := range t.Cols {
		t.Delta.Cols[ci] = append(t.Delta.Cols[ci], vals[ci])
	}
	t.Delta.rowOf[s] = i
	return i
}

// ensureDel returns the table's tombstone bitmap, allocating on first use.
func (t *Table) ensureDel() *Bitmap {
	if t.Del == nil {
		t.Del = &Bitmap{}
	}
	return t.Del
}

// routableCol returns the column index a delta triple with predicate p
// should fill, or -1 when the value must spill to the irregular store
// (split-off property, noise property, or a property only present as a
// folded copy of an absorbed child's column).
func (t *Table) routableCol(p dict.OID) int {
	ps := t.CS.Prop(p)
	if ps == nil || ps.SplitOff {
		return -1
	}
	// CS-owned columns precede folded copies in Cols, so the first match
	// is the right target even if a copied-up child column shares the
	// predicate.
	return t.ColIndex(p)
}

// HasDeltas reports whether any table carries delta rows or tombstones.
func (cat *Catalog) HasDeltas() bool {
	for _, t := range cat.Tables {
		if t.DeltaLen() > 0 || t.Del.Count() > 0 {
			return true
		}
	}
	return false
}

// DeltaRowCount sums delta rows across tables.
func (cat *Catalog) DeltaRowCount() int {
	n := 0
	for _, t := range cat.Tables {
		n += t.DeltaLen()
	}
	return n
}

// TombstoneCount sums tombstoned sealed rows across tables.
func (cat *Catalog) TombstoneCount() int {
	n := 0
	for _, t := range cat.Tables {
		n += t.Del.Count()
	}
	return n
}

// CloneForWrite returns a catalog copy that shares all immutable state
// (sealed columns, link tables) but owns the mutable delta layer, so
// mutating the clone never disturbs readers holding the original as a
// snapshot. Col structs are shared until Compact replaces them.
func (cat *Catalog) CloneForWrite() *Catalog {
	nc := &Catalog{
		IrregularIdx: cat.IrregularIdx,
		Tables:       make([]*Table, len(cat.Tables)),
		byName:       make(map[string]*Table, len(cat.byName)),
		byCS:         make(map[int]*Table, len(cat.byCS)),
		deltaOf:      make(map[dict.OID]*Table, len(cat.deltaOf)),
		extraOf:      make(map[dict.OID]*Table, len(cat.extraOf)),
	}
	old2new := make(map[*Table]*Table, len(cat.Tables))
	for i, t := range cat.Tables {
		ct := *t
		ct.Cols = append([]*Col(nil), t.Cols...)
		ct.Del = t.Del.Clone()
		ct.Delta = t.Delta.Clone()
		if t.Extra != nil {
			ct.Extra = append([]dict.OID(nil), t.Extra...)
			ct.extraRow = make(map[dict.OID]int, len(t.extraRow))
			for s, r := range t.extraRow {
				ct.extraRow[s] = r
			}
		}
		nc.Tables[i] = &ct
		nc.byName[ct.Name] = &ct
		nc.byCS[ct.CS.ID] = &ct
		old2new[t] = &ct
	}
	for s, t := range cat.deltaOf {
		nc.deltaOf[s] = old2new[t]
	}
	for s, t := range cat.extraOf {
		nc.extraOf[s] = old2new[t]
	}
	// Link tables share their (immutable) Subj/Val arrays, but the Parent
	// pointer must follow the cloned table: liveness of a link entry is
	// judged through the parent's tombstones, and the stale parent would
	// keep vacated subjects' entries visible.
	nc.Links = make([]*LinkTable, len(cat.Links))
	for i, lt := range cat.Links {
		nl := *lt
		if ct := old2new[lt.Parent]; ct != nil {
			nl.Parent = ct
		}
		nc.Links[i] = &nl
	}
	return nc
}

// ReassignStats summarizes one incremental re-organization pass.
type ReassignStats struct {
	// Matched subjects got a delta row in an existing CS table.
	Matched int
	// Spilled subjects fit no table and went entirely irregular.
	Spilled int
	// Dropped subjects no longer have any triples.
	Dropped int
}

// ReassignSubjects is the incremental self-organization step: every
// touched subject is vacated from its current residence (sealed row
// tombstoned, delta row removed, irregular triples dropped) and its
// current triples — read from the fresh SPO projection — are re-routed:
// matched subjects (cs.Schema.MatchDelta) get a delta row in an existing
// table with overflow and noise values spilling irregular; unmatched
// subjects spill entirely to the irregular store. Call on a
// CloneForWrite catalog only; subjects should be sorted for determinism.
// The schema is read, never written: published snapshots share it, and
// the catalog's own delta maps are the live subject→table truth
// (Schema.SubjectCS stays as of the last Organize).
func (cat *Catalog) ReassignSubjects(subjects []dict.OID, spo *triples.Projection, schema *cs.Schema) ReassignStats {
	var st ReassignStats
	if cat.deltaOf == nil {
		cat.deltaOf = make(map[dict.OID]*Table)
	}
	if cat.extraOf == nil {
		cat.extraOf = make(map[dict.OID]*Table)
	}
	touched := make(map[dict.OID]bool, len(subjects))
	for _, s := range subjects {
		touched[s] = true
	}

	// Vacate old residences.
	removedDelta := make(map[*Table]bool)
	for _, s := range subjects {
		if t := cat.deltaOf[s]; t != nil {
			removedDelta[t] = true
			delete(cat.deltaOf, s)
		}
		if t := cat.extraOf[s]; t != nil {
			t.ensureDel().Set(t.Count + t.extraRow[s])
			delete(t.extraRow, s)
			delete(cat.extraOf, s)
		}
		if t := cat.denseTableOf(s); t != nil {
			row := int(s.Payload() - t.Base)
			// already-vacated rows (tombstoned earlier, or a permanent
			// hole from a past Compact) are not tombstoned again
			if !t.Del.Get(row) && !t.holes.Get(row) {
				t.ensureDel().Set(row)
			}
		}
	}
	for t := range removedDelta {
		t.removeDeltaRows(touched)
	}

	// Drop the touched subjects' irregular triples, found by range
	// lookups on the residue's SPO; re-routing adds their survivors back.
	irrSPO := cat.IrregularIdx.Get(triples.SPO)
	dropped, spilled := triples.NewTable(0), triples.NewTable(0)
	spill := func(s, p dict.OID, vals []dict.OID) {
		for _, v := range vals {
			spilled.Append(s, p, v)
		}
	}
	for _, s := range subjects {
		lo, hi := irrSPO.Range1(s)
		for i := lo; i < hi; i++ {
			dropped.Append(s, irrSPO.B[i], irrSPO.C[i])
		}
	}

	// Re-route in caller order (sorted subjects → deterministic layout).
	var preds []dict.OID
	var row []dict.OID
	for _, s := range subjects {
		lo, hi := spo.Range1(s)
		if hi == lo {
			st.Dropped++
			continue
		}
		preds = preds[:0]
		spo.Distinct2(lo, hi, func(p dict.OID, l, h int) {
			preds = append(preds, p)
		})
		var t *Table
		if id := schema.MatchDelta(preds); id >= 0 {
			t = cat.byCS[id]
		}
		if t == nil {
			st.Spilled++
			spo.Distinct2(lo, hi, func(p dict.OID, l, h int) {
				spill(s, p, spo.C[l:h])
			})
			continue
		}
		st.Matched++
		if cap(row) < len(t.Cols) {
			row = make([]dict.OID, len(t.Cols))
		}
		row = row[:len(t.Cols)]
		for i := range row {
			row[i] = dict.Nil
		}
		spo.Distinct2(lo, hi, func(p dict.OID, l, h int) {
			vals := spo.C[l:h]
			if ci := t.routableCol(p); ci >= 0 {
				row[ci] = vals[0] // first value in the column, like BuildCatalog
				spill(s, p, vals[1:])
				return
			}
			spill(s, p, vals)
		})
		t.appendDeltaRow(s, row)
		cat.deltaOf[s] = t
	}
	// like the store's own index: the untouched residue is not re-sorted,
	// the touched subjects' triples are merged out and back in
	cat.IrregularIdx = cat.IrregularIdx.Merge(spilled, dropped)
	return st
}

// removeDeltaRows rebuilds the delta without the given subjects,
// preserving row order.
func (t *Table) removeDeltaRows(drop map[dict.OID]bool) {
	d := t.Delta
	if d == nil {
		return
	}
	nd := &DeltaRows{Cols: make([][]dict.OID, len(d.Cols)), rowOf: make(map[dict.OID]int)}
	for i, s := range d.Subj {
		if drop[s] {
			continue
		}
		nd.rowOf[s] = len(nd.Subj)
		nd.Subj = append(nd.Subj, s)
		for ci := range d.Cols {
			nd.Cols[ci] = append(nd.Cols[ci], d.Cols[ci][i])
		}
	}
	if len(nd.Subj) == 0 {
		t.Delta = nil
		return
	}
	t.Delta = nd
}

// denseTableOf is the clustered-range lookup only (no delta/extra maps,
// no tombstone check): the table whose dense subject-OID range contains s.
func (cat *Catalog) denseTableOf(s dict.OID) *Table {
	if !s.IsResource() {
		return nil
	}
	p := s.Payload()
	lo, hi := 0, len(cat.Tables)
	for lo < hi {
		mid := (lo + hi) / 2
		t := cat.Tables[mid]
		switch {
		case p < t.Base:
			hi = mid
		case p >= t.Base+uint64(t.Count):
			lo = mid + 1
		default:
			return t
		}
	}
	return nil
}

// CompactStats summarizes one Compact run.
type CompactStats struct {
	// Tables is the number of tables rebuilt.
	Tables int
	// MergedRows is the number of delta rows merged into sealed segments.
	MergedRows int
	// DroppedTombstones is the number of tombstones folded into
	// permanent all-NULL holes.
	DroppedTombstones int
}

// Compact merges every table's delta layer into freshly sealed segments:
// tombstoned sealed rows become permanent all-NULL holes (subject OIDs
// are stable, so rows cannot move), delta rows are appended as sealed
// "extra" rows addressed by an explicit subject map, and the per-table
// CS statistics are refreshed — the incremental, per-table equivalent of
// a full re-Organize. Call on a CloneForWrite catalog only.
func (cat *Catalog) Compact(pool *colstore.BufferPool) CompactStats {
	var st CompactStats
	if cat.deltaOf == nil {
		cat.deltaOf = make(map[dict.OID]*Table)
	}
	if cat.extraOf == nil {
		cat.extraOf = make(map[dict.OID]*Table)
	}
	for _, t := range cat.Tables {
		dl := t.DeltaLen()
		dead := t.Del.Count()
		if dl == 0 && dead == 0 {
			continue
		}
		st.Tables++
		st.MergedRows += dl
		st.DroppedTombstones += dead
		oldSealed := t.SealedRows()
		newSealed := oldSealed + dl
		nonNull := make(map[dict.OID]int, len(t.Cols))
		for ci, c := range t.Cols {
			vals := c.Data.Values()
			ncol := colstore.NewColumn(c.Data.Name, newSealed, pool)
			for r, v := range vals {
				if v != dict.Nil && !t.Del.Get(r) {
					ncol.Set(r, v)
				}
			}
			if dl > 0 {
				dcol := t.Delta.Cols[ci]
				for j, v := range dcol {
					if v != dict.Nil {
						ncol.Set(oldSealed+j, v)
					}
				}
			}
			ncol.Seal()
			c.Data.Release()
			// first-wins: CS-owned columns precede folded copies in Cols,
			// and a copied-up child column sharing the predicate must not
			// clobber the owned column's count in the refreshed stats
			if _, seen := nonNull[c.Prop.Pred]; !seen {
				nonNull[c.Prop.Pred] = newSealed - ncol.NullCount()
			}
			t.Cols[ci] = &Col{Prop: c.Prop, Data: ncol, FKTable: c.FKTable, Folded: c.Folded}
		}
		if dl > 0 {
			if t.extraRow == nil {
				t.extraRow = make(map[dict.OID]int, dl)
			}
			for j, s := range t.Delta.Subj {
				t.extraRow[s] = len(t.Extra) + j
				cat.extraOf[s] = t
				delete(cat.deltaOf, s)
			}
			t.Extra = append(t.Extra, t.Delta.Subj...)
		}
		if dead > 0 {
			// Tombstones become permanent holes: the rows are all-NULL in
			// the new segments, but RowOf must keep refusing to resolve a
			// moved subject to its vacated row (a fresh bitmap, so
			// snapshots sharing the old one are unaffected).
			t.holes = union(t.holes, t.Del)
		}
		t.Del = nil
		t.Delta = nil
		// Appended rows and interior holes break the sort-key column's
		// ascending invariant; range pushdown must skip this table until
		// a full Organize re-clusters it.
		t.SortDisturbed = true
		// Per-table CS refinement on a clone: the schema's copy is shared
		// with published snapshots and read lock-free (SchemaSummary,
		// CSOf), so it stays frozen; the cloned table carries the
		// refreshed statistics.
		ncs := *t.CS
		ncs.Props = append([]cs.PropStat(nil), t.CS.Props...)
		cs.RefreshTableStats(&ncs, nonNull, t.LiveCount())
		t.CS = &ncs
		// re-point CS-owned columns (the fresh Col structs built above are
		// private to this clone) at the refreshed PropStats; copied-up
		// child columns (Folded, no FKTable) keep their private stats
		for _, c := range t.Cols {
			if !c.Folded || c.FKTable != nil {
				if ps := ncs.Prop(c.Prop.Pred); ps != nil {
					c.Prop = ps
				}
			}
		}
	}
	return st
}
