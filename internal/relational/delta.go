// Delta layer: the mutable side of the catalog. Sealed segments are
// immutable, so live updates land next to them — per-table tail rows
// (an unsealed columnar delta behind the sealed ones), a row-keyed
// delete bitmap over the sealed rows, and the irregular store as the
// spill target for triples that fit no table ("PSO leftover"). Readers
// take the whole catalog as a snapshot: every mutation here happens on
// a CloneForWrite copy, so a query that started on the previous catalog
// keeps a consistent view while writers append.
package relational

import (
	"maps"
	"slices"

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

// below returns a copy of b without the rows at or past n, nil when
// none is left; nil-safe.
func (b *Bitmap) below(n int) *Bitmap {
	words := append([]uint64(nil), b.Words()[:min(len(b.Words()), (n+63)>>6)]...)
	if len(words) == (n+63)>>6 && n&63 != 0 {
		words[len(words)-1] &= 1<<(n&63) - 1
	}
	return BitmapFromWords(words)
}

// NumRows returns the clustered run plus the tail.
func (t *Table) NumRows() int { return t.Count + len(t.Tail) }

// SealedRows returns the number of physical rows in the sealed columns:
// the clustered run plus the tail rows Compact sealed.
func (t *Table) SealedRows() int { return t.NumRows() - t.unsealed }

// DeltaLen returns the number of unsealed delta rows.
func (t *Table) DeltaLen() int { return t.unsealed }

// LiveCount returns the number of rows not tombstoned.
func (t *Table) LiveCount() int { return t.NumRows() - t.Del.Count() }

// deadTail returns the number of tombstoned tail rows: a tail subject
// has at most one live row, and a vacated delta row is dropped at once,
// so every Tail entry beyond the live ones is a dead sealed row.
func (t *Table) deadTail() int { return len(t.Tail) - len(t.tailRow) }

// DenseLiveRow returns s's clustered row if it is still live, else -1.
// Unlike RowOf it ignores the tail: it answers "does this table's
// build-time state (cells, link-table entries) still speak for s?",
// which goes false the moment s is vacated into the tail.
func (t *Table) DenseLiveRow(s dict.OID) int {
	p := s.Payload()
	if !s.IsResource() || p < t.Base || p >= t.Base+uint64(t.Count) {
		return -1
	}
	r := int(p - t.Base)
	if t.Del.Get(r) {
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
		return t.Delta[ci][row-sr]
	}
	return t.Cols[ci].Data.Get(row)
}

// appendDeltaRow adds one unsealed tail row; vals must be aligned to
// Cols.
func (t *Table) appendDeltaRow(s dict.OID, vals []dict.OID) {
	if t.Delta == nil {
		t.Delta = make([][]dict.OID, len(t.Cols))
	}
	if t.tailRow == nil {
		t.tailRow = make(map[dict.OID]int)
	}
	t.tailRow[s] = t.NumRows()
	t.Tail = append(t.Tail, s)
	for ci := range t.Cols {
		t.Delta[ci] = append(t.Delta[ci], vals[ci])
	}
	t.unsealed++
}

// vacate removes s's live row: a sealed row is tombstoned, an unsealed
// one is forgotten here and dropped by dropDeadDelta. It reports
// whether the row was unsealed.
func (t *Table) vacate(s dict.OID) (unsealed bool) {
	row := t.RowOf(s)
	delete(t.tailRow, s)
	if row >= t.SealedRows() {
		return true
	}
	if t.Del == nil {
		t.Del = &Bitmap{}
	}
	t.Del.Set(row)
	return false
}

// dropDeadDelta rebuilds the unsealed rows without the ones vacated,
// preserving row order.
func (t *Table) dropDeadDelta() {
	sealed, d := t.SealedRows(), t.Delta
	delta := t.Tail[sealed-t.Count:]
	t.Tail, t.Delta, t.unsealed = t.Tail[:sealed-t.Count:sealed-t.Count], nil, 0
	vals := make([]dict.OID, len(d))
	for j, s := range delta {
		if t.tailRow[s] != sealed+j {
			continue
		}
		for ci := range d {
			vals[ci] = d[ci][j]
		}
		t.appendDeltaRow(s, vals)
	}
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

// Reclaimable sums what Compact can reclaim across tables: delta rows
// to seal and tombstoned tail rows to drop. Clustered tombstones are
// not counted — they stay until the next Organize.
func (cat *Catalog) Reclaimable() int {
	n := 0
	for _, t := range cat.Tables {
		n += t.DeltaLen() + t.deadTail()
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
	}
	old2new := make(map[*Table]*Table, len(cat.Tables))
	for i, t := range cat.Tables {
		ct := *t
		ct.Cols = append([]*Col(nil), t.Cols...)
		ct.Del = t.Del.Clone()
		ct.Delta = nil
		for _, col := range t.Delta {
			ct.Delta = append(ct.Delta, slices.Clone(col))
		}
		ct.Tail = append([]dict.OID(nil), t.Tail...)
		ct.tailRow = maps.Clone(t.tailRow)
		nc.Tables[i] = &ct
		nc.byName[ct.Name] = &ct
		nc.byCS[ct.CS.ID] = &ct
		old2new[t] = &ct
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
// the tables' clustered ranges, tombstones and tail maps are the live
// subject→table truth (Schema.SubjectCS stays as of the last Organize).
func (cat *Catalog) ReassignSubjects(subjects []dict.OID, spo *triples.Projection, schema *cs.Schema) ReassignStats {
	var st ReassignStats
	// Vacate old residences.
	vacated := make(map[*Table]bool)
	for _, s := range subjects {
		if t := cat.TableOf(s); t != nil && t.vacate(s) {
			vacated[t] = true
		}
	}
	for t := range vacated {
		t.dropDeadDelta()
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
	}
	// like the store's own index: the untouched residue is not re-sorted,
	// the touched subjects' triples are merged out and back in
	cat.IrregularIdx = cat.IrregularIdx.Merge(spilled, dropped)
	return st
}

// denseTableOf is the clustered-range lookup only (no tail, no
// tombstone check): the table whose clustered subject-OID range
// contains s.
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
	// DroppedTombstones is the number of tombstoned tail rows dropped.
	DroppedTombstones int
}

// Compact seals every table's tail: delta rows are appended to freshly
// sealed segments behind the live sealed tail rows, tombstoned tail rows
// are dropped, and the per-table CS statistics are refreshed — the
// incremental, per-table equivalent of a full re-Organize. The clustered
// run is copied unchanged, its tombstones included (subject OIDs are
// stable, so its rows cannot move), so it keeps its encodings and its
// ascending sort key. A table with no delta row and no dead tail row is
// left as it is. Call on a CloneForWrite catalog only.
func (cat *Catalog) Compact(pool *colstore.BufferPool) CompactStats {
	var st CompactStats
	for _, t := range cat.Tables {
		dl, dead := t.DeltaLen(), t.deadTail()
		if dl == 0 && dead == 0 {
			continue
		}
		st.Tables++
		st.MergedRows += dl
		st.DroppedTombstones += dead
		// the rows kept: the whole clustered run, then the live tail rows
		rows := make([]int, 0, t.Count+len(t.tailRow))
		for r := 0; r < t.Count; r++ {
			rows = append(rows, r)
		}
		tail := make([]dict.OID, 0, len(t.tailRow))
		for i, s := range t.Tail {
			if r := t.Count + i; t.tailRow[s] == r {
				t.tailRow[s] = t.Count + len(tail)
				tail = append(tail, s)
				rows = append(rows, r)
			}
		}
		nonNull := make(map[dict.OID]int, len(t.Cols))
		for ci, c := range t.Cols {
			vals := c.Data.Values()
			if dl > 0 {
				vals = append(vals, t.Delta[ci]...)
			}
			ncol := colstore.NewColumn(c.Data.Name, len(rows), pool)
			live := 0
			for i, r := range rows {
				if v := vals[r]; v != dict.Nil {
					ncol.Set(i, v)
					if !t.Del.Get(r) {
						live++
					}
				}
			}
			ncol.Seal()
			c.Data.Release()
			// first-wins: CS-owned columns precede folded copies in Cols,
			// and a copied-up child column sharing the predicate must not
			// clobber the owned column's count in the refreshed stats
			if _, seen := nonNull[c.Prop.Pred]; !seen {
				nonNull[c.Prop.Pred] = live
			}
			t.Cols[ci] = &Col{Prop: c.Prop, Data: ncol, FKTable: c.FKTable, Folded: c.Folded}
		}
		t.Tail = tail
		t.Delta, t.unsealed = nil, 0
		t.Del = t.Del.below(t.Count)
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
