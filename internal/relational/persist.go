// Persistence support: the catalog's unexported derived state — lookup
// maps, the delta layer's subject→row indexes, tombstone bitmap words —
// is exported and rebuilt here so the snapshot layer can round-trip a
// catalog without serializing anything derivable.
package relational

import (
	"fmt"
	"math/bits"

	"srdf/internal/dict"
	"srdf/internal/triples"
)

// Words exposes the bitmap's backing words for serialization; nil-safe.
// Trailing zero words may be present and carry no information.
func (b *Bitmap) Words() []uint64 {
	if b == nil {
		return nil
	}
	return b.words
}

// BitmapFromWords rebuilds a bitmap from serialized words, recounting
// the population. An empty word set restores as nil (the empty bitmap).
func BitmapFromWords(words []uint64) *Bitmap {
	if len(words) == 0 {
		return nil
	}
	b := &Bitmap{words: words}
	for _, w := range words {
		b.n += bits.OnesCount64(w)
	}
	if b.n == 0 {
		return nil
	}
	return b
}

// Holes exposes the permanent-hole bitmap for serialization.
func (t *Table) Holes() *Bitmap { return t.holes }

// SetHoles installs a restored permanent-hole bitmap.
func (t *Table) SetHoles(b *Bitmap) { t.holes = b }

// SetExtra installs the compacted-in extra subjects, rebuilding the
// subject→row map.
func (t *Table) SetExtra(extra []dict.OID) {
	t.Extra = extra
	t.extraRow = nil
	if len(extra) > 0 {
		t.extraRow = make(map[dict.OID]int, len(extra))
		for i, s := range extra {
			t.extraRow[s] = i
		}
	}
}

// RestoreDeltaRows rebuilds an unsealed delta tail from its serialized
// columns, re-deriving the subject→row map. cols must be aligned to the
// table's Cols and each as long as subj.
func RestoreDeltaRows(subj []dict.OID, cols [][]dict.OID) (*DeltaRows, error) {
	if len(subj) == 0 {
		return nil, nil
	}
	d := &DeltaRows{Subj: subj, Cols: cols, rowOf: make(map[dict.OID]int, len(subj))}
	for ci, col := range cols {
		if len(col) != len(subj) {
			return nil, fmt.Errorf("relational: delta column %d has %d rows, want %d", ci, len(col), len(subj))
		}
	}
	for i, s := range subj {
		if _, dup := d.rowOf[s]; dup {
			return nil, fmt.Errorf("relational: duplicate delta subject %v", s)
		}
		d.rowOf[s] = i
	}
	return d, nil
}

// AssembleCatalog wires a deserialized catalog: the name/CS lookup maps,
// the delta- and extra-residence maps, and the irregular index are all
// rebuilt from the restored tables and links; the index set takes
// ownership of irregular. Link Parent pointers must already be set.
func AssembleCatalog(tables []*Table, links []*LinkTable, irregular *triples.Table) *Catalog {
	cat := &Catalog{
		Tables:       tables,
		Links:        links,
		IrregularIdx: triples.NewIndexSet(irregular),
		byName:       make(map[string]*Table, len(tables)),
		byCS:         make(map[int]*Table, len(tables)),
		deltaOf:      make(map[dict.OID]*Table),
		extraOf:      make(map[dict.OID]*Table),
	}
	for _, t := range tables {
		cat.byName[t.Name] = t
		cat.byCS[t.CS.ID] = t
		if t.Delta != nil {
			for _, s := range t.Delta.Subj {
				cat.deltaOf[s] = t
			}
		}
		for _, s := range t.Extra {
			cat.extraOf[s] = t
		}
	}
	return cat
}
