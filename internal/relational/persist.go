// Persistence support: the catalog's unexported derived state — lookup
// maps, the tail's subject→row index, tombstone bitmap words —
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

// RestoreTail installs a deserialized tail on a table whose Count and
// Cols are set: its subjects, the tombstones, and the cells of its last
// n rows (deltaCols aligned to Cols, each n long), re-deriving the
// subject→row map.
func (t *Table) RestoreTail(tail []dict.OID, del *Bitmap, n int, deltaCols [][]dict.OID) error {
	if n > len(tail) {
		return fmt.Errorf("relational: %d delta rows in a tail of %d", n, len(tail))
	}
	for ci, col := range deltaCols {
		if len(col) != n {
			return fmt.Errorf("relational: delta column %d has %d rows, want %d", ci, len(col), n)
		}
	}
	t.Tail, t.Del, t.Delta, t.unsealed, t.tailRow = tail, del, nil, n, nil
	if n > 0 {
		t.Delta = deltaCols
	}
	if words := del.Words(); del.AnyInRange(t.SealedRows(), len(words)<<6) {
		return fmt.Errorf("relational: a tombstone past the %d sealed rows", t.SealedRows())
	}
	for i, s := range tail {
		r := t.Count + i
		if t.Del.Get(r) {
			continue
		}
		if _, dup := t.tailRow[s]; dup {
			return fmt.Errorf("relational: duplicate tail subject %v", s)
		}
		if t.tailRow == nil {
			t.tailRow = make(map[dict.OID]int)
		}
		t.tailRow[s] = r
	}
	return nil
}

// AssembleCatalog wires a deserialized catalog: the name/CS lookup maps
// and the irregular index are rebuilt from the restored tables and
// links; the index set takes ownership of irregular. Link Parent
// pointers must already be set.
func AssembleCatalog(tables []*Table, links []*LinkTable, irregular *triples.Table) *Catalog {
	cat := &Catalog{
		Tables:       tables,
		Links:        links,
		IrregularIdx: triples.NewIndexSet(irregular),
		byName:       make(map[string]*Table, len(tables)),
		byCS:         make(map[int]*Table, len(tables)),
	}
	for _, t := range tables {
		cat.byName[t.Name] = t
		cat.byCS[t.CS.ID] = t
	}
	return cat
}
