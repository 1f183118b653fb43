package dict

// Persistence support: a dictionary serializes as its two payload-ordered
// populations. Re-interning the exported records in order reproduces the
// exact OID assignment, so snapshots never store OIDs and strings twice.

// LiteralRec is the persisted form of one interned literal.
type LiteralRec struct {
	Lex, Datatype, Lang string
}

// ExportResources returns the interned resource keys in payload order
// (payload i+1 is element i); blank-node keys carry their "_:" prefix.
// The slice aliases dictionary state: callers must treat it as read-only
// and must not intern concurrently while holding it.
func (d *Dictionary) ExportResources() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.resKeys
}

// ExportLiterals returns the interned literals in payload order.
func (d *Dictionary) ExportLiterals() []LiteralRec {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]LiteralRec, len(d.litLex))
	for i, k := range d.litLex {
		out[i] = LiteralRec{Lex: k.lex, Datatype: k.datatype, Lang: k.lang}
	}
	return out
}

// RestoreDictionary rebuilds a dictionary from exported state. Typed
// literal values are re-derived from the lexical forms, exactly as
// interning would have produced them. ordered is the exported watermark
// (see LiteralOrderCounts): the overflow index over the later payloads is
// rebuilt, not persisted. It is not re-verified here; CheckOrder does.
func RestoreDictionary(res []string, lits []LiteralRec, ordered int) *Dictionary {
	d := New()
	d.resKeys = append(d.resKeys, res...)
	for i, k := range res {
		d.resIDs[k] = uint64(i + 1)
	}
	d.litLex = make([]litKey, len(lits))
	d.litVals = make([]Value, len(lits))
	for i, l := range lits {
		k := litKey{lex: l.Lex, datatype: l.Datatype, lang: l.Lang}
		d.litLex[i] = k
		d.litVals[i] = ParseLiteral(l.Lex, l.Datatype, l.Lang)
		d.litIDs[k] = uint64(i + 1)
	}
	d.setWatermarkLocked(ordered)
	return d
}
