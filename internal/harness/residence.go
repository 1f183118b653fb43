package harness

import (
	"fmt"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/triples"
)

// CheckResidence refreshes st and checks its catalog's residence
// invariants against ts, the store's triples:
//   - every subject with triples resolves through exactly one of a live
//     clustered row, a tail row, or the irregular residue (then all its
//     triples are irregular), and the table TableOf names holds it;
//   - Del marks only sealed rows, and after a Compact (compacted) only
//     clustered ones, with no delta rows left;
//   - LiveCount equals the rows a presence-only scan of the table emits.
//
// A store without a catalog (never organized) passes.
func CheckResidence(st *core.Store, ts []nt.Triple, compacted bool) error {
	st.Stats() // folds and routes every pending write
	cat := st.Catalog()
	if cat == nil {
		return nil
	}
	spo, err := spoOf(st.Dict(), ts)
	if err != nil {
		return err
	}
	irr := cat.IrregularIdx.Get(triples.SPO)
	var bad error
	spo.Distinct1(func(s dict.OID, lo, hi int) {
		if bad != nil {
			return
		}
		var homes []string
		for _, t := range cat.Tables {
			if t.RowOf(s) >= 0 {
				homes = append(homes, t.Name)
			}
		}
		home := cat.TableOf(s)
		ilo, ihi := irr.Range1(s)
		switch {
		case len(homes) > 1 || len(homes) == 1 && (home == nil || home.Name != homes[0]):
			bad = fmt.Errorf("residence: %v has rows in %v, and TableOf disagrees", s, homes)
		case len(homes) == 0 && (home != nil || ihi-ilo != hi-lo):
			bad = fmt.Errorf("residence: %v has no row and %d of its %d triples irregular", s, ihi-ilo, hi-lo)
		}
	})
	if bad != nil {
		return bad
	}
	ctx := &exec.Ctx{Cat: cat, Pool: st.Pool()}
	for _, t := range cat.Tables {
		if t.Del.AnyInRange(t.SealedRows(), t.NumRows()) {
			return fmt.Errorf("residence: %s tombstones an unsealed row", t.Name)
		}
		if compacted && (t.DeltaLen() > 0 || t.Del.AnyInRange(t.Count, t.NumRows())) {
			return fmt.Errorf("residence: compacted %s keeps %d delta rows or a tail tombstone", t.Name, t.DeltaLen())
		}
		want := t.LiveCount()
		if got := exec.Drain(ctx, exec.NewScanOp(t, exec.Star{SubjVar: "s"}, false, 0, -1)).Len(); got != want {
			return fmt.Errorf("residence: %s has %d live rows, a presence-only scan emits %d", t.Name, want, got)
		}
	}
	return nil
}

// spoOf encodes ts, a triple set, with the store's dictionary into an
// SPO projection.
func spoOf(d *dict.Dictionary, ts []nt.Triple) (*triples.Projection, error) {
	tb := triples.NewTable(len(ts))
	for _, t := range ts {
		s, okS := d.Lookup(t.S)
		p, okP := d.Lookup(t.P)
		o, okO := d.Lookup(t.O)
		if !okS || !okP || !okO {
			return nil, fmt.Errorf("residence: %v is not in the store's dictionary", t)
		}
		tb.Append(s, p, o)
	}
	return triples.Build(tb, triples.SPO), nil
}
