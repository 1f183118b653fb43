package exec

import (
	"sort"

	"srdf/internal/dict"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

// ResidualStar answers the part of a star pattern the covering tables
// cannot: subjects with matching triples in the irregular store (noise
// properties, overflow values, subjects of dropped CSs) or in link
// tables (split-off multi-valued properties of other CSs, which no
// RDFscan reads). Rows entirely answerable by a covering table are
// suppressed to avoid duplicating ScanOp output.
func ResidualStar(ctx *Ctx, star Star, covering []*relational.Table) *Rel {
	rel := NewRel(star.Vars()...)
	cat := ctx.Cat
	if cat == nil {
		return rel
	}
	// Link tables carrying one of the star's predicates contribute both
	// candidates and values.
	links := make([][]*relational.LinkTable, len(star.Props))
	anyLink := false
	for i := range star.Props {
		for _, lt := range cat.Links {
			if lt.Pred == star.Props[i].Pred && len(lt.Subj) > 0 {
				links[i] = append(links[i], lt)
				anyLink = true
			}
		}
	}
	if cat.IrregularIdx.Len() == 0 && !anyLink {
		return rel
	}
	irrPSO := cat.IrregularIdx.Get(triples.PSO)
	irrSPO := cat.IrregularIdx.Get(triples.SPO)

	// Candidate subjects: any subject with an irregular or link-table
	// triple for one of the star's predicates.
	cand := map[dict.OID]bool{}
	for i := range star.Props {
		lo, hi := irrPSO.Range1(star.Props[i].Pred)
		ctx.touchProj(irrPSO, lo, hi, 2)
		for k := lo; k < hi; k++ {
			cand[irrPSO.B[k]] = true
		}
		for _, lt := range links[i] {
			// Subj is subject-sorted: check each distinct subject once.
			// Link entries speak for a subject only while its build-time
			// dense row is live; vacated subjects' link values were
			// re-routed through the delta layer.
			for k := 0; k < len(lt.Subj); {
				s := lt.Subj[k]
				if lt.Parent.DenseLiveRow(s) >= 0 {
					cand[s] = true
				}
				for k < len(lt.Subj) && lt.Subj[k] == s {
					k++
				}
			}
		}
	}
	if len(cand) == 0 {
		return rel
	}
	// Deterministic emission order: map iteration order would otherwise
	// differ between two executions of the very same plan.
	subjects := make([]dict.OID, 0, len(cand))
	for s := range cand {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })
	inCovering := func(s dict.OID) bool {
		for _, t := range covering {
			if t.RowOf(s) >= 0 {
				return true
			}
		}
		return false
	}
	type sourced struct {
		v     dict.OID
		fromT bool // value came from a table column
	}
	for _, s := range subjects {
		covered := inCovering(s)
		// collect values per prop from the irregular store and, when the
		// subject sits in some table, from its columns.
		vals := make([][]sourced, 0, len(star.Props))
		ok := true
		for i := range star.Props {
			p := &star.Props[i]
			var vs []sourced
			lo, hi := irrSPO.Range2(s, p.Pred)
			ctx.touchProj(irrSPO, lo, hi, 4)
			for k := lo; k < hi; k++ {
				if p.matches(irrSPO.C[k]) {
					vs = append(vs, sourced{irrSPO.C[k], false})
				}
			}
			for _, lt := range links[i] {
				if lt.Parent.DenseLiveRow(s) < 0 {
					continue // stale entries of a vacated subject
				}
				llo := sort.Search(len(lt.Subj), func(k int) bool { return lt.Subj[k] >= s })
				for k := llo; k < len(lt.Subj) && lt.Subj[k] == s; k++ {
					if p.matches(lt.Val[k]) {
						vs = append(vs, sourced{lt.Val[k], false})
					}
				}
			}
			if tab := cat.TableOf(s); tab != nil {
				if ci := tab.ColIndex(p.Pred); ci >= 0 {
					if row := tab.RowOf(s); row >= 0 {
						v := tab.Value(ci, row)
						if v != dict.Nil && p.matches(v) {
							vs = append(vs, sourced{v, true})
						}
					}
				}
			}
			if len(vs) == 0 {
				ok = false
				break
			}
			vals = append(vals, vs)
		}
		if !ok {
			continue
		}
		// cross product; skip the all-table combination when a covering
		// table already emits it via ScanOp.
		row := make([]dict.OID, 0, len(rel.Vars))
		row = append(row, s)
		var rec func(pi int, allTable bool)
		rec = func(pi int, allTable bool) {
			if pi == len(star.Props) {
				if allTable && covered {
					return
				}
				rel.AppendRow(row...)
				return
			}
			p := &star.Props[pi]
			for _, sv := range vals[pi] {
				if p.ObjVar != "" {
					row = append(row, sv.v)
				}
				rec(pi+1, allTable && sv.fromT)
				if p.ObjVar != "" {
					row = row[:len(row)-1]
				}
			}
		}
		rec(0, true)
	}
	return rel
}
