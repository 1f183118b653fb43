package exec

import (
	"sort"

	"srdf/internal/dict"
	"srdf/internal/triples"
)

// StarProp is one property of a star pattern, with pushed-down object
// constraints.
type StarProp struct {
	Pred dict.OID
	// ObjVar names the object variable, or "" when the object is bound.
	ObjVar string
	// ObjConst is the bound object (Nil when the object is a variable).
	ObjConst dict.OID
	// Lo/Hi is an inclusive OID range pushed down from FILTERs, valid
	// only when HasRange. For a value range it covers the value-ordered
	// literal prefix, whose last OID is the watermark N; Over lists, in
	// ascending order, the literals past N (minted since Organize) that
	// the range also admits. Every Over member is larger than N, so
	// values at or below N are decided by Lo/Hi alone.
	Lo, Hi   dict.OID
	HasRange bool
	N        dict.OID
	Over     []dict.OID
}

// matches checks a concrete object value against the prop's constraints.
func (p *StarProp) matches(o dict.OID) bool {
	if p.ObjConst != dict.Nil && o != p.ObjConst {
		return false
	}
	if p.HasRange && (o < p.Lo || o > p.Hi) && !p.inOver(o) {
		return false
	}
	return true
}

// inOver reports that o is one of the range's overflow members.
func (p *StarProp) inOver(o dict.OID) bool {
	if len(p.Over) == 0 || o <= p.N {
		return false
	}
	i := sort.Search(len(p.Over), func(k int) bool { return p.Over[k] >= o })
	return i < len(p.Over) && p.Over[i] == o
}

// overIn reports that some overflow member lies in [lo,hi].
func (p *StarProp) overIn(lo, hi dict.OID) bool {
	i := sort.Search(len(p.Over), func(k int) bool { return p.Over[k] >= lo })
	return i < len(p.Over) && p.Over[i] <= hi
}

// Star is a star pattern: several properties of one subject variable.
type Star struct {
	SubjVar string
	Props   []StarProp
}

// Vars lists the star's output variables: subject first, then object
// variables in property order.
func (s *Star) Vars() []string {
	out := append(make([]string, 0, 1+len(s.Props)), s.SubjVar)
	for i := range s.Props {
		if s.Props[i].ObjVar != "" {
			out = append(out, s.Props[i].ObjVar)
		}
	}
	return out
}

// chooseSeed picks the star property to evaluate first — bound-object
// patterns, then range patterns, then the smallest property run — and
// returns its index and scan cost.
func chooseSeed(star *Star, pso, pos *triples.Projection) (seed, cost int) {
	seed, cost = -1, -1
	for i := range star.Props {
		p := &star.Props[i]
		var c int
		switch {
		case p.ObjConst != dict.Nil:
			lo, hi := pos.Range2(p.Pred, p.ObjConst)
			c = hi - lo
		case p.HasRange:
			lo, hi := pos.Range2Between(p.Pred, p.Lo, p.Hi)
			c = hi - lo
			for _, o := range p.Over {
				lo, hi := pos.Range2(p.Pred, o)
				c += hi - lo
			}
		default:
			lo, hi := pso.Range1(p.Pred)
			c = hi - lo
		}
		if seed < 0 || c < cost {
			seed, cost = i, c
		}
	}
	return seed, cost
}

// rangeSeed produces the (subject[, object]) relation of a range
// property's triples, sorted by subject: the prefix interval is one POS
// run, and each overflow member (usually none) is a run of its own.
func rangeSeed(ctx *Ctx, p *StarProp, subjVar string, pos *triples.Projection) *Rel {
	type so struct{ s, o dict.OID }
	var rows []so
	add := func(lo, hi int) {
		ctx.touchProj(pos, lo, hi, 2|4)
		for i := lo; i < hi; i++ {
			rows = append(rows, so{pos.C[i], pos.B[i]})
		}
	}
	lo, hi := pos.Range2Between(p.Pred, p.Lo, p.Hi)
	rows = make([]so, 0, max(hi-lo, 0))
	add(lo, hi)
	for _, o := range p.Over {
		add(pos.Range2(p.Pred, o))
	}
	sort.Slice(rows, func(x, y int) bool {
		if rows[x].s != rows[y].s {
			return rows[x].s < rows[y].s
		}
		return rows[x].o < rows[y].o
	})
	if p.ObjVar != "" {
		rel := NewRel(subjVar, p.ObjVar)
		for _, r := range rows {
			rel.AppendRow(r.s, r.o)
		}
		return rel
	}
	rel := NewRel(subjVar)
	for _, r := range rows {
		rel.Cols[0] = append(rel.Cols[0], r.s)
	}
	return rel
}

// LookupStarSubject evaluates a star for one concrete subject via SPO
// point lookups (used for constant-subject patterns and residual
// fallbacks). Returns the cross product of matching values.
func LookupStarSubject(ctx *Ctx, idx *triples.IndexSet, s dict.OID, star Star) *Rel {
	spo := idx.Get(triples.SPO)
	rel := NewRel(star.Vars()...)
	vals := make([][]dict.OID, 0, len(star.Props))
	for i := range star.Props {
		p := &star.Props[i]
		lo, hi := spo.Range2(s, p.Pred)
		ctx.touchProj(spo, lo, hi, 4)
		var vs []dict.OID
		for k := lo; k < hi; k++ {
			if p.matches(spo.C[k]) {
				vs = append(vs, spo.C[k])
			}
		}
		if len(vs) == 0 {
			return rel
		}
		vals = append(vals, vs)
	}
	emitCross(rel, s, star, vals)
	return rel
}

// emitCross appends the cross product of per-property value lists.
func emitCross(rel *Rel, s dict.OID, star Star, vals [][]dict.OID) {
	row := make([]dict.OID, 0, len(rel.Vars))
	var rec func(pi int)
	rec = func(pi int) {
		if pi == len(star.Props) {
			rel.AppendRow(row...)
			return
		}
		p := &star.Props[pi]
		for _, v := range vals[pi] {
			if p.ObjVar != "" {
				row = append(row, v)
			}
			rec(pi + 1)
			if p.ObjVar != "" {
				row = row[:len(row)-1]
			}
		}
	}
	row = append(row, s)
	rec(0)
}
