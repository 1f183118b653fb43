package exec

import (
	"sort"

	"srdf/internal/dict"
	"srdf/internal/relational"
)

// MergeJoinOp is the clustered-FK sort-merge join: the outer side is
// drained and its join keys sorted (a no-op when subject clustering
// already delivers them ascending), then the inner CS table streams
// once through a ScanOp restricted to the subject window the outer keys
// can reach. Because subject clustering assigns dense ascending OIDs
// (row i of the table is subject Base+i), the scan's row order IS key
// order on the inner side — the join needs no hash build at all.
//
// The planner only chooses this operator when the inner star is covered
// by exactly this table with no residual triples and no tail rows, so
// the table scan is the complete, subject-ascending answer set;
// tombstones are filtered by the scan like any other.
type MergeJoinOp struct {
	Left     Operator
	KeyVar   string
	Table    *relational.Table
	Star     Star // inner star; Star.SubjVar joins against KeyVar
	UseZones bool

	ctx        *Ctx
	vars       []string
	left       *Rel
	ki         int
	order      []int32 // outer rows, key-ascending (stable)
	lp         int     // merge cursor into order
	inner      *ScanOp
	innerBatch *Batch
	fromLeft   []int
	fromInner  []int
	pending    relCursor
	done       bool
}

// NewMergeJoinOp joins left against the star over one CS table on
// left's KeyVar column = the table subject. The star's object variables
// must not otherwise occur in left (the planner renames duplicates to
// temporaries and re-checks equality afterwards, exactly as for
// RDFjoin).
func NewMergeJoinOp(left Operator, keyVar string, t *relational.Table, star Star, useZones bool) *MergeJoinOp {
	vars := append([]string{}, left.Vars()...)
	seen := map[string]bool{}
	for _, v := range vars {
		seen[v] = true
	}
	for i := range star.Props {
		if ov := star.Props[i].ObjVar; ov != "" && !seen[ov] {
			vars = append(vars, ov)
			seen[ov] = true
		}
	}
	return &MergeJoinOp{Left: left, KeyVar: keyVar, Table: t, Star: star, UseZones: useZones, vars: vars}
}

func (m *MergeJoinOp) Vars() []string { return m.vars }

func (m *MergeJoinOp) Open(ctx *Ctx) error {
	m.ctx = ctx
	m.done = false
	m.lp = 0
	m.pending = relCursor{}
	m.left = Drain(ctx, m.Left)
	if err := ctx.StopErr(); err != nil {
		return err
	}
	m.ki = m.left.ColIdx(m.KeyVar)
	n := m.left.Len()
	if m.ki < 0 || n == 0 || m.Table.Count == 0 {
		m.done = true
		return nil
	}
	keys := m.left.Cols[m.ki]
	m.order = make([]int32, n)
	for i := range m.order {
		m.order[i] = int32(i)
	}
	// Clustered outer sides (FK column of a table sub-ordered on that
	// FK) already arrive ascending; the check costs one pass and saves
	// the sort exactly when the paper's clustering did its job.
	if !sort.SliceIsSorted(m.order, func(i, j int) bool { return keys[m.order[i]] < keys[m.order[j]] }) {
		sort.SliceStable(m.order, func(i, j int) bool { return keys[m.order[i]] < keys[m.order[j]] })
	}
	// Restrict the inner scan to the dense subject window the outer keys
	// can reach — the AscendingWindow trick on the implicit subject
	// column. Literal keys and subjects of other tables fall outside the
	// window and can never match.
	base, count := m.Table.Base, m.Table.Count
	kAt := func(i int) dict.OID { return keys[m.order[i]] }
	loIdx := sort.Search(n, func(i int) bool { return kAt(i) >= dict.ResourceOID(base) })
	hiIdx := sort.Search(n, func(i int) bool { return kAt(i) >= dict.ResourceOID(base+uint64(count)) })
	if loIdx >= hiIdx {
		m.done = true
		return nil
	}
	m.lp = loIdx
	rowLo := int(kAt(loIdx).Payload() - base)
	rowHi := int(kAt(hiIdx-1).Payload()-base) + 1
	m.inner = NewScanOp(m.Table, m.Star, m.UseZones, rowLo, rowHi)
	if err := m.inner.Open(ctx); err != nil {
		return err
	}
	innerVars := m.inner.Vars()
	m.fromLeft = make([]int, len(m.vars))
	m.fromInner = make([]int, len(m.vars))
	for i, v := range m.vars {
		m.fromLeft[i] = m.left.ColIdx(v)
		m.fromInner[i] = -1
		for ci, w := range innerVars {
			if w == v {
				m.fromInner[i] = ci
				break
			}
		}
	}
	m.innerBatch = NewBatch(innerVars)
	return nil
}

func (m *MergeJoinOp) Next(b *Batch) bool {
	keysReady := !m.done
	var keys []dict.OID
	if keysReady {
		keys = m.left.Cols[m.ki]
	}
	for {
		if m.pending.rel != nil && m.pending.fill(b) {
			return true
		}
		if m.done {
			return false
		}
		m.innerBatch.Reset()
		if !m.inner.Next(m.innerBatch) {
			m.done = true
			return false
		}
		out := NewRel(m.vars...)
		nb := m.innerBatch.Len()
		for j := 0; j < nb; j++ {
			s := m.innerBatch.At(0, j) // inner vars lead with the subject
			for m.lp < len(m.order) && keys[m.order[m.lp]] < s {
				m.lp++
			}
			for k := m.lp; k < len(m.order) && keys[m.order[k]] == s; k++ {
				li := int(m.order[k])
				for c := range m.vars {
					var v dict.OID
					if ci := m.fromLeft[c]; ci >= 0 {
						v = m.left.Cols[ci][li]
					} else {
						v = m.innerBatch.At(m.fromInner[c], j)
					}
					out.Cols[c] = append(out.Cols[c], v)
				}
			}
			// inner subjects are unique and ascending: the next row can
			// only need keys at or past m.lp
		}
		if out.Len() > 0 {
			m.pending = relCursor{rel: out}
		}
	}
}

func (m *MergeJoinOp) Close() {
	if m.inner != nil {
		m.inner.Close()
	}
}
