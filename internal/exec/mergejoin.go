package exec

import (
	"srdf/internal/dict"
	"srdf/internal/relational"
)

// MergeJoinOp is the clustered-FK join: the outer side is drained and
// its join keys put in subject order, then the inner CS table streams
// once through a ScanOp restricted to the subject window the outer keys
// can reach. Because subject clustering assigns dense ascending OIDs
// (row i of the table is subject Base+i), a key is its inner row: the
// outer keys are counting-sorted by row, in O(keys + window), and each
// inner row finds its outer rows by position — the join needs neither a
// comparison sort nor a hash build.
//
// The planner only chooses this operator when the inner star is covered
// by exactly this table with no residual triples and no tail rows, so
// the table scan is the complete, subject-ascending answer set;
// tombstones are filtered by the scan like any other. The output is
// inner-row order, and outer input order among the rows of one key.
type MergeJoinOp struct {
	Left     Operator
	KeyVar   string
	Table    *relational.Table
	Star     Star // inner star; Star.SubjVar joins against KeyVar
	UseZones bool

	ctx  *Ctx
	vars []string
	left *Rel
	// order holds the outer rows whose key is a subject of the window
	// [rowLo, rowLo+len(starts)-1), grouped by key ascending and in input
	// order within a key: the outer rows of window row r are
	// order[starts[r]:starts[r+1]].
	order      []int32
	starts     []int32
	rowLo      int
	inner      *ScanOp
	innerBatch *Batch
	fromLeft   []int
	fromInner  []int
	// The resume cursor: inner row j of innerBatch has had its first k
	// outer rows emitted. rows/at are the match pairs (outer row,
	// physical inner row) of the batch being filled.
	j, k     int
	rows, at []int32
	done     bool
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
	m.done = true
	m.j, m.k = 0, 0
	m.left = Drain(ctx, m.Left)
	if err := ctx.StopErr(); err != nil {
		return err
	}
	ki := m.left.ColIdx(m.KeyVar)
	if ki < 0 || m.left.Len() == 0 || m.Table.Count == 0 {
		return nil
	}
	// Keys outside [Base, Base+Count) — literals, Nil, subjects of other
	// tables — can never match: one pass drops them and finds the window
	// [lo, hi) of table rows the rest reach.
	keys := m.left.Cols[ki]
	base, count := m.Table.Base, uint64(m.Table.Count)
	lo, hi, n := count, uint64(0), 0
	for _, k := range keys {
		if r := uint64(k) - base; r < count {
			lo, hi, n = min(lo, r), max(hi, r+1), n+1
		}
	}
	if n == 0 {
		return nil
	}
	span := int(hi - lo)
	if err := ctx.Mem.Grow(4 * int64(n+span+2)); err != nil {
		ctx.Fail(err)
		return err
	}
	// Counting sort by row: starts[r+1] ends up as the first slot of row
	// r+1, i.e. the end of row r; filling in input order keeps it stable.
	starts := make([]int32, span+2)
	for _, k := range keys {
		if r := uint64(k) - base; r < count {
			starts[r-lo+2]++
		}
	}
	for r := 2; r < len(starts); r++ {
		starts[r] += starts[r-1]
	}
	m.order = make([]int32, n)
	for i, k := range keys {
		if r := uint64(k) - base; r < count {
			w := &starts[r-lo+1]
			m.order[*w] = int32(i)
			*w++
		}
	}
	m.starts, m.rowLo = starts[:span+1], int(lo)
	m.inner = NewScanOp(m.Table, m.Star, m.UseZones, int(lo), int(hi))
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
	m.rows, m.at = make([]int32, 0, BatchRows), make([]int32, 0, BatchRows)
	m.done = false
	return nil
}

// Next appends the matches of the next inner rows to b until it is full,
// resuming inside an inner row whose matches did not fit last time.
func (m *MergeJoinOp) Next(b *Batch) bool {
	first := dict.OID(m.Table.Base + uint64(m.rowLo)) // subject of window row 0
	span := uint64(len(m.starts) - 1)
	for !m.done && !b.Full() {
		ib := m.innerBatch
		if m.j == ib.Len() {
			ib.Reset()
			m.j, m.k = 0, 0
			if !m.inner.Next(ib) {
				m.done = true
			}
			continue
		}
		rows, at := m.rows[:0], m.at[:0]
		room := BatchRows - b.Len()
		subj := ib.Cols[0] // inner vars lead with the subject
		for ; m.j < ib.Len() && len(rows) < room; m.j, m.k = m.j+1, 0 {
			p := m.j
			if ib.Sel != nil {
				p = int(ib.Sel[p])
			}
			r := uint64(subj[p] - first)
			if r >= span {
				continue
			}
			match := m.order[int(m.starts[r])+m.k : m.starts[r+1]]
			take := min(len(match), room-len(rows))
			for _, li := range match[:take] {
				rows, at = append(rows, li), append(at, int32(p))
			}
			if take < len(match) {
				m.k += take // b is full: resume inside row j
				break
			}
		}
		gatherPairs(b, m.left, m.fromLeft, rows, ib, m.fromInner, at)
		m.rows, m.at = rows, at
	}
	return b.Len() > 0
}

func (m *MergeJoinOp) Close() {
	if m.inner != nil {
		m.inner.Close()
	}
}
