package exec

import (
	"slices"

	"srdf/internal/dict"
)

// BatchRows is the vector size of the streaming executor: operators
// exchange fixed-capacity OID batches instead of fully materialized
// relations, MonetDB/X100-style. It matches colstore.BlockRows so one
// scanned block fills at most one batch.
const BatchRows = 1024

// Batch is one vector of bindings flowing between operators: a column of
// OIDs per variable, at most BatchRows rows. Batches are owned by the
// consumer and refilled on every Next call, so their backing arrays —
// grown by append to what producers write, never past BatchRows — are
// reused across the whole pull (see blocks.go for the sizing contract).
//
// A producer fills a batch in one of two ways:
//
//   - appending rows (AppendRow / direct appends to Cols), the owned,
//     materialized form, or
//   - lending column views with SetViews — zero-copy slices of storage
//     (decoded segment blocks, another batch's columns) plus an optional
//     selection vector. Lent views stay valid until the consumer's next
//     Reset+Next cycle, exactly the lifetime of an owned fill.
//
// When Sel is non-nil, the batch's logical rows are Cols[c][Sel[r]] for
// r in [0,len(Sel)): filters and scan predicate kernels shrink Sel
// instead of copying survivors, and consumers gather through Sel only at
// true materialization points (Drain, hash build, aggregation).
type Batch struct {
	Vars []string
	Cols [][]dict.OID
	// Sel, when non-nil, is an ascending selection over the physical rows
	// of Cols; logical row r is Cols[c][Sel[r]].
	Sel []int32

	// own holds the batch's backing arrays so Reset can reclaim them
	// after a producer lent views.
	own      [][]dict.OID
	borrowed bool
}

// NewBatch returns an empty batch with no backing storage: columns grow
// on first append, and a batch that only ever receives views never
// allocates any.
func NewBatch(vars []string) *Batch {
	cols := make([][]dict.OID, 2*len(vars))
	return &Batch{Vars: vars, Cols: cols[:len(vars):len(vars)], own: cols[len(vars):]}
}

// Len returns the logical row count.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// At returns logical row r of column c.
func (b *Batch) At(c, r int) dict.OID {
	if b.Sel != nil {
		return b.Cols[c][b.Sel[r]]
	}
	return b.Cols[c][r]
}

// Reset truncates the batch to zero rows, keeping capacity and
// reclaiming the owned arrays if a producer lent views.
func (b *Batch) Reset() {
	if b.borrowed {
		for i := range b.own {
			b.Cols[i] = b.own[i][:0]
		}
		b.borrowed = false
	} else {
		for i := range b.Cols {
			b.Cols[i] = b.Cols[i][:0]
			b.own[i] = b.Cols[i]
		}
	}
	b.Sel = nil
}

// SetViews lends column views (with an optional selection vector) to the
// batch in place of its owned arrays; they remain valid until the next
// Reset. cols must match Vars positionally.
func (b *Batch) SetViews(sel []int32, cols ...[]dict.OID) {
	copy(b.Cols, cols)
	b.Sel = sel
	b.borrowed = true
}

// Full reports that the batch reached its target capacity.
func (b *Batch) Full() bool { return b.Len() >= BatchRows }

// AppendRow adds one row; vals must match Vars. Only valid on owned
// (non-view) fills.
func (b *Batch) AppendRow(vals ...dict.OID) {
	for i, v := range vals {
		b.Cols[i] = append(b.Cols[i], v)
	}
}

// gatherSel appends the selected rows of col to dst — the one gather
// loop shared by every materialization point.
func gatherSel(dst, col []dict.OID, sel []int32) []dict.OID {
	dst = slices.Grow(dst, len(sel))
	for _, k := range sel {
		dst = append(dst, col[k])
	}
	return dst
}

// gatherPairs appends one row per join match pair i to b, column by
// column: output column c reads rel's column fromRel[c] at row rows[i]
// when fromRel[c] >= 0, else bat's column fromBat[c] at physical row
// at[i]. It is the output path of the joins, which match a
// materialized side against a streamed batch.
func gatherPairs(b *Batch, rel *Rel, fromRel []int, rows []int32, bat *Batch, fromBat []int, at []int32) {
	for c := range b.Cols {
		if ri := fromRel[c]; ri >= 0 {
			b.Cols[c] = gatherSel(b.Cols[c], rel.Cols[ri], rows)
		} else {
			b.Cols[c] = gatherSel(b.Cols[c], bat.Cols[fromBat[c]], at)
		}
	}
}

// AppendToCols gathers the batch's logical rows onto dst column-wise —
// a bulk append per column when no selection is active. dst must have
// the batch's arity.
func (b *Batch) AppendToCols(dst [][]dict.OID) {
	for i, col := range b.Cols {
		if b.Sel == nil {
			dst[i] = append(dst[i], col...)
			continue
		}
		dst[i] = gatherSel(dst[i], col, b.Sel)
	}
}

// CopyRel materializes the batch's logical rows into a fresh relation.
func (b *Batch) CopyRel() *Rel {
	out := NewRel(b.Vars...)
	n := b.Len()
	for i := range out.Cols {
		out.Cols[i] = make([]dict.OID, 0, n)
	}
	b.AppendToCols(out.Cols)
	return out
}

// Materialize gathers any active selection into the batch's owned
// arrays, leaving it dense (Sel == nil).
func (b *Batch) Materialize() {
	if b.Sel == nil {
		return
	}
	for i := range b.own {
		out := gatherSel(b.own[i][:0], b.Cols[i], b.Sel)
		b.own[i] = out
		b.Cols[i] = out
	}
	b.Sel = nil
	b.borrowed = false
}

// asRel returns a Rel header over the batch's logical rows, gathering
// through Sel first when a selection is active (no copy otherwise).
// Valid until the next Reset/append cycle.
func (b *Batch) asRel() *Rel {
	b.Materialize()
	return &Rel{Vars: b.Vars, Cols: b.Cols}
}

// Operator is a pull-based vectorized plan operator. The contract:
// Open prepares state; Next fills the batch with
// the next rows and reports whether it produced any — false means the
// stream is exhausted; Close releases resources and may be called before
// exhaustion (early termination, e.g. LIMIT). Open/Close are called at
// most once.
type Operator interface {
	// Vars lists the output columns, available before Open.
	Vars() []string
	Open(ctx *Ctx) error
	Next(b *Batch) bool
	Close()
}

// Drain pulls an operator to completion into a materialized relation —
// the adapter that keeps the operator-at-a-time API (and everything built
// on it: Explain samples, tests, aggregation) working over the streaming
// engine.
func Drain(ctx *Ctx, op Operator) *Rel {
	out := NewRel(op.Vars()...)
	if err := op.Open(ctx); err != nil {
		return out
	}
	defer op.Close()
	b := NewBatch(op.Vars())
	for {
		if ctx.Cancelled() {
			return out
		}
		b.Reset()
		if !op.Next(b) {
			return out
		}
		// charge the materialized cells against the query's budget; on
		// exhaustion record the failure and stop draining (callers poll
		// ctx or StopErr to notice)
		if err := ctx.Mem.Grow(int64(b.Len()*len(out.Cols)) * 8); err != nil {
			ctx.Fail(err)
			return out
		}
		b.AppendToCols(out.Cols)
	}
}

// relCursor streams a materialized relation in batches.
type relCursor struct {
	rel *Rel
	off int
}

func (c *relCursor) fill(b *Batch) bool {
	n := c.rel.Len() - c.off
	if n <= 0 {
		return false
	}
	room := BatchRows - b.Len()
	if n > room {
		n = room
	}
	for i := range c.rel.Cols {
		b.Cols[i] = append(b.Cols[i], c.rel.Cols[i][c.off:c.off+n]...)
	}
	c.off += n
	return true
}

// RelSource streams an already materialized relation.
type RelSource struct {
	rel *Rel
	cur relCursor
}

// NewRelSource wraps rel as an operator.
func NewRelSource(rel *Rel) *RelSource { return &RelSource{rel: rel} }

func (s *RelSource) Vars() []string      { return s.rel.Vars }
func (s *RelSource) Open(ctx *Ctx) error { s.cur = relCursor{rel: s.rel}; return nil }
func (s *RelSource) Next(b *Batch) bool  { return s.cur.fill(b) }
func (s *RelSource) Close()              {}

// LazyOp defers a materializing evaluation until first pull — used for
// operators that are inherently whole-input (the irregular residual,
// generic triple scans) so they cost nothing when an upstream LIMIT stops
// before reaching them.
type LazyOp struct {
	vars []string
	f    func(*Ctx) *Rel
	ctx  *Ctx
	cur  *relCursor
}

// NewLazyOp builds a lazily materialized operator.
func NewLazyOp(vars []string, f func(*Ctx) *Rel) *LazyOp {
	return &LazyOp{vars: vars, f: f}
}

func (s *LazyOp) Vars() []string      { return s.vars }
func (s *LazyOp) Open(ctx *Ctx) error { s.ctx = ctx; return nil }
func (s *LazyOp) Next(b *Batch) bool {
	if s.cur == nil {
		s.cur = &relCursor{rel: s.f(s.ctx)}
	}
	return s.cur.fill(b)
}
func (s *LazyOp) Close() {}

// MapOp applies a chunkwise Rel transformation to every input batch
// (the EqSelect step) that maps one relation to another row-locally. One
// input batch may expand to more than one output batch or shrink to
// zero; MapOp buffers the expansion and keeps pulling on shrink.
type MapOp struct {
	in   Operator
	vars []string
	f    func(ctx *Ctx, chunk *Rel) *Rel

	ctx     *Ctx
	inBatch *Batch
	pending relCursor
}

// NewMapOp builds a chunk-transforming operator with the given output
// schema.
func NewMapOp(in Operator, vars []string, f func(*Ctx, *Rel) *Rel) *MapOp {
	return &MapOp{in: in, vars: vars, f: f}
}

func (m *MapOp) Vars() []string { return m.vars }

func (m *MapOp) Open(ctx *Ctx) error {
	m.ctx = ctx
	m.inBatch = NewBatch(m.in.Vars())
	return m.in.Open(ctx)
}

func (m *MapOp) Next(b *Batch) bool {
	for {
		if m.pending.rel != nil && m.pending.fill(b) {
			return true
		}
		m.inBatch.Reset()
		if !m.in.Next(m.inBatch) {
			return false
		}
		m.pending = relCursor{rel: m.f(m.ctx, m.inBatch.asRel())}
	}
}

func (m *MapOp) Close() { m.in.Close() }

// UnionOp concatenates child streams, aligning each child's columns to
// the output schema by variable name (missing columns yield Nil).
type UnionOp struct {
	vars     []string
	children []Operator

	ctx      *Ctx
	i        int
	open     bool
	perm     []int
	identity bool
	child    *Batch
}

// NewUnionOp builds a concatenating union with the given output schema.
func NewUnionOp(vars []string, children ...Operator) *UnionOp {
	return &UnionOp{vars: vars, children: children}
}

func (u *UnionOp) Vars() []string      { return u.vars }
func (u *UnionOp) Open(ctx *Ctx) error { u.ctx = ctx; return nil }

func (u *UnionOp) Next(b *Batch) bool {
	for u.i < len(u.children) {
		c := u.children[u.i]
		if !u.open {
			if err := c.Open(u.ctx); err != nil {
				u.i++
				continue
			}
			u.open = true
			u.perm = make([]int, len(u.vars))
			cv := c.Vars()
			u.identity = len(cv) == len(u.vars)
			for k, v := range u.vars {
				u.perm[k] = -1
				for ci, w := range cv {
					if w == v {
						u.perm[k] = ci
						break
					}
				}
				if u.perm[k] != k {
					u.identity = false
				}
			}
			u.child = NewBatch(cv)
		}
		u.child.Reset()
		if !c.Next(u.child) {
			c.Close()
			u.open = false
			u.i++
			continue
		}
		if u.identity && b.Len() == 0 {
			// Schema-aligned child: forward its views (and selection)
			// without gathering — the common RDFscan-under-union shape.
			b.SetViews(u.child.Sel, u.child.Cols...)
			return true
		}
		n := u.child.Len()
		for k, p := range u.perm {
			if p < 0 {
				for r := 0; r < n; r++ {
					b.Cols[k] = append(b.Cols[k], dict.Nil)
				}
				continue
			}
			col := u.child.Cols[p]
			if u.child.Sel == nil {
				b.Cols[k] = append(b.Cols[k], col...)
				continue
			}
			b.Cols[k] = gatherSel(b.Cols[k], col, u.child.Sel)
		}
		return true
	}
	return false
}

func (u *UnionOp) Close() {
	if u.open && u.i < len(u.children) {
		u.children[u.i].Close()
		u.open = false
	}
	// children beyond i were never opened
}
