// Package exec is the vectorized query executor. It provides the
// operators of both plan families in the paper:
//
//   - the Default family — per-property index scans over the six ordered
//     projections, stitched together with merge and index-lookup
//     self-joins (the plan shape of Fig. 4's left-hand sides), and
//   - the RDFscan/RDFjoin family — multi-property scans over the
//     clustered CS columns that produce a whole star in one pass with no
//     self-join effort, with zone-map block skipping (right-hand sides).
//
// All operators account page touches against the store's buffer pool, so
// cold/hot and clustered/parse-order contrasts surface in both simulated
// I/O and wall time.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"srdf/internal/colstore"
	"srdf/internal/dict"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

// Rel is a materialized binding relation: one OID column per variable.
// dict.Nil cells are unbound (possible only transiently inside residual
// evaluation; BGP results are fully bound).
type Rel struct {
	Vars []string
	Cols [][]dict.OID
}

// NewRel allocates an empty relation with the given variables.
func NewRel(vars ...string) *Rel {
	r := &Rel{Vars: vars, Cols: make([][]dict.OID, len(vars))}
	return r
}

// Len returns the row count.
func (r *Rel) Len() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// ColIdx returns the column index of a variable, or -1.
func (r *Rel) ColIdx(v string) int {
	for i, name := range r.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// AppendRow adds one row; vals must match Vars.
func (r *Rel) AppendRow(vals ...dict.OID) {
	if len(vals) != len(r.Vars) {
		panic(fmt.Sprintf("exec: row arity %d != %d", len(vals), len(r.Vars)))
	}
	for i, v := range vals {
		r.Cols[i] = append(r.Cols[i], v)
	}
}

// Row copies row i into dst.
func (r *Rel) Row(i int, dst []dict.OID) []dict.OID {
	dst = dst[:0]
	for _, c := range r.Cols {
		dst = append(dst, c[i])
	}
	return dst
}

// Select returns a new relation with only the rows whose index is in
// keep (ascending).
func (r *Rel) Select(keep []int32) *Rel {
	out := &Rel{Vars: r.Vars, Cols: make([][]dict.OID, len(r.Cols))}
	for ci, col := range r.Cols {
		nc := make([]dict.OID, len(keep))
		for i, k := range keep {
			nc[i] = col[k]
		}
		out.Cols[ci] = nc
	}
	return out
}

// Ctx carries the store state an executor needs.
type Ctx struct {
	Dict *dict.Dictionary
	// Idx are the six projections over the full triple table (the
	// exhaustive-indexing access paths of the Default plans).
	Idx *triples.IndexSet
	// Cat is the materialized relational catalog (nil before Organize).
	Cat *relational.Catalog
	// Pool is the buffer pool; operators account page touches here.
	Pool *colstore.BufferPool
	// projTracks maps each projection an index scan has read to
	// trackers of its three columns, so index scans charge I/O like any
	// other access path (*triples.Projection → *[3]*colstore.TrackedSlice).
	// The queries of one snapshot share it; nil disables the accounting.
	projTracks *sync.Map
	// Query is the cancellation signal of the running query (nil: never
	// cancelled). Operators poll it at batch boundaries: when it fires,
	// Next calls report exhaustion and the drain loops of materializing
	// operators (hash build, aggregation, sort) bail mid-input — so a
	// per-query timeout or a disconnected client stops scans and joins
	// promptly instead of running the pipeline dry.
	Query context.Context
	// done caches Query.Done() so the per-batch poll is one channel read.
	done <-chan struct{}
	// Mem is the query's memory budget (nil: unlimited). Materializing
	// operators charge their retained bytes here and fail the query with
	// ErrMemBudget when it is exhausted.
	Mem *MemAccountant
	// Stats is the query's per-operator runtime stats tree (nil: the
	// StatsOp wrappers count into throwaway local slots). Allocated per
	// query — never on the shared snapshot Ctx — so concurrent
	// executions of one cached plan keep separate counters.
	Stats *QueryStats
	// ReqID is the server request id of the query ("" outside the
	// server), carried here so executor-side failures correlate with
	// the access log.
	ReqID string
	// fail is the query's failure slot: the first executor-side error —
	// a recovered panic, an exhausted memory budget — is parked
	// here and treated like a cancellation by every batch-boundary poll,
	// so the whole pipeline unwinds and the iterator reports the cause.
	// Allocated per query by WithQueryContext; nil on the shared
	// snapshot Ctx.
	fail *atomic.Pointer[failSlot]
	// lits is the literal value table bound once per query by
	// WithQueryContext (indexed by payload-1), so decoding a literal cell
	// is an index, not a dictionary lock. Literals minted after the bind
	// lie past its end and take the locked lookup.
	lits []dict.Value
}

// failSlot boxes the error so it fits an atomic pointer.
type failSlot struct{ err error }

// WithQueryContext returns a shallow copy of the Ctx bound to qctx (nil
// for a query that cannot be cancelled) with a fresh failure slot. The
// shared snapshot Ctx stays untouched, so concurrent queries on one
// snapshot each carry their own cancellation signal and failure state.
func (c *Ctx) WithQueryContext(qctx context.Context) *Ctx {
	cp := *c
	cp.Query = qctx
	cp.done = nil
	if qctx != nil {
		cp.done = qctx.Done()
	}
	cp.fail = new(atomic.Pointer[failSlot])
	cp.Stats = nil // per-query; the caller attaches a fresh tree
	if c.Dict != nil {
		cp.lits = c.Dict.LiteralValues()
	}
	return &cp
}

// Fail parks err as the query's failure (first error wins). A Ctx never
// forked by WithQueryContext has no failure slot and drops it.
func (c *Ctx) Fail(err error) {
	if c.fail != nil && err != nil {
		c.fail.CompareAndSwap(nil, &failSlot{err: err})
	}
}

// ExecErr returns the query's recorded executor failure (recovered
// panic, memory budget), or nil.
func (c *Ctx) ExecErr() error {
	if c.fail == nil {
		return nil
	}
	if f := c.fail.Load(); f != nil {
		return f.err
	}
	return nil
}

// Cancelled reports whether the query should stop: its context fired or
// an executor failure was recorded. It is cheap enough to poll once per
// batch.
func (c *Ctx) Cancelled() bool {
	if c.fail != nil && c.fail.Load() != nil {
		return true
	}
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// CancelErr returns the cancellation cause (context.Canceled or
// context.DeadlineExceeded), or nil while the query is live.
func (c *Ctx) CancelErr() error {
	if c.Query == nil {
		return nil
	}
	return c.Query.Err()
}

// StopErr returns why the pipeline should stop — the recorded executor
// failure first (it is the more specific cause), then the cancellation
// error — or nil while the query is live.
func (c *Ctx) StopErr() error {
	if err := c.ExecErr(); err != nil {
		return err
	}
	return c.CancelErr()
}

// TrackProjections turns on buffer-pool accounting of index scans. A
// projection is registered with the pool the first time a scan touches
// it — not when the snapshot is published, because an index set sorts
// most of its orders on first use, after publication, and an order
// registered too early to exist would be read for free.
func (c *Ctx) TrackProjections() { c.projTracks = new(sync.Map) }

// touchProj accounts a read of rows [lo,hi) of cols (bitmask: 1=A 2=B
// 4=C) of a projection.
func (c *Ctx) touchProj(pr *triples.Projection, lo, hi int, cols uint8) {
	if c.projTracks == nil {
		return
	}
	v, ok := c.projTracks.Load(pr)
	if !ok {
		v, _ = c.projTracks.LoadOrStore(pr, &[3]*colstore.TrackedSlice{
			colstore.Track(pr.A, c.Pool),
			colstore.Track(pr.B, c.Pool),
			colstore.Track(pr.C, c.Pool),
		})
	}
	ts := v.(*[3]*colstore.TrackedSlice)
	if cols&1 != 0 {
		ts[0].Touch(lo, hi)
	}
	if cols&2 != 0 {
		ts[1].Touch(lo, hi)
	}
	if cols&4 != 0 {
		ts[2].Touch(lo, hi)
	}
}

// decodeRow decodes, in place, the cells of a head row that ProjectOp
// handed on as bare OIDs (see VBatch); computed, unbound and already
// decoded cells stay as they are. It is the one place a head consumer
// turns a cell into its typed value.
func (c *Ctx) decodeRow(row []dict.Value) {
	for i, v := range row {
		if v.Kind == dict.VInvalid && v.OID != dict.Nil {
			row[i] = c.valueOf(v.OID)
		}
	}
}

// valueOf decodes an OID for expression evaluation: literals get their
// typed value; resources compare as their IRI/blank string; Nil is
// invalid (filters reject it).
func (c *Ctx) valueOf(o dict.OID) dict.Value {
	if o == dict.Nil {
		return dict.Value{}
	}
	if o.IsLiteral() {
		var v dict.Value
		if p := o.Payload() - 1; p < uint64(len(c.lits)) {
			v = c.lits[p]
		} else {
			v = c.Dict.Value(o)
		}
		v.OID = o
		return v
	}
	t, ok := c.Dict.Term(o)
	if !ok {
		return dict.Value{}
	}
	if t.Kind == dict.KindBlank {
		return dict.Value{Kind: dict.VString, Str: "_:" + t.Value, OID: o}
	}
	return dict.Value{Kind: dict.VString, Str: t.Value, OID: o}
}
