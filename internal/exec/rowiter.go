package exec

import (
	"encoding/binary"
	"time"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// RowIter is a pull-based query result: rows stream out of the operator
// pipeline as the consumer asks for them, and a satisfied LIMIT closes
// the pipeline without running it to exhaustion. Every solution modifier
// — projection, aggregation, DISTINCT, ORDER BY — runs as a batch
// operator inside the pipeline; the iterator itself only applies
// OFFSET/LIMIT row accounting. A row is decoded to typed values only
// when Row asks for it; Cells hands it on as the head produced it.
type RowIter struct {
	vars []string

	ctx    *Ctx
	vop    ValOperator
	opened bool
	batch  *VBatch
	idx    int
	toSkip int // OFFSET
	remain int // LIMIT budget; -1 = unlimited
	// cells is the current row as the head produced it; row is its
	// decoded copy, filled on the first Row call after each Next.
	cells   []dict.Value
	row     []dict.Value
	decoded bool
	err     error
	// started marks when the pipeline opened; Close folds the elapsed
	// time into the package-wide pipeline-seconds total.
	started time.Time
}

// StreamVal drives a value pipeline under OFFSET/LIMIT and returns a row
// iterator. The caller must Close it (exhaustion closes it
// automatically).
func StreamVal(ctx *Ctx, vop ValOperator, limit, offset int) *RowIter {
	it := &RowIter{ctx: ctx, vop: vop, vars: vop.Vars(), remain: -1}
	if offset > 0 {
		it.toSkip = offset
	}
	if limit >= 0 {
		it.remain = limit
	}
	it.cells = make([]dict.Value, len(it.vars))
	it.row = make([]dict.Value, len(it.vars))
	return it
}

// HeadShape is the resolved head of a query: projection items (SELECT *
// expanded), modifier presence, and the top-K bound, with ORDER BY keys
// validated against the output columns. It is the single source of the
// head composition — exec.Stream builds value operators from it and the
// planner builds its head nodes from it, so the two paths cannot
// diverge on modifier order or bounds.
type HeadShape struct {
	Aggregate bool
	Items     []sparql.SelectItem
	GroupBy   []string
	Distinct  bool
	OrderBy   []sparql.OrderKey
	// Keep is the sort-state bound (LIMIT+OFFSET), -1 for unbounded.
	Keep int
}

// HeadShapeOf resolves a query's head against the BGP pipeline's output
// variables.
func HeadShapeOf(q *sparql.Query, vars []string) (HeadShape, error) {
	hs := HeadShape{
		Aggregate: q.Aggregating(),
		Items:     SelectItems(q, vars),
		GroupBy:   q.GroupBy,
		Distinct:  q.Distinct,
		OrderBy:   q.OrderBy,
		Keep:      SortKeep(q),
	}
	if len(hs.OrderBy) > 0 {
		outVars := make([]string, len(hs.Items))
		for i := range hs.Items {
			outVars[i] = hs.Items[i].As
		}
		if err := ValidateOrderKeys(outVars, hs.OrderBy); err != nil {
			return HeadShape{}, err
		}
	}
	return hs, nil
}

// Ops builds the head's value pipeline over an operator tree:
// aggregation or projection, then DISTINCT, then ORDER BY (top-K when
// bounded) — SPARQL's solution-modifier order.
func (hs HeadShape) Ops(op Operator) ValOperator {
	var vop ValOperator
	if hs.Aggregate {
		vop = NewAggregateOp(op, hs.Items, hs.GroupBy)
	} else {
		proj := NewProjectOp(op, hs.Items)
		if hs.Keep >= 0 && !hs.Distinct && len(hs.OrderBy) == 0 {
			// bare projection under LIMIT: only LIMIT+OFFSET rows are
			// ever consumed, so stop evaluating there
			proj.SetRowBound(hs.Keep)
		}
		vop = proj
	}
	if hs.Distinct {
		vop = NewDistinctOp(vop)
	}
	if len(hs.OrderBy) > 0 {
		vop = NewSortOp(vop, hs.OrderBy, hs.Keep)
	}
	return vop
}

// Stream runs an operator tree under the query's solution modifiers and
// returns a row iterator: residual FILTERs batchwise on the OID side,
// then the HeadShape value pipeline.
func Stream(ctx *Ctx, op Operator, q *sparql.Query) (*RowIter, error) {
	for _, f := range q.Filters {
		op = NewFilterOp(op, f)
	}
	hs, err := HeadShapeOf(q, op.Vars())
	if err != nil {
		return nil, err
	}
	return StreamVal(ctx, hs.Ops(op), q.Limit, q.Offset), nil
}

// SortKeep returns the sort-state bound for a query: LIMIT+OFFSET rows
// when a LIMIT is present (the top-K case), else -1 (unbounded).
func SortKeep(q *sparql.Query) int {
	if q.Limit < 0 {
		return -1
	}
	keep := q.Limit
	if q.Offset > 0 {
		keep += q.Offset
	}
	return keep
}

// Vars lists the output column names.
func (it *RowIter) Vars() []string { return it.vars }

// Next advances to the next row, reporting false at the end of the
// stream. Once LIMIT rows have been produced the underlying pipeline is
// closed immediately.
//
// A panic anywhere in the caller-side pipeline is recovered here and
// converted into a per-query error: Next reports exhaustion and Err
// returns a PanicError — one query fails, the process survives.
func (it *RowIter) Next() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			where := "query pipeline"
			if it.ctx.ReqID != "" {
				where += " (req " + it.ctx.ReqID + ")"
			}
			err := NewPanicError(where, r)
			it.ctx.Fail(err)
			it.err = err
			func() {
				defer func() { recover() }() // a broken operator may panic again in Close
				it.Close()
			}()
			ok = false
		}
	}()
	return it.next()
}

func (it *RowIter) next() bool {
	if it.vop == nil {
		return false
	}
	if it.remain == 0 {
		it.Close()
		return false
	}
	if !it.opened {
		if err := it.vop.Open(it.ctx); err != nil {
			it.err = err
			it.Close()
			return false
		}
		it.opened = true
		it.started = time.Now()
		it.batch = newBlockVBatch(it.vop.Vars())
		it.idx = 0
	}
	for {
		if it.idx >= it.batch.Len() {
			if it.ctx.Cancelled() {
				it.err = it.ctx.StopErr()
				it.Close()
				return false
			}
			it.batch.Reset()
			if !it.vop.Next(it.batch) {
				// a false Next is exhaustion unless the query context
				// fired or an executor failure (recovered panic, memory
				// budget) was recorded, in which case the pipeline
				// bailed early
				if serr := it.ctx.StopErr(); serr != nil {
					it.err = serr
				}
				it.Close()
				return false
			}
			it.idx = 0
		}
		for it.idx < it.batch.Len() {
			i := it.idx
			it.idx++
			if it.toSkip > 0 {
				it.toSkip--
				continue
			}
			for c := range it.cells {
				it.cells[c] = it.batch.Cols[c][i]
			}
			it.decoded = false
			if it.remain > 0 {
				it.remain--
			}
			return true
		}
	}
}

// Row returns the current row decoded to typed values. The slice is
// reused by the next call to Next; copy it to retain.
func (it *RowIter) Row() []dict.Value {
	if !it.decoded {
		copy(it.row, it.cells)
		it.ctx.decodeRow(it.row)
		it.decoded = true
	}
	return it.row
}

// Cells returns the current row as the head produced it, for consumers
// that write terms rather than compute on values: a cell with an OID
// names a dictionary term and may be undecoded (Kind VInvalid), a cell
// without one is a computed value, and the zero Value is unbound. The
// slice is reused by the next call to Next.
func (it *RowIter) Cells() []dict.Value { return it.cells }

// Err reports why the stream ended early: the query context's error
// after a cancellation or timeout, an operator Open failure, a recovered
// pipeline panic (PanicError), an exhausted memory budget
// (ErrMemBudget), or nil for plain exhaustion.
func (it *RowIter) Err() error { return it.err }

// Dict exposes the snapshot dictionary the rows decode against, for
// consumers that resolve Value.OID back to exact RDF terms.
func (it *RowIter) Dict() *dict.Dictionary { return it.ctx.Dict }

// Close shuts the pipeline down; it is idempotent and automatically
// invoked on exhaustion or when LIMIT is reached.
func (it *RowIter) Close() {
	if it.vop != nil {
		if it.opened {
			it.vop.Close()
			it.opened = false
		}
		it.vop = nil
	}
	if it.batch != nil {
		// Row and Cells returned copies, so nothing reads the vectors
		// any more
		it.batch.release()
		it.batch = nil
	}
	if !it.started.IsZero() {
		pipelineNS.Add(time.Since(it.started).Nanoseconds())
		it.started = time.Time{}
	}
}

// Collect drains the iterator into a materialized Result (closing it).
func (it *RowIter) Collect() *Result {
	defer it.Close()
	res := &Result{Vars: it.vars}
	for it.Next() {
		res.Rows = append(res.Rows, append([]dict.Value{}, it.Row()...))
	}
	return res
}

// HeadStream evaluates a full query (FILTERs and solution modifiers)
// over an operator tree and collects the rows; LIMIT terminates the pull
// early.
func HeadStream(ctx *Ctx, op Operator, q *sparql.Query) (*Result, error) {
	it, err := Stream(ctx, op, q)
	if err != nil {
		return nil, err
	}
	return it.Collect(), nil
}

// appendCellKey appends the DISTINCT identity of one head cell to dst,
// for DistinctOp and the DISTINCT aggregates alike. A cell that names a
// dictionary term is that term, keyed by its OID, so "chat"@en,
// "chat"@fr and <chat> stay apart, and so do 1 and "01"^^xsd:integer. A
// computed cell is its value: its kind, the length of its lexical form
// and the lexical form, the length prefix keeping the encoding
// unambiguous whatever bytes the lexical forms contain.
func appendCellKey(dst []byte, v dict.Value) []byte {
	if v.OID != dict.Nil {
		dst = append(dst, 0xff) // no ValueKind
		return binary.AppendUvarint(dst, uint64(v.OID))
	}
	lex := v.Lexical()
	dst = append(dst, byte(v.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(lex)))
	return append(dst, lex...)
}
