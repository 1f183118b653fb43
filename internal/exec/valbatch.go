package exec

import (
	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// VBatch is one vector of result rows flowing through the query head: a
// column of cells per output name, at most BatchRows rows. Where the BGP
// pipeline exchanges OID batches, the head operators (Project, Aggregate,
// Distinct, Sort) exchange value batches, so solution modifiers run
// inside the vectorized pipeline instead of over a materialized result.
//
// A cell is materialized late: ProjectOp hands a bare variable on as its
// OID alone (Kind VInvalid, OID set), and only a consumer that needs the
// typed value — RowIter.Row, SortOp — decodes it, through
// Ctx.decodeRow. A serializer never does: it writes the term the OID
// names. Computed cells carry their value and no OID; the zero Value is
// unbound.
type VBatch struct {
	Vars []string
	Cols [][]dict.Value
}

// NewVBatch returns an empty value batch; its columns grow on append.
func NewVBatch(vars []string) *VBatch {
	return &VBatch{Vars: vars, Cols: make([][]dict.Value, len(vars))}
}

// newBlockVBatch returns an empty value batch whose columns are
// free-list blocks, for an owner that returns them with release.
func newBlockVBatch(vars []string) *VBatch {
	b := NewVBatch(vars)
	for c := range b.Cols {
		b.Cols[c] = valBlocks.get()[:0]
	}
	return b
}

// release returns the columns of a newBlockVBatch batch to the free list;
// the batch must not be used afterwards.
func (b *VBatch) release() {
	for _, c := range b.Cols {
		valBlocks.put(c)
	}
	b.Cols = nil
}

// Len returns the row count.
func (b *VBatch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Reset truncates the batch to zero rows, keeping capacity.
func (b *VBatch) Reset() {
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
}

// AppendRow adds one row; vals must match Vars.
func (b *VBatch) AppendRow(vals ...dict.Value) {
	for i, v := range vals {
		b.Cols[i] = append(b.Cols[i], v)
	}
}

// Row copies row i into dst.
func (b *VBatch) Row(i int, dst []dict.Value) []dict.Value {
	dst = dst[:0]
	for _, c := range b.Cols {
		dst = append(dst, c[i])
	}
	return dst
}

// ValOperator is a pull-based operator over value batches — the
// head-side mirror of Operator. The contract is identical: Open prepares
// state, Next fills the batch and reports whether it produced rows, and
// Close releases resources and may arrive before exhaustion (LIMIT).
type ValOperator interface {
	// Vars lists the output columns, available before Open.
	Vars() []string
	Open(ctx *Ctx) error
	Next(b *VBatch) bool
	Close()
}

// vrowsCursor streams materialized value rows in batches.
type vrowsCursor struct {
	rows [][]dict.Value
	off  int
}

func (c *vrowsCursor) fill(b *VBatch) bool {
	n := len(c.rows) - c.off
	if n <= 0 {
		return false
	}
	room := BatchRows - b.Len()
	if n > room {
		n = room
	}
	for i := 0; i < n; i++ {
		row := c.rows[c.off+i]
		for ci := range b.Cols {
			b.Cols[ci] = append(b.Cols[ci], row[ci])
		}
	}
	c.off += n
	return n > 0
}

// ProjectOp evaluates the query's select expressions over each input
// batch, turning OID batches into value batches — the streaming
// projection at the boundary between the BGP pipeline and the head. A
// bare-variable item passes its OIDs on undecoded (see VBatch); any other
// expression runs compiled.
type ProjectOp struct {
	in   Operator
	vars []string
	// cols is each item's input column when it is a bare variable, -1
	// for an unbound one, and -2 for a compiled expression (root in
	// roots).
	cols  []int
	roots []int
	prog  program
	// budget caps the rows ever evaluated (-1 = unlimited). When the
	// head is a bare projection under a LIMIT, only LIMIT+OFFSET rows
	// are needed, so evaluating the rest of a pulled batch is pure waste.
	budget int

	ctx     *Ctx
	inBatch *Batch
}

// NewProjectOp builds a streaming projection of items over in.
func NewProjectOp(in Operator, items []sparql.SelectItem) *ProjectOp {
	p := &ProjectOp{in: in, budget: -1}
	p.vars = make([]string, len(items))
	p.cols = make([]int, len(items))
	inVars := in.Vars()
	for i := range items {
		p.vars[i] = items[i].As
		if v, ok := items[i].Expr.(*sparql.ExVar); ok {
			p.cols[i] = varIndex(inVars, v.Name)
			continue
		}
		if p.roots == nil {
			p.roots = make([]int, len(items))
			n := 0
			for _, it := range items[i:] {
				n += exprSize(it.Expr)
			}
			p.prog.reserve(n)
		}
		p.cols[i] = -2
		p.roots[i] = p.prog.compile(items[i].Expr, inVars, nil)
	}
	return p
}

// SetRowBound caps the total rows the projection evaluates; only valid
// when no downstream modifier needs more input rows than the bound.
func (p *ProjectOp) SetRowBound(n int) { p.budget = n }

// SelectItems resolves a query's projection list against the pipeline's
// output variables, expanding SELECT *.
func SelectItems(q *sparql.Query, vars []string) []sparql.SelectItem {
	if !q.SelectAll {
		return q.Select
	}
	items := make([]sparql.SelectItem, 0, len(vars))
	for _, v := range vars {
		items = append(items, sparql.SelectItem{Expr: &sparql.ExVar{Name: v}, As: v})
	}
	return items
}

func (p *ProjectOp) Vars() []string { return p.vars }

func (p *ProjectOp) Open(ctx *Ctx) error {
	p.ctx = ctx
	p.inBatch = NewBatch(p.in.Vars())
	return p.in.Open(ctx)
}

func (p *ProjectOp) Next(b *VBatch) bool {
	if p.budget == 0 {
		return false
	}
	p.inBatch.Reset()
	if !p.in.Next(p.inBatch) {
		return false
	}
	// Evaluate over the batch's physical columns through its selection
	// vector — filtered-out rows are never touched, and view batches are
	// never gathered.
	in := p.inBatch
	n := in.Len()
	if p.budget >= 0 && n > p.budget {
		n = p.budget
	}
	if p.budget > 0 {
		p.budget -= n
	}
	if p.roots != nil {
		p.prog.run(p.ctx, in.Cols, in.Sel, n, nil)
	}
	for c, ci := range p.cols {
		out := b.Cols[c]
		switch {
		case ci >= 0:
			col := in.Cols[ci]
			for k := 0; k < n; k++ {
				phys := k
				if in.Sel != nil {
					phys = int(in.Sel[k])
				}
				out = append(out, dict.Value{OID: col[phys]})
			}
		case ci == -1:
			for k := 0; k < n; k++ {
				out = append(out, dict.Value{})
			}
		default:
			res := p.prog.result(p.roots[c])
			for k := 0; k < n; k++ {
				out = append(out, res.value(k))
			}
		}
		b.Cols[c] = out
	}
	return true
}

func (p *ProjectOp) Close() {
	p.in.Close()
	p.prog.release()
}

// DistinctOp streams DISTINCT: a hash set of row keys filters each batch
// as it flows past. Only the key set is retained — never the rows — so
// memory is bounded by the number of distinct results, and a downstream
// LIMIT still terminates the pipeline early. A row's key is its cells'
// term identities (appendCellKey), so no cell is decoded: the rows pass
// on as the head produced them.
type DistinctOp struct {
	in ValOperator

	ctx  *Ctx
	seen map[string]bool
	inb  *VBatch
	row  []dict.Value
	kb   []byte
}

// NewDistinctOp builds a streaming duplicate filter over in.
func NewDistinctOp(in ValOperator) *DistinctOp { return &DistinctOp{in: in} }

func (d *DistinctOp) Vars() []string { return d.in.Vars() }

func (d *DistinctOp) Open(ctx *Ctx) error {
	d.ctx = ctx
	d.seen = make(map[string]bool)
	d.inb = NewVBatch(d.in.Vars())
	return d.in.Open(ctx)
}

func (d *DistinctOp) Next(b *VBatch) bool {
	for {
		d.inb.Reset()
		if !d.in.Next(d.inb) {
			return false
		}
		for i := 0; i < d.inb.Len(); i++ {
			d.row = d.inb.Row(i, d.row)
			d.kb = d.kb[:0]
			for _, v := range d.row {
				d.kb = appendCellKey(d.kb, v)
			}
			if d.seen[string(d.kb)] {
				continue
			}
			// the key set is the operator's only retained state
			if err := d.ctx.Mem.Grow(int64(len(d.kb)) + 48); err != nil {
				d.ctx.Fail(err)
				return false
			}
			d.seen[string(d.kb)] = true
			b.AppendRow(d.row...)
		}
		if b.Len() > 0 {
			return true
		}
	}
}

func (d *DistinctOp) Close() { d.in.Close() }
