package exec

import (
	"container/heap"
	"fmt"
	"sort"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// SortOp orders its input by the ORDER BY keys. Without a row bound it
// materializes and stable-sorts the whole input (inherent to sorting).
// With Keep = k >= 0 — ORDER BY paired with LIMIT/OFFSET — it maintains
// a bounded heap of the best k rows instead, so sort state never
// exceeds k rows no matter how large the input is and top-K queries
// stream in O(k) memory.
type SortOp struct {
	in   ValOperator
	keys []sparql.OrderKey
	// Keep bounds the retained rows (LIMIT+OFFSET); -1 keeps everything.
	Keep int

	ctx     *Ctx
	colOf   map[string]int
	maxHeld int
	ran     bool
	out     vrowsCursor
}

// NewSortOp builds a sort of in by keys, retaining at most keep rows
// (-1 = all). Keys must pass ValidateOrderKeys against in.Vars().
func NewSortOp(in ValOperator, keys []sparql.OrderKey, keep int) *SortOp {
	return &SortOp{in: in, keys: keys, Keep: keep}
}

// ValidateOrderKeys checks that ORDER BY keys are evaluable against the
// result columns: every referenced variable must be an output column
// (the common case is an aggregation alias) and aggregates cannot be
// ordered on directly.
func ValidateOrderKeys(vars []string, keys []sparql.OrderKey) error {
	cols := make(map[string]bool, len(vars))
	for _, v := range vars {
		cols[v] = true
	}
	for _, k := range keys {
		var err error
		sparql.WalkExpr(k.Expr, func(e sparql.Expr) bool {
			switch x := e.(type) {
			case *sparql.ExVar:
				if !cols[x.Name] {
					err = fmt.Errorf("exec: ORDER BY ?%s is not a result column", x.Name)
				}
			case *sparql.ExLit, *sparql.ExBin, *sparql.ExUn:
			default:
				err = fmt.Errorf("exec: unsupported ORDER BY expression")
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxHeld reports the peak number of rows the sort retained — the
// quantity the top-K bound promises stays ≤ Keep.
func (s *SortOp) MaxHeld() int { return s.maxHeld }

func (s *SortOp) Vars() []string { return s.in.Vars() }

func (s *SortOp) Open(ctx *Ctx) error {
	s.ctx = ctx
	s.colOf = make(map[string]int, len(s.in.Vars()))
	for i, v := range s.in.Vars() {
		s.colOf[v] = i
	}
	return s.in.Open(ctx)
}

func (s *SortOp) Next(b *VBatch) bool {
	if !s.ran {
		s.ran = true
		s.run()
	}
	return s.out.fill(b)
}

func (s *SortOp) Close() { s.in.Close() }

// sortRow is one retained row with its precomputed key values and input
// sequence number (the stability tie-break).
type sortRow struct {
	vals []dict.Value
	keys []dict.Value
	seq  int
}

// less is the total order of the sort: ORDER BY keys first, input order
// on ties — exactly the order a stable sort of the full input produces,
// which is what makes the bounded heap row-identical to the full sort.
func (s *SortOp) less(a, b *sortRow) bool {
	for i, k := range s.keys {
		c := dict.Compare(a.keys[i], b.keys[i])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

func (s *SortOp) run() {
	var rows []*sortRow
	h := topKHeap{op: s}
	inb := NewVBatch(s.in.Vars())
	seq := 0
	for !s.ctx.Cancelled() && s.in.Next(inb) {
		for i := 0; i < inb.Len(); i++ {
			r := &sortRow{
				vals: inb.Row(i, nil),
				keys: make([]dict.Value, len(s.keys)),
				seq:  seq,
			}
			s.ctx.decodeRow(r.vals)
			seq++
			for ki := range s.keys {
				r.keys[ki] = s.evalKey(r.vals, s.keys[ki].Expr)
			}
			switch {
			case s.Keep < 0:
				// only net growth is charged: the top-K replace case
				// swaps a row in place and stays within budget
				if err := s.ctx.Mem.Grow(sortRowCost(r)); err != nil {
					s.ctx.Fail(err)
					s.out = vrowsCursor{}
					return
				}
				rows = append(rows, r)
				s.held(len(rows))
			case len(h.rows) < s.Keep:
				if err := s.ctx.Mem.Grow(sortRowCost(r)); err != nil {
					s.ctx.Fail(err)
					s.out = vrowsCursor{}
					return
				}
				heap.Push(&h, r)
				s.held(len(h.rows))
			case s.Keep > 0 && s.less(r, h.rows[0]):
				// better than the current worst: replace it
				h.rows[0] = r
				heap.Fix(&h, 0)
			}
		}
		inb.Reset()
	}
	if s.Keep >= 0 {
		rows = h.rows
	}
	sort.Slice(rows, func(i, j int) bool { return s.less(rows[i], rows[j]) })
	out := make([][]dict.Value, len(rows))
	for i, r := range rows {
		out[i] = r.vals
	}
	s.out = vrowsCursor{rows: out}
}

// sortRowCost estimates the retained bytes of one sort row: slice
// headers plus per-value struct and string payload.
func sortRowCost(r *sortRow) int64 {
	n := int64(64)
	for _, v := range r.vals {
		n += 40 + int64(len(v.Str))
	}
	for _, v := range r.keys {
		n += 40 + int64(len(v.Str))
	}
	return n
}

func (s *SortOp) held(n int) {
	if n > s.maxHeld {
		s.maxHeld = n
	}
}

// evalKey evaluates one ORDER BY key against a result row. Keys are
// validated at plan time, so unknown variables cannot occur here.
func (s *SortOp) evalKey(row []dict.Value, e sparql.Expr) dict.Value {
	switch x := e.(type) {
	case *sparql.ExVar:
		ci, ok := s.colOf[x.Name]
		if !ok {
			return dict.Value{}
		}
		return row[ci]
	case *sparql.ExLit:
		return x.Val
	case *sparql.ExUn:
		return applyUnary(x.Op, s.evalKey(row, x.E))
	case *sparql.ExBin:
		return applyBinary(x.Op, s.evalKey(row, x.L), s.evalKey(row, x.R))
	default:
		return dict.Value{}
	}
}

// topKHeap keeps the k best rows with the worst at the root, so one
// comparison against the root rejects most rows of a large input.
type topKHeap struct {
	op   *SortOp
	rows []*sortRow
}

func (h *topKHeap) Len() int           { return len(h.rows) }
func (h *topKHeap) Less(i, j int) bool { return h.op.less(h.rows[j], h.rows[i]) }
func (h *topKHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topKHeap) Push(x interface{}) { h.rows = append(h.rows, x.(*sortRow)) }
func (h *topKHeap) Pop() interface{} {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}
