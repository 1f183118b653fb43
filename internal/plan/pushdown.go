package plan

import (
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// valRange accumulates a value interval for one variable.
type valRange struct {
	lo, hi dict.Bound
}

func (r *valRange) addLo(v dict.Value, strict bool) {
	if c := dict.Compare(v, r.lo.V); !r.lo.Set || c > 0 || (c == 0 && strict) {
		r.lo = dict.Bound{V: v, Strict: strict, Set: true}
	}
}

func (r *valRange) addHi(v dict.Value, strict bool) {
	if c := dict.Compare(v, r.hi.V); !r.hi.Set || c < 0 || (c == 0 && strict) {
		r.hi = dict.Bound{V: v, Strict: strict, Set: true}
	}
}

// pushFilters derives per-variable value ranges from the query's FILTER
// conjuncts and attaches them as OID ranges to the owning star
// properties, recording each variable that got one in b.pushed. A range
// is the OID interval over the value-ordered literal prefix plus the
// overflow literals (minted since Organize) whose values lie in it, both
// found with the same dict.Compare the filter evaluates with, so a
// pushed range admits exactly the literals that satisfy every conjunct
// it came from; residualFilter drops those conjuncts where the plan
// provably enforces the range on every row. Equality is the degenerate
// range, so every literal equal in value to the constant matches.
func (b *builder) pushFilters(stars []*star) {
	if !b.sv.Organized || !b.sv.Lits.Ordered() {
		return // literal OIDs carry no value order
	}
	ranges := map[string]*valRange{}
	for _, f := range b.q.Filters {
		for _, conj := range conjuncts(f) {
			v, val, op, ok := varCmpLit(conj)
			if !ok {
				continue
			}
			r := ranges[v]
			if r == nil {
				r = &valRange{}
				ranges[v] = r
			}
			switch op {
			case sparql.OpEq:
				r.addLo(val, false)
				r.addHi(val, false)
			case sparql.OpGe:
				r.addLo(val, false)
			case sparql.OpGt:
				r.addLo(val, true)
			case sparql.OpLe:
				r.addHi(val, false)
			case sparql.OpLt:
				r.addHi(val, true)
			}
		}
	}
	if len(ranges) == 0 {
		return
	}
	// A resource evaluates as its IRI text, a string, and strings order
	// above every other kind: a range without an upper bound below the
	// strings also holds for some resources, which a literal OID range
	// cannot express. Such a variable is pushed only when none of its
	// predicates has a resource object.
	for v, r := range ranges {
		if r.hi.Set && r.hi.V.Kind != dict.VString {
			continue
		}
		for _, st := range stars {
			for i := range st.props {
				if p := &st.props[i]; p.ObjVar == v && b.sv.Idx.HasResourceObject(p.Pred) {
					delete(ranges, v)
				}
			}
		}
	}
	watermark := dict.LiteralOID(b.sv.Lits.N)
	for _, st := range stars {
		for i := range st.props {
			p := &st.props[i]
			if p.ObjVar == "" {
				continue
			}
			r, ok := ranges[p.ObjVar]
			if !ok {
				continue
			}
			p.Lo, p.Hi, p.Over = b.sv.Lits.Range(r.lo, r.hi)
			p.HasRange, p.N = true, watermark
			if b.pushed == nil {
				b.pushed = map[string]bool{}
			}
			b.pushed[p.ObjVar] = true
		}
	}
}

// residualFilter returns what of FILTER f the plan rooted at root must
// still evaluate: f without the `?v op literal` conjuncts whose variable
// carries a pushed range that every binding of ?v in the tree applies
// row by row, or nil when no conjunct remains.
func (b *builder) residualFilter(f sparql.Expr, root Node) sparql.Expr {
	var keep []sparql.Expr
	conjs := conjuncts(f)
	for _, c := range conjs {
		if v, _, _, ok := varCmpLit(c); ok && b.pushed[v] {
			if bound, enforced := rangeEnforced(root, v); bound && enforced {
				continue
			}
		}
		keep = append(keep, c)
	}
	if len(keep) == len(conjs) {
		return f
	}
	var out sparql.Expr
	for _, c := range keep {
		if out == nil {
			out = c
		} else {
			out = &sparql.ExBin{Op: sparql.OpAnd, L: out, R: c}
		}
	}
	return out
}

// rangeEnforced reports whether the tree binds ?v (bound) and whether
// every binding is a star property with ?v as its object and a range —
// star operators apply their properties' ranges to each row on every
// path (sealed kernels, delta tails, index scans, residual and
// positional lookups). A subject binding, a generic triple pattern, or
// an unknown operator keeps the filter.
func rangeEnforced(n Node, v string) (bound, enforced bool) {
	star := func(st *exec.Star, subjFromInput bool) (bool, bool) {
		if st.SubjVar == v && !subjFromInput {
			return true, false
		}
		b, e := false, true
		for i := range st.Props {
			if p := &st.Props[i]; p.ObjVar == v {
				b, e = true, e && p.HasRange
			}
		}
		return b, e
	}
	both := func(b1, e1, b2, e2 bool) (bool, bool) { return b1 || b2, e1 && e2 }
	switch x := n.(type) {
	case *EmptyNode:
		return false, true
	case *RDFScanNode:
		return star(&x.Star, false)
	case *DefaultStarNode:
		return star(&x.Star, false)
	case *RDFJoinNode:
		b1, e1 := rangeEnforced(x.Input, v)
		b2, e2 := star(&x.Star, true)
		return both(b1, e1, b2, e2)
	case *MergeJoinNode:
		b1, e1 := rangeEnforced(x.Left, v)
		b2, e2 := star(&x.Star, true)
		return both(b1, e1, b2, e2)
	case *HashJoinNode:
		b1, e1 := rangeEnforced(x.L, v)
		b2, e2 := rangeEnforced(x.R, v)
		return both(b1, e1, b2, e2)
	case *FilterNode:
		return rangeEnforced(x.Input, v)
	case *EqSelectNode:
		return rangeEnforced(x.Input, v)
	case *GenericScanNode:
		for _, w := range x.Vars() {
			if w == v {
				return true, false
			}
		}
		return false, true
	}
	return true, false
}

// conjuncts flattens the top-level && chain of an expression.
func conjuncts(e sparql.Expr) []sparql.Expr {
	if b, ok := e.(*sparql.ExBin); ok && b.Op == sparql.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sparql.Expr{e}
}

// varCmpLit recognizes `?v OP literal` / `literal OP ?v` conjuncts.
func varCmpLit(e sparql.Expr) (string, dict.Value, sparql.Op, bool) {
	b, ok := e.(*sparql.ExBin)
	if !ok {
		return "", dict.Value{}, 0, false
	}
	switch b.Op {
	case sparql.OpEq, sparql.OpGe, sparql.OpGt, sparql.OpLe, sparql.OpLt:
	default:
		return "", dict.Value{}, 0, false
	}
	if v, ok := b.L.(*sparql.ExVar); ok {
		if lit, ok := b.R.(*sparql.ExLit); ok && lit.Term.Kind == dict.KindLiteral {
			return v.Name, lit.Val, b.Op, true
		}
	}
	if v, ok := b.R.(*sparql.ExVar); ok {
		if lit, ok := b.L.(*sparql.ExLit); ok && lit.Term.Kind == dict.KindLiteral {
			return v.Name, lit.Val, flipOp(b.Op), true
		}
	}
	return "", dict.Value{}, 0, false
}

func flipOp(op sparql.Op) sparql.Op {
	switch op {
	case sparql.OpLt:
		return sparql.OpGt
	case sparql.OpLe:
		return sparql.OpGe
	case sparql.OpGt:
		return sparql.OpLt
	case sparql.OpGe:
		return sparql.OpLe
	default:
		return op
	}
}

// crossTablePushdown implements the paper's zone-map foreign-key trick:
// a range restriction on the sort key of table B translates into a
// contiguous subject-OID window of B; any star A joining to B through an
// FK column can then restrict that column to the window, letting A's
// RDFscan skip blocks via the FK column's zone map ("a restriction on
// shipdate can be pushed to ORDERS, and vice versa a restriction on
// orderdate restricts LINEITEM").
//
// The window is only a complete description of B's matches when star B
// is covered by exactly one table and none of its predicates occur in
// the irregular residue — checked here, so the rewrite is always exact.
// The window searches the sort-key column for the ordered-prefix part
// of B's range only: subjectWindow also requires B undisturbed and
// delta-free, so every value in that column was sealed at Organize and
// predates the watermark — no overflow literal can occur in it.
func (b *builder) crossTablePushdown(stars []*star) {
	if !b.opts.ZoneMaps || !b.sv.Organized || !b.sv.Lits.Ordered() || b.sv.Cat == nil {
		return
	}
	bysubj := map[string]*star{}
	for _, st := range stars {
		bysubj[st.subjVar] = st
	}
	for _, stA := range stars {
		for i := range stA.props {
			pA := &stA.props[i]
			if pA.ObjVar == "" {
				continue
			}
			stB, ok := bysubj[pA.ObjVar]
			if !ok || len(stB.tables) != 1 {
				continue
			}
			tb := stB.tables[0]
			if !b.residualFree(stB) {
				continue
			}
			lo, hi, restricted := b.subjectWindow(stB, tb)
			if !restricted {
				continue
			}
			// intersect with any existing range on the FK column
			var over []dict.OID
			if pA.HasRange {
				for _, o := range pA.Over {
					if o >= lo && o <= hi {
						over = append(over, o)
					}
				}
				if lo < pA.Lo {
					lo = pA.Lo
				}
				if hi > pA.Hi {
					hi = pA.Hi
				}
			}
			pA.HasRange, pA.Lo, pA.Hi, pA.Over = true, lo, hi, over
		}
	}
}

// residualFree reports that none of the star's predicates occur in the
// irregular store or in a link table, so table rows are the complete
// answer set.
func (b *builder) residualFree(st *star) bool {
	for i := range st.props {
		for _, lt := range b.sv.Cat.Links {
			if lt.Pred == st.props[i].Pred && len(lt.Subj) > 0 {
				return false
			}
		}
	}
	if b.sv.Cat.IrregularIdx.Len() == 0 {
		return true
	}
	pso := b.sv.Cat.IrregularIdx.Get(triples.PSO)
	for i := range st.props {
		if lo, hi := pso.Range1(st.props[i].Pred); hi > lo {
			return false
		}
	}
	return true
}

// subjectWindow computes the subject-OID window of table rows that can
// satisfy the star's range constraint on the table's sort key. Returns
// restricted=false when the star has no such constraint.
func (b *builder) subjectWindow(st *star, t *relational.Table) (dict.OID, dict.OID, bool) {
	if t.SortPred == dict.Nil {
		return 0, 0, false
	}
	// Tail rows break the window's completeness: they carry subject OIDs
	// outside the clustered range and sort-key values out of order.
	// Tombstones alone are fine — stale clustered entries only widen the
	// window.
	if !t.Clustered() {
		return 0, 0, false
	}
	var rangeProp *exec.StarProp
	for i := range st.props {
		p := &st.props[i]
		if p.Pred == t.SortPred && (p.HasRange || p.ObjConst != dict.Nil) {
			rangeProp = p
			break
		}
	}
	if rangeProp == nil {
		return 0, 0, false
	}
	lo, hi := rangeProp.Lo, rangeProp.Hi
	if rangeProp.ObjConst != dict.Nil {
		lo, hi = rangeProp.ObjConst, rangeProp.ObjConst
	}
	col := t.Col(t.SortPred)
	if col == nil {
		return 0, 0, false
	}
	// The column is ascending with NULLs at the tail (sub-ordering put
	// keyed subjects first); binary search the compressed segments.
	rowLo, rowHi := col.Data.AscendingWindow(lo, hi)
	if rowLo >= rowHi {
		return 1, 0, true // provably empty window
	}
	return dict.ResourceOID(t.Base + uint64(rowLo)), dict.ResourceOID(t.Base + uint64(rowHi-1)), true
}
