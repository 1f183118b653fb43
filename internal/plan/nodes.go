// Package plan builds and executes query plans over the self-organizing
// store. It detects star patterns in the basic graph pattern and chooses
// between the two operator families of the paper (Fig. 4): the Default
// family (per-property index scans stitched with self-joins) and the
// RDFscan/RDFjoin family over clustered CS tables, optionally with
// zone-map pushdown of range predicates — including across correlated
// foreign keys, the Netezza-style trick of §II-D.
package plan

import (
	"fmt"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// Node is one plan operator. Nodes build pull-based vectorized operator
// trees (Op).
type Node interface {
	// Op builds the streaming operator subtree for this node, wrapped
	// in its runtime-stats accounting.
	Op() exec.Operator
	// Explain writes one line per operator, indented. A non-nil an
	// appends the runtime annotations of a finished execution.
	Explain(b *strings.Builder, indent int, an *Analyze)
	// Vars lists the output variables.
	Vars() []string
	// EstRows is the planner's cardinality estimate.
	EstRows() float64
	// Cost is the cost model's estimate for the subtree, in the
	// abstract row-work units of plan/cost.
	Cost() float64
	// Joins counts the join operators in the subtree — the quantity
	// Fig. 4 is about.
	Joins() int
}

func pad(b *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
}

// EmptyNode is a provably empty result (e.g. a constant term that is not
// in the dictionary).
type EmptyNode struct {
	vars   []string
	Reason string
	sid    int
}

func (n *EmptyNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, false, exec.NewRelSource(exec.NewRel(n.vars...)))
}
func (n *EmptyNode) Vars() []string   { return n.vars }
func (n *EmptyNode) EstRows() float64 { return 0 }
func (n *EmptyNode) Cost() float64    { return 0 }
func (n *EmptyNode) Joins() int       { return 0 }
func (n *EmptyNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "Empty (%s)", n.Reason)
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
}

// DefaultStarNode evaluates a star with index scans + self-joins.
type DefaultStarNode struct {
	Star exec.Star
	Idx  *triples.IndexSet
	est  float64
	cost float64
	sid  int
}

func (n *DefaultStarNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, true, exec.NewDefaultStarOp(n.Star, n.Idx))
}
func (n *DefaultStarNode) Vars() []string   { return n.Star.Vars() }
func (n *DefaultStarNode) EstRows() float64 { return n.est }
func (n *DefaultStarNode) Cost() float64    { return n.cost }
func (n *DefaultStarNode) Joins() int {
	if len(n.Star.Props) > 1 {
		return len(n.Star.Props) - 1
	}
	return 0
}
func (n *DefaultStarNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "StarSelfJoin ?%s [%d props, %d self-joins] est_rows=%.0f cost=%.0f",
		n.Star.SubjVar, len(n.Star.Props), n.Joins(), n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, "StarSelfJoin ?"+n.Star.SubjVar)
	b.WriteByte('\n')
	for i := range n.Star.Props {
		pad(b, indent+1)
		fmt.Fprintf(b, "IdxScan %s\n", propDesc(&n.Star.Props[i]))
	}
}

func propDesc(p *exec.StarProp) string {
	s := fmt.Sprintf("p=%v", p.Pred)
	if p.ObjVar != "" {
		s += " ?" + p.ObjVar
	}
	if p.ObjConst != dict.Nil {
		s += fmt.Sprintf(" =%v", p.ObjConst)
	}
	if p.HasRange {
		s += fmt.Sprintf(" in[%v,%v]", p.Lo, p.Hi)
		if len(p.Over) > 0 {
			// overflow literals (minted since Organize) the range admits
			s += fmt.Sprintf("+ovf%d", len(p.Over))
		}
	}
	return s
}

// RDFScanNode evaluates a star over its covering CS tables with the
// RDFscan operator plus the irregular residual, unioned.
type RDFScanNode struct {
	Star     exec.Star
	Tables   []*relational.Table
	UseZones bool
	est      float64
	cost     float64
	// blooms are the runtime join filters pushed into this scan; the
	// filters themselves materialize when the owning hash join drains
	// its build side.
	blooms []*exec.BloomHandle
	sid    int
}

func (n *RDFScanNode) Op() exec.Operator {
	sb := n.scanBlooms()
	ops := make([]exec.Operator, 0, len(n.Tables)+1)
	for _, t := range n.Tables {
		sc := exec.NewScanOp(t, n.Star, n.UseZones, 0, -1)
		sc.Blooms = sb
		sc.Stats = n.sid
		ops = append(ops, sc)
	}
	// The irregular residual is whole-input by nature; evaluate it
	// lazily so an upstream LIMIT satisfied by the table scans never
	// pays for it.
	star, tables := n.Star, n.Tables
	ops = append(ops, exec.NewLazyOp(star.Vars(), func(ctx *exec.Ctx) *exec.Rel {
		return exec.ResidualStar(ctx, star, tables)
	}))
	// The stats wrapper sits above the union, so the rows of every
	// covering table and of the residual land in this node's counters.
	return exec.NewStatsOp(n.sid, true, exec.NewUnionOp(n.Star.Vars(), ops...))
}

// scanBlooms maps the attached bloom handles onto scan columns: the
// subject (Prop -1) or the star property emitting the handle's variable.
// The irregular-residual arm skips them (blooms only ever prune, so an
// unfiltered arm stays correct).
func (n *RDFScanNode) scanBlooms() []exec.ScanBloom {
	var out []exec.ScanBloom
	for _, h := range n.blooms {
		if h.Var == n.Star.SubjVar {
			out = append(out, exec.ScanBloom{H: h, Prop: -1})
			continue
		}
		for i := range n.Star.Props {
			if n.Star.Props[i].ObjVar == h.Var {
				out = append(out, exec.ScanBloom{H: h, Prop: i})
				break
			}
		}
	}
	return out
}

func (n *RDFScanNode) Vars() []string   { return n.Star.Vars() }
func (n *RDFScanNode) EstRows() float64 { return n.est }
func (n *RDFScanNode) Cost() float64    { return n.cost }
func (n *RDFScanNode) Joins() int       { return 0 }
func (n *RDFScanNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	names := make([]string, len(n.Tables))
	for i, t := range n.Tables {
		names[i] = t.Name
	}
	zones := ""
	if n.UseZones {
		zones = " +zonemaps"
	}
	live := ""
	delta, dead := 0, 0
	for _, t := range n.Tables {
		delta += t.DeltaLen()
		dead += t.Del.Count()
	}
	if delta > 0 {
		live += fmt.Sprintf(" delta=%d", delta)
	}
	if dead > 0 {
		live += fmt.Sprintf(" dead=%d", dead)
	}
	for _, h := range n.blooms {
		live += fmt.Sprintf(" bloom=?%s", h.Var)
	}
	fmt.Fprintf(b, "RDFscan ?%s over %s [%d props, 0 self-joins]%s%s est_rows=%.0f cost=%.0f",
		n.Star.SubjVar, strings.Join(names, ","), len(n.Star.Props), zones, live, n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, "RDFscan ?"+n.Star.SubjVar)
	b.WriteByte('\n')
	for i := range n.Star.Props {
		pad(b, indent+1)
		fmt.Fprintf(b, "col %s%s%s\n", propDesc(&n.Star.Props[i]), n.colPhysDesc(&n.Star.Props[i]), an.skips(n.sid, i))
	}
}

// colPhysDesc renders the physical side of one scanned column: its
// per-block segment encodings and, for sargable predicates routed into
// the scan kernels, the zone-map block selectivity (the fraction of
// blocks the scan cannot prune).
func (n *RDFScanNode) colPhysDesc(p *exec.StarProp) string {
	if len(n.Tables) == 0 {
		return ""
	}
	col := n.Tables[0].Col(p.Pred)
	if col == nil {
		return ""
	}
	s := " enc=" + col.Data.Encodings().String()
	lo, hi := p.Lo, p.Hi
	if p.ObjConst != dict.Nil {
		lo, hi = p.ObjConst, p.ObjConst
	} else if !p.HasRange {
		return s
	}
	if n.UseZones {
		s += fmt.Sprintf(" zsel=%.2f", col.Data.Zones().Selectivity(lo, hi))
	}
	return s
}

// RDFJoinNode extends candidate subjects flowing from Input with a star
// fetched positionally from a CS table.
type RDFJoinNode struct {
	Input  Node
	KeyVar string
	Table  *relational.Table
	Star   exec.Star
	Idx    *triples.IndexSet
	est    float64
	cost   float64
	sid    int
}

func (n *RDFJoinNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, false,
		exec.NewRDFJoinOp(n.Input.Op(), n.KeyVar, n.Table, n.Star, n.Idx))
}
func (n *RDFJoinNode) Vars() []string {
	out := append([]string{}, n.Input.Vars()...)
	for i := range n.Star.Props {
		if v := n.Star.Props[i].ObjVar; v != "" {
			out = append(out, v)
		}
	}
	return out
}
func (n *RDFJoinNode) EstRows() float64 { return n.est }
func (n *RDFJoinNode) Cost() float64    { return n.cost }
func (n *RDFJoinNode) Joins() int       { return n.Input.Joins() + 1 }
func (n *RDFJoinNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "RDFjoin ?%s -> %s [%d props fetched positionally] est_rows=%.0f cost=%.0f",
		n.KeyVar, n.Table.Name, len(n.Star.Props), n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, "RDFjoin ?"+n.KeyVar)
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// HashJoinNode is a natural hash join on shared variables.
type HashJoinNode struct {
	L, R Node
	est  float64
	cost float64
	// blooms are the runtime join filters this join fills from its build
	// side; their consumers are probe-side scans.
	blooms []*exec.BloomHandle
	sid    int
}

func (n *HashJoinNode) Op() exec.Operator {
	// Materialize (build) the side the planner estimates smaller and
	// stream the other through the probe.
	op := exec.NewHashJoinOp(n.L.Op(), n.R.Op(), n.L.EstRows() <= n.R.EstRows())
	op.Blooms = n.blooms
	return exec.NewStatsOp(n.sid, false, op)
}
func (n *HashJoinNode) Vars() []string {
	out := append([]string{}, n.L.Vars()...)
	seen := map[string]bool{}
	for _, v := range out {
		seen[v] = true
	}
	for _, v := range n.R.Vars() {
		if !seen[v] {
			out = append(out, v)
		}
	}
	return out
}
func (n *HashJoinNode) EstRows() float64 { return n.est }
func (n *HashJoinNode) Cost() float64    { return n.cost }
func (n *HashJoinNode) Joins() int       { return n.L.Joins() + n.R.Joins() + 1 }
func (n *HashJoinNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	shared := sharedVarNames(n.L.Vars(), n.R.Vars())
	pad(b, indent)
	bloom := ""
	for _, h := range n.blooms {
		bloom += fmt.Sprintf(" bloom=?%s", h.Var)
	}
	fmt.Fprintf(b, "HashJoin on %v%s est_rows=%.0f cost=%.0f", shared, bloom, n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, fmt.Sprintf("HashJoin on %v", shared))
	b.WriteByte('\n')
	n.L.Explain(b, indent+1, an)
	n.R.Explain(b, indent+1, an)
}

// MergeJoinNode streams one covering CS table subject-ascending against
// the key-sorted left side — the no-hash-build join clustered subject
// OIDs make possible.
type MergeJoinNode struct {
	Left     Node
	KeyVar   string
	Table    *relational.Table
	Star     exec.Star
	UseZones bool
	est      float64
	cost     float64
	sid      int
}

func (n *MergeJoinNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, false,
		exec.NewMergeJoinOp(n.Left.Op(), n.KeyVar, n.Table, n.Star, n.UseZones))
}
func (n *MergeJoinNode) Vars() []string {
	out := append([]string{}, n.Left.Vars()...)
	for i := range n.Star.Props {
		if v := n.Star.Props[i].ObjVar; v != "" {
			out = append(out, v)
		}
	}
	return out
}
func (n *MergeJoinNode) EstRows() float64 { return n.est }
func (n *MergeJoinNode) Cost() float64    { return n.cost }
func (n *MergeJoinNode) Joins() int       { return n.Left.Joins() + 1 }
func (n *MergeJoinNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "MergeJoin ?%s -> %s [%d props, subject-ordered scan] est_rows=%.0f cost=%.0f",
		n.KeyVar, n.Table.Name, len(n.Star.Props), n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, "MergeJoin ?"+n.KeyVar)
	b.WriteByte('\n')
	n.Left.Explain(b, indent+1, an)
}

func sharedVarNames(l, r []string) []string {
	set := map[string]bool{}
	for _, v := range l {
		set[v] = true
	}
	var out []string
	for _, v := range r {
		if set[v] {
			out = append(out, "?"+v)
		}
	}
	return out
}

// FilterNode applies an expression filter.
type FilterNode struct {
	Input Node
	Expr  sparql.Expr
	sid   int
}

func (n *FilterNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, false, exec.NewFilterOp(n.Input.Op(), n.Expr))
}
func (n *FilterNode) Vars() []string   { return n.Input.Vars() }
func (n *FilterNode) EstRows() float64 { return n.Input.EstRows() / 3 }
func (n *FilterNode) Cost() float64    { return n.Input.Cost() }
func (n *FilterNode) Joins() int       { return n.Input.Joins() }
func (n *FilterNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "Filter %s", sparql.ExprString(n.Expr))
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// EqSelectNode keeps rows where two columns are equal (used when one
// variable occurs twice in a pattern or star).
type EqSelectNode struct {
	Input Node
	A, B  string
	sid   int
}

func (n *EqSelectNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, false, exec.NewMapOp(n.Input.Op(), n.Vars(), n.apply))
}

// apply keeps the rows of one chunk where A = B and projects B away.
func (n *EqSelectNode) apply(ctx *exec.Ctx, rel *exec.Rel) *exec.Rel {
	ai, bi := rel.ColIdx(n.A), rel.ColIdx(n.B)
	out := rel
	if ai >= 0 && bi >= 0 {
		var keep []int32
		for i := 0; i < rel.Len(); i++ {
			if rel.Cols[ai][i] == rel.Cols[bi][i] {
				keep = append(keep, int32(i))
			}
		}
		out = rel.Select(keep)
	}
	// drop the temp column B
	res := exec.NewRel(removeVar(out.Vars, n.B)...)
	for i := 0; i < out.Len(); i++ {
		row := make([]dict.OID, 0, len(res.Vars))
		for ci, v := range out.Vars {
			if v != n.B {
				row = append(row, out.Cols[ci][i])
			}
		}
		res.AppendRow(row...)
	}
	return res
}
func removeVar(vars []string, v string) []string {
	var out []string
	for _, x := range vars {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
func (n *EqSelectNode) Vars() []string   { return removeVar(n.Input.Vars(), n.B) }
func (n *EqSelectNode) EstRows() float64 { return n.Input.EstRows() / 10 }
func (n *EqSelectNode) Cost() float64    { return n.Input.Cost() }
func (n *EqSelectNode) Joins() int       { return n.Input.Joins() }
func (n *EqSelectNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "EqSelect ?%s = ?%s", n.A, n.B)
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// GenericScanNode answers one arbitrary triple pattern (variable
// predicate and/or constant subject) off the best-matching projection.
type GenericScanNode struct {
	P    sparql.TriplePattern
	S    dict.OID // bound values (Nil = variable)
	Pr   dict.OID
	O    dict.OID
	Idx  *triples.IndexSet
	est  float64
	cost float64
	sid  int
}

func (n *GenericScanNode) Vars() []string {
	var out []string
	for _, nd := range []sparql.Node{n.P.S, n.P.P, n.P.O} {
		if nd.IsVar() && !contains(out, nd.Var) {
			out = append(out, nd.Var)
		}
	}
	return out
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (n *GenericScanNode) Op() exec.Operator {
	return exec.NewStatsOp(n.sid, true, &genericScanOp{n: n, vars: n.Vars()})
}

// genericScanOp streams a GenericScanNode's projection range in
// batch-sized slices.
type genericScanOp struct {
	n    *GenericScanNode
	vars []string

	pr      *triples.Projection
	cur, hi int
	row     []dict.OID
}

func (g *genericScanOp) Vars() []string { return g.vars }

func (g *genericScanOp) Open(ctx *exec.Ctx) error {
	n := g.n
	// choose projection by bound prefix
	switch {
	case n.S != dict.Nil && n.Pr != dict.Nil:
		g.pr = n.Idx.Get(triples.SPO)
		g.cur, g.hi = g.pr.Range2(n.S, n.Pr)
	case n.S != dict.Nil && n.O != dict.Nil:
		g.pr = n.Idx.Get(triples.SOP)
		g.cur, g.hi = g.pr.Range2(n.S, n.O)
	case n.S != dict.Nil:
		g.pr = n.Idx.Get(triples.SPO)
		g.cur, g.hi = g.pr.Range1(n.S)
	case n.Pr != dict.Nil && n.O != dict.Nil:
		g.pr = n.Idx.Get(triples.POS)
		g.cur, g.hi = g.pr.Range2(n.Pr, n.O)
	case n.Pr != dict.Nil:
		g.pr = n.Idx.Get(triples.PSO)
		g.cur, g.hi = g.pr.Range1(n.Pr)
	case n.O != dict.Nil:
		g.pr = n.Idx.Get(triples.OSP)
		g.cur, g.hi = g.pr.Range1(n.O)
	default:
		g.pr = n.Idx.Get(triples.SPO)
		g.cur, g.hi = 0, g.pr.Len()
	}
	g.row = make([]dict.OID, 0, 3)
	return nil
}

func (g *genericScanOp) Next(b *exec.Batch) bool {
	nodes := [3]sparql.Node{g.n.P.S, g.n.P.P, g.n.P.O}
	var b0, b1 string // up to two distinct vars already bound in this row
	var v0, v1 dict.OID
	for g.cur < g.hi {
		end := g.cur + exec.BatchRows
		if end > g.hi {
			end = g.hi
		}
		for i := g.cur; i < end; i++ {
			tr := g.pr.Triple(i)
			comps := [3]dict.OID{tr.S, tr.P, tr.O}
			g.row = g.row[:0]
			b0, b1 = "", ""
			ok := true
			for k := 0; k < 3; k++ {
				nd := nodes[k]
				if !nd.IsVar() {
					continue // constants are enforced by the range prefix
				}
				switch nd.Var {
				case b0:
					if v0 != comps[k] {
						ok = false
					}
				case b1:
					if v1 != comps[k] {
						ok = false
					}
				default:
					if b0 == "" {
						b0, v0 = nd.Var, comps[k]
					} else {
						b1, v1 = nd.Var, comps[k]
					}
					g.row = append(g.row, comps[k])
				}
				if !ok {
					break
				}
			}
			if ok {
				b.AppendRow(g.row...)
			}
		}
		g.cur = end
		if b.Len() > 0 {
			return true
		}
	}
	return false
}

func (g *genericScanOp) Close()             {}
func (n *GenericScanNode) EstRows() float64 { return n.est }
func (n *GenericScanNode) Cost() float64    { return n.cost }
func (n *GenericScanNode) Joins() int       { return 0 }
func (n *GenericScanNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "TripleScan %s est_rows=%.0f cost=%.0f", n.P.String(), n.est, n.cost)
	an.annotate(b, n.sid, n.est, true, "TripleScan "+n.P.String())
	b.WriteByte('\n')
}
