package plan

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/plan/cost"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// Mode selects the plan family.
type Mode uint8

const (
	// ModeDefault uses per-property index scans and self-joins only —
	// the paper's "Default" query plan scheme.
	ModeDefault Mode = iota
	// ModeRDFScan uses RDFscan/RDFjoin over the emergent tables where
	// star patterns allow, falling back to Default elsewhere.
	ModeRDFScan
)

func (m Mode) String() string {
	if m == ModeRDFScan {
		return "RDFscan/RDFjoin"
	}
	return "Default"
}

// Options tunes planning, mirroring the configuration axes of Table I.
type Options struct {
	Mode Mode
	// ZoneMaps enables zone-map block skipping and cross-table FK
	// pushdown. Only effective on an organized store.
	ZoneMaps bool
	// ForceAlgo pins the physical join algorithm ("hash" or "fk")
	// wherever the pinned algorithm is applicable; joins it cannot apply
	// fall back to the cost-based choice. Any other non-empty value fails
	// Build. Used by the differential harness and the plan-quality tests.
	ForceAlgo string
	// NoBloom disables runtime bloom filters on hash-join probe sides.
	NoBloom bool
	// ForceOrder fixes the left-deep star join order by subject
	// variable; stars it does not name follow cost-based after the named
	// prefix.
	ForceOrder []string
}

// StoreView is what the planner needs to know about the store.
type StoreView struct {
	Dict *dict.Dictionary
	Idx  *triples.IndexSet
	// Schema and Cat are nil before Organize.
	Schema *cs.Schema
	Cat    *relational.Catalog
	// Organized reports that subject clustering ran and the catalog is
	// populated.
	Organized bool
	// Lits is the literal order of the planned epoch: range pushdown to
	// OID comparisons requires an ordered prefix (Lits.Ordered), and
	// matches literals minted since through its overflow index.
	Lits *dict.LiteralOrder
}

// Plan is an executable query plan: the OID-level BGP tree (Root,
// including residual filters) topped by the value-level head chain
// (Head: aggregation/projection, DISTINCT, ORDER BY).
type Plan struct {
	Root  Node
	Head  HeadNode
	Query *sparql.Query
	Opts  Options
	// Prof is the plan-time workload fingerprint the store's query log
	// records.
	Prof Profile
	// nStats counts the plan's stats-instrumented nodes (ids are
	// 1..nStats); see NumStatNodes.
	nStats int
}

// Explain renders the operator tree, head chain included.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan [%s", p.Opts.Mode)
	if p.Opts.ZoneMaps {
		b.WriteString(" +zonemaps")
	}
	fmt.Fprintf(&b, "] joins=%d\n", p.Root.Joins())
	p.Head.Explain(&b, 0, nil)
	return b.String()
}

// Stream runs the plan to a pull-based row iterator; the caller must
// Close it (exhaustion closes it automatically). The plan is driven as a
// batch-streaming pipeline: scans produce as the head pulls, and a
// satisfied LIMIT stops the pull early. Aggregation, DISTINCT and ORDER
// BY run as batch operators inside the pipeline, so streaming works for
// every query shape — no silent materialization fallback.
func (p *Plan) Stream(ctx *exec.Ctx) *exec.RowIter {
	return exec.StreamVal(ctx, p.Head.ValOp(), p.Query.Limit, p.Query.Offset)
}

// Build plans a parsed query against a store view.
func Build(q *sparql.Query, sv *StoreView, opts Options) (*Plan, error) {
	if a := opts.ForceAlgo; a != "" && a != "hash" && a != "fk" {
		return nil, fmt.Errorf("plan: unknown join algorithm %q (want \"hash\" or \"fk\")", a)
	}
	b := &builder{q: q, sv: sv, opts: opts}
	root, err := b.build()
	if err != nil {
		return nil, err
	}
	// Residual filters become explicit plan nodes: every conjunct except
	// the ranges the operators below already enforce row by row.
	bgp := root
	for _, f := range q.Filters {
		if rest := b.residualFilter(f, bgp); rest != nil {
			root = &FilterNode{Input: root, Expr: rest}
		}
	}
	// Runtime join filters attach to the final tree only (candidate
	// trees the enumerator discarded must not leave handles behind).
	if opts.Mode == ModeRDFScan && !opts.NoBloom {
		b.planBlooms(root)
	}
	head, err := buildHead(root, q)
	if err != nil {
		return nil, err
	}
	p := &Plan{Root: root, Head: head, Query: q, Opts: opts}
	// Number the final tree's nodes for runtime stats and fingerprint
	// the workload it touches.
	p.finish(sv.Dict)
	return p, nil
}

type builder struct {
	q    *sparql.Query
	sv   *StoreView
	opts Options
	// renames maps temp vars introduced for duplicate variables to
	// their originals; EqSelect nodes resolve them.
	tmpSeq int
	// pushed marks the variables pushFilters attached a FILTER range to.
	pushed map[string]bool
}

// star groups the patterns sharing one subject variable.
type star struct {
	subjVar string
	props   []exec.StarProp
	eqPairs [][2]string // (orig, temp) equality constraints
	est     float64
	// tables covering the star (RDFScan mode, organized store).
	tables []*relational.Table
}

func (b *builder) build() (Node, error) {
	var stars []*star
	starBySubj := map[string]*star{}
	var generic []sparql.TriplePattern

	for _, tp := range b.q.Patterns {
		if tp.S.IsVar() && !tp.P.IsVar() {
			st := starBySubj[tp.S.Var]
			if st == nil {
				st = &star{subjVar: tp.S.Var}
				starBySubj[tp.S.Var] = st
				stars = append(stars, st)
			}
			prop, eq, err := b.makeProp(st, tp)
			if err != nil {
				return &EmptyNode{vars: b.q.PatternVars(), Reason: err.Error()}, nil
			}
			st.props = append(st.props, prop)
			if eq != nil {
				st.eqPairs = append(st.eqPairs, *eq)
			}
			continue
		}
		generic = append(generic, tp)
	}

	// Push single-variable range filters into stars.
	b.pushFilters(stars)
	// Resolve covering tables + zone pushdown.
	for _, st := range stars {
		b.resolveStar(st)
	}
	b.crossTablePushdown(stars)
	for _, st := range stars {
		st.est = b.estimate(st)
	}

	// Enumerate join order and per-join physical algorithm cost-based.
	root := b.joinStars(stars)

	// Generic patterns join in afterwards.
	for _, tp := range generic {
		node, err := b.genericNode(tp)
		if err != nil {
			return &EmptyNode{vars: b.q.PatternVars(), Reason: err.Error()}, nil
		}
		if root == nil {
			root = node
		} else {
			est := minf(root.EstRows(), node.EstRows())
			c := root.Cost() + node.Cost() +
				cost.HashJoin(minf(root.EstRows(), node.EstRows()), maxf(root.EstRows(), node.EstRows()), est)
			root = &HashJoinNode{L: root, R: node, est: est, cost: c}
		}
	}
	if root == nil {
		return &EmptyNode{vars: nil, Reason: "no patterns"}, nil
	}
	return root, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// joinState is one enumerated left-deep join tree over a subset of the
// query's stars, with the statistics the cost model propagates.
type joinState struct {
	node Node
	rows float64
	cost float64
	// distinct estimates the number of distinct values per output
	// variable — the join-cardinality denominators.
	distinct map[string]float64
	vars     map[string]bool
}

func newJoinState(node Node, rows float64, planCost float64, distinct map[string]float64) *joinState {
	vars := map[string]bool{}
	for _, v := range node.Vars() {
		vars[v] = true
	}
	if rows < 0 {
		rows = 0
	}
	return &joinState{node: node, rows: rows, cost: planCost, distinct: distinct, vars: vars}
}

// distinctOf returns the distinct estimate for a variable, defaulting to
// half the state's rows when the model tracked nothing for it.
func (s *joinState) distinctOf(v string) float64 {
	if d, ok := s.distinct[v]; ok {
		return d
	}
	return math.Max(1, s.rows/2)
}

// joinStars enumerates a left-deep join tree over the stars: exhaustive
// subset DP for small queries, greedy cost descent past 8 stars, or the
// exact order the caller forced.
func (b *builder) joinStars(stars []*star) Node {
	n := len(stars)
	if n == 0 {
		return nil
	}
	if len(b.opts.ForceOrder) > 0 {
		return b.forcedJoin(stars).node
	}
	if n == 1 {
		return b.starState(stars[0]).node
	}
	if n <= 8 {
		return b.dpJoin(stars).node
	}
	return b.greedyJoin(stars).node
}

// dpJoin is the classic DP-over-subsets enumerator restricted to
// left-deep trees: best[mask] is the cheapest join tree covering exactly
// the stars in mask, extended one star at a time. Cross products are
// considered only for subsets with no connected extension. Iteration
// order and strict < keep the result deterministic.
func (b *builder) dpJoin(stars []*star) *joinState {
	n := len(stars)
	best := make([]*joinState, 1<<uint(n))
	for i, st := range stars {
		best[1<<uint(i)] = b.starState(st)
	}
	for mask := 3; mask < 1<<uint(n); mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var bst *joinState
		for pass := 0; pass < 2 && bst == nil; pass++ {
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) == 0 {
					continue
				}
				left := best[mask&^(1<<uint(i))]
				if left == nil {
					continue
				}
				if pass == 0 && !starConnected(stars[i], left.vars) {
					continue
				}
				for _, c := range b.joinCandidates(left, stars[i]) {
					if bst == nil || c.cost < bst.cost {
						bst = c
					}
				}
			}
		}
		best[mask] = bst
	}
	return best[1<<uint(n)-1]
}

// greedyJoin is the large-query fallback: start from the cheapest star,
// then repeatedly graft the connected star whose best join candidate
// minimizes total cost.
func (b *builder) greedyJoin(stars []*star) *joinState {
	n := len(stars)
	used := make([]bool, n)
	start, cur := 0, b.starState(stars[0])
	for i := 1; i < n; i++ {
		if s := b.starState(stars[i]); s.cost < cur.cost {
			start, cur = i, s
		}
	}
	used[start] = true
	for joined := 1; joined < n; joined++ {
		var bst *joinState
		bi := -1
		for pass := 0; pass < 2 && bst == nil; pass++ {
			for i := 0; i < n; i++ {
				if used[i] || (pass == 0 && !starConnected(stars[i], cur.vars)) {
					continue
				}
				for _, c := range b.joinCandidates(cur, stars[i]) {
					if bst == nil || c.cost < bst.cost {
						bst, bi = c, i
					}
				}
			}
		}
		cur = bst
		used[bi] = true
	}
	return cur
}

// forcedJoin builds the left-deep tree in exactly the order named by
// Options.ForceOrder (by star subject variable); unnamed stars follow in
// pattern order. Algorithms per join stay cost-based unless ForceAlgo
// pins them.
func (b *builder) forcedJoin(stars []*star) *joinState {
	taken := make([]bool, len(stars))
	var seq []*star
	for _, name := range b.opts.ForceOrder {
		for i, st := range stars {
			if !taken[i] && st.subjVar == name {
				taken[i] = true
				seq = append(seq, st)
				break
			}
		}
	}
	for i, st := range stars {
		if !taken[i] {
			seq = append(seq, st)
		}
	}
	cur := b.starState(seq[0])
	for _, st := range seq[1:] {
		var bst *joinState
		for _, c := range b.joinCandidates(cur, st) {
			if bst == nil || c.cost < bst.cost {
				bst = c
			}
		}
		cur = bst
	}
	return cur
}

// starState costs a single star's scan.
func (b *builder) starState(st *star) *joinState {
	node := b.starNode(st)
	return newJoinState(node, node.EstRows(), node.Cost(), b.starDistincts(st, st.est))
}

// starDistincts seeds the per-variable distinct estimates of one star:
// subjects of a star are unique, object distincts come from the
// discovery-time DistinctObj statistic of the covering tables' CS props.
func (b *builder) starDistincts(st *star, rows float64) map[string]float64 {
	d := map[string]float64{st.subjVar: math.Max(rows, 1)}
	for i := range st.props {
		v := st.props[i].ObjVar
		if v == "" {
			continue
		}
		dv := 0.0
		for _, t := range st.tables {
			if t.CS == nil {
				continue
			}
			if p := t.CS.Prop(st.props[i].Pred); p != nil {
				dv += float64(p.DistinctObj)
			}
		}
		if dv == 0 {
			dv = rows / 2 // unknown (pre-organize or irregular): assume half
		}
		d[v] = math.Max(1, math.Min(dv, rows))
	}
	return d
}

// joinCandidates enumerates the physical ways to join `left` with one
// more star and costs each: hash join (always applicable) and FK join
// (positional fetch when the star's subject flows from the left). A
// pinned ForceAlgo narrows the list when applicable.
func (b *builder) joinCandidates(left *joinState, st *star) []*joinState {
	right := b.starState(st)

	// Output cardinality: product over shared variables of the classic
	// distinct-count denominators (cross product when none shared).
	var shared []string
	for v := range right.vars {
		if left.vars[v] {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	out := left.rows * right.rows
	for _, v := range shared {
		out /= math.Max(math.Max(left.distinctOf(v), right.distinctOf(v)), 1)
	}

	merged := func(outRows float64) map[string]float64 {
		nd := make(map[string]float64, len(left.distinct)+len(right.distinct))
		for v, dv := range left.distinct {
			nd[v] = math.Max(1, math.Min(dv, outRows))
		}
		for v, dv := range right.distinct {
			if e, ok := nd[v]; ok {
				dv = math.Min(e, dv)
			}
			nd[v] = math.Max(1, math.Min(dv, outRows))
		}
		return nd
	}

	var cands []*joinState

	hashCost := left.cost + right.cost +
		cost.HashJoin(minf(left.rows, right.rows), maxf(left.rows, right.rows), out)
	cands = append(cands, newJoinState(
		&HashJoinNode{L: left.node, R: right.node, est: out, cost: hashCost},
		out, hashCost, merged(out)))

	if b.opts.Mode == ModeRDFScan && left.vars[st.subjVar] && len(st.tables) >= 1 {
		// FK join: fetch the star positionally per candidate subject.
		var idx *triples.IndexSet
		if len(st.tables) > 1 || !b.residualFree(st) {
			idx = b.sv.Idx
		}
		outR := left.rows * starSel(b.sv.Idx, st)
		fkCost := left.cost + cost.FKJoin(left.rows, b.starScanCost(st), len(st.props), outR)
		node := b.eqSelects(&FKJoinNode{
			Left:     left.node,
			KeyVar:   st.subjVar,
			Table:    biggestTable(st.tables),
			Star:     execStar(st),
			UseZones: b.opts.ZoneMaps && b.sv.Organized,
			Idx:      idx,
			est:      outR,
			cost:     fkCost,
		}, st)
		cands = append(cands, newJoinState(node, node.EstRows(), fkCost, merged(outR)))
	}

	if forced := b.filterForced(cands); len(forced) > 0 {
		return forced
	}
	return cands
}

// filterForced narrows candidates to the pinned algorithm when present.
func (b *builder) filterForced(cands []*joinState) []*joinState {
	if b.opts.ForceAlgo == "" {
		return nil
	}
	var out []*joinState
	for _, c := range cands {
		n := c.node
		for {
			if eq, ok := n.(*EqSelectNode); ok {
				n = eq.Input
				continue
			}
			break
		}
		switch n.(type) {
		case *HashJoinNode:
			if b.opts.ForceAlgo == "hash" {
				out = append(out, c)
			}
		case *FKJoinNode:
			if b.opts.ForceAlgo == "fk" {
				out = append(out, c)
			}
		}
	}
	return out
}

// starScanCost estimates the physical cost of scanning one star,
// sampling zone maps of sargable predicates for the fraction of blocks
// the scan will actually decode.
func (b *builder) starScanCost(st *star) float64 {
	if len(st.tables) == 0 {
		return b.defaultStarCost(st)
	}
	useZones := b.opts.ZoneMaps && b.sv.Organized
	total := 0.0
	for _, t := range st.tables {
		sealed := float64(t.SealedRows())
		if useZones {
			sealed *= zoneSel(t, st)
		}
		total += cost.Scan(sealed+float64(t.DeltaLen()), len(st.props))
	}
	return total
}

// zoneSel samples the zone maps: the block-level selectivity of the most
// selective sargable predicate of the star on this table.
func zoneSel(t *relational.Table, st *star) float64 {
	sel := 1.0
	for i := range st.props {
		p := &st.props[i]
		lo, hi := p.Lo, p.Hi
		if p.ObjConst != dict.Nil {
			lo, hi = p.ObjConst, p.ObjConst
		} else if !p.HasRange {
			continue
		}
		if c := t.Col(p.Pred); c != nil {
			if s := c.Data.Zones().Selectivity(lo, hi); s < sel {
				sel = s
			}
		}
	}
	return sel
}

// defaultStarCost costs the Default-family star: one index-run scan per
// property plus self-join output.
func (b *builder) defaultStarCost(st *star) float64 {
	pso := b.sv.Idx.Get(triples.PSO)
	total := 0.0
	for i := range st.props {
		lo, hi := pso.Range1(st.props[i].Pred)
		total += float64(hi-lo) * cost.ScanRow
	}
	return total + st.est*cost.OutRow
}

// planBlooms walks the final tree and attaches a runtime bloom filter to
// each hash join with a single shared variable whose build side is
// estimated meaningfully smaller than its probe side: the filled filter
// is pushed into every probe-side RDFscan that emits the join variable,
// pruning rows the join would drop anyway (no false negatives, so the
// result is row-identical).
func (b *builder) planBlooms(n Node) {
	switch x := n.(type) {
	case *HashJoinNode:
		b.planBlooms(x.L)
		b.planBlooms(x.R)
		shared := sharedRaw(x.L.Vars(), x.R.Vars())
		if len(shared) != 1 {
			return
		}
		v := shared[0]
		build, probe := x.L, x.R
		if x.L.EstRows() > x.R.EstRows() {
			build, probe = x.R, x.L
		}
		if build.EstRows()*4 > probe.EstRows() {
			return
		}
		var scans []*RDFScanNode
		collectBloomScans(probe, v, &scans)
		if len(scans) == 0 {
			return
		}
		h := &exec.BloomHandle{Var: v}
		x.blooms = append(x.blooms, h)
		for _, sc := range scans {
			sc.blooms = append(sc.blooms, h)
		}
	case *FKJoinNode:
		b.planBlooms(x.Left)
	case *FilterNode:
		b.planBlooms(x.Input)
	case *EqSelectNode:
		b.planBlooms(x.Input)
	}
}

// collectBloomScans finds the RDFscans under n that emit v unchanged (as
// subject or object column), descending only through children that still
// carry v.
func collectBloomScans(n Node, v string, out *[]*RDFScanNode) {
	carries := func(c Node) bool {
		for _, cv := range c.Vars() {
			if cv == v {
				return true
			}
		}
		return false
	}
	switch x := n.(type) {
	case *RDFScanNode:
		if x.Star.SubjVar == v {
			*out = append(*out, x)
			return
		}
		for i := range x.Star.Props {
			if x.Star.Props[i].ObjVar == v {
				*out = append(*out, x)
				return
			}
		}
	case *HashJoinNode:
		if carries(x.L) {
			collectBloomScans(x.L, v, out)
		}
		if carries(x.R) {
			collectBloomScans(x.R, v, out)
		}
	case *FKJoinNode:
		if carries(x.Left) {
			collectBloomScans(x.Left, v, out)
		}
	case *FilterNode:
		collectBloomScans(x.Input, v, out)
	case *EqSelectNode:
		if carries(x.Input) {
			collectBloomScans(x.Input, v, out)
		}
	}
}

// sharedRaw lists the variables present on both sides, unprefixed.
func sharedRaw(l, r []string) []string {
	set := map[string]bool{}
	for _, v := range l {
		set[v] = true
	}
	var out []string
	for _, v := range r {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

func starConnected(st *star, bound map[string]bool) bool {
	if bound[st.subjVar] {
		return true
	}
	for i := range st.props {
		if v := st.props[i].ObjVar; v != "" && bound[v] {
			return true
		}
	}
	return false
}

func biggestTable(ts []*relational.Table) *relational.Table {
	best := ts[0]
	for _, t := range ts[1:] {
		if t.Count > best.Count {
			best = t
		}
	}
	return best
}

// makeProp converts one pattern into a StarProp, introducing a temp
// variable when the object variable repeats within the star or equals
// the subject.
func (b *builder) makeProp(st *star, tp sparql.TriplePattern) (exec.StarProp, *[2]string, error) {
	pred, ok := b.sv.Dict.Lookup(tp.P.Term)
	if !ok {
		return exec.StarProp{}, nil, fmt.Errorf("predicate %s not in store", tp.P.Term)
	}
	prop := exec.StarProp{Pred: pred}
	if tp.O.IsVar() {
		name := tp.O.Var
		dup := name == st.subjVar
		for i := range st.props {
			if st.props[i].ObjVar == name {
				dup = true
			}
		}
		if dup {
			b.tmpSeq++
			tmp := fmt.Sprintf("%s#%d", name, b.tmpSeq)
			prop.ObjVar = tmp
			return prop, &[2]string{name, tmp}, nil
		}
		prop.ObjVar = name
		return prop, nil, nil
	}
	obj, ok := b.sv.Dict.Lookup(tp.O.Term)
	if !ok {
		return exec.StarProp{}, nil, fmt.Errorf("object %s not in store", tp.O.Term)
	}
	prop.ObjConst = obj
	return prop, nil, nil
}

func (b *builder) genericNode(tp sparql.TriplePattern) (Node, error) {
	n := &GenericScanNode{P: tp, Idx: b.sv.Idx, est: float64(b.sv.Idx.Get(triples.SPO).Len())}
	resolve := func(nd sparql.Node) (dict.OID, error) {
		if nd.IsVar() {
			return dict.Nil, nil
		}
		o, ok := b.sv.Dict.Lookup(nd.Term)
		if !ok {
			return dict.Nil, fmt.Errorf("term %s not in store", nd.Term)
		}
		return o, nil
	}
	var err error
	if n.S, err = resolve(tp.S); err != nil {
		return nil, err
	}
	if n.Pr, err = resolve(tp.P); err != nil {
		return nil, err
	}
	if n.O, err = resolve(tp.O); err != nil {
		return nil, err
	}
	if n.S != dict.Nil {
		// A bound subject is a point lookup: SPO is always materialized,
		// so the exact (subject[, predicate]) range size is free and no
		// other order gets sorted at plan time.
		spo := b.sv.Idx.Get(triples.SPO)
		lo, hi := spo.Range1(n.S)
		if n.Pr != dict.Nil {
			lo, hi = spo.Range2(n.S, n.Pr)
		}
		n.est = float64(hi - lo)
	} else {
		bound := 0
		for _, o := range []dict.OID{n.Pr, n.O} {
			if o != dict.Nil {
				bound++
			}
		}
		n.est /= float64(uint(1) << (4 * uint(bound)))
	}
	n.cost = n.est * cost.ScanRow
	return n, nil
}

// starNode materializes the scan node for a star.
func (b *builder) starNode(st *star) Node {
	var node Node
	if b.opts.Mode == ModeRDFScan && len(st.tables) > 0 {
		node = &RDFScanNode{
			Star: execStar(st), Tables: st.tables,
			UseZones: b.opts.ZoneMaps && b.sv.Organized,
			est:      st.est, cost: b.starScanCost(st),
		}
	} else {
		node = &DefaultStarNode{Star: execStar(st), Idx: b.sv.Idx, est: st.est, cost: b.defaultStarCost(st)}
	}
	return b.eqSelects(node, st)
}

func (b *builder) eqSelects(node Node, st *star) Node {
	for _, pair := range st.eqPairs {
		node = &EqSelectNode{Input: node, A: pair[0], B: pair[1]}
	}
	return node
}

func execStar(st *star) exec.Star {
	return exec.Star{SubjVar: st.subjVar, Props: st.props}
}

// resolveStar finds covering tables and prunes pushdown usability.
func (b *builder) resolveStar(st *star) {
	if b.sv.Schema == nil || b.sv.Cat == nil || !b.sv.Organized {
		return
	}
	preds := make([]dict.OID, len(st.props))
	for i := range st.props {
		preds[i] = st.props[i].Pred
	}
	for _, c := range b.sv.Schema.Covering(preds) {
		if t := b.sv.Cat.ByCS(c.ID); t != nil {
			// a split-off (multi-valued) property has no column; such
			// stars cannot use RDFscan on this table
			all := true
			for _, p := range preds {
				if t.Col(p) == nil {
					all = false
					break
				}
			}
			if all {
				st.tables = append(st.tables, t)
			}
		}
	}
}

// estimate is the CS-informed cardinality model: base cardinality from
// covering CS supports (or the property run length), multiplied by
// constraint selectivities — the structural-correlation awareness the
// paper argues triple stores lack.
func (b *builder) estimate(st *star) float64 {
	return b.starBase(st) * starSel(b.sv.Idx, st)
}

// starBase is the unconstrained star cardinality: live row count of the
// covering tables, or the smallest property run before organization.
func (b *builder) starBase(st *star) float64 {
	if len(st.tables) > 0 {
		var base float64
		for _, t := range st.tables {
			base += float64(t.LiveCount())
		}
		return base
	}
	pso := b.sv.Idx.Get(triples.PSO)
	minRun := -1
	for i := range st.props {
		lo, hi := pso.Range1(st.props[i].Pred)
		if minRun < 0 || hi-lo < minRun {
			minRun = hi - lo
		}
	}
	if minRun < 0 {
		minRun = 0
	}
	return float64(minRun)
}

// starSel is the combined selectivity of the star's constant and range
// constraints.
func starSel(idx *triples.IndexSet, st *star) float64 {
	sel := 1.0
	for i := range st.props {
		p := &st.props[i]
		switch {
		case p.ObjConst != dict.Nil:
			sel *= selConst(idx, p)
		case p.HasRange:
			sel *= 0.3
		}
	}
	return sel
}

func selConst(idx *triples.IndexSet, p *exec.StarProp) float64 {
	pos := idx.Get(triples.POS)
	runLo, runHi := pos.Range1(p.Pred)
	if runHi == runLo {
		return 0
	}
	lo, hi := pos.Range2(p.Pred, p.ObjConst)
	return float64(hi-lo+1) / float64(runHi-runLo+1)
}
