package plan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/relational"
	"srdf/internal/sparql"
)

// Profile is the plan-time workload fingerprint of one query: which
// predicates and CS tables it touches, which columns it constrains, and
// how many stars it joins. Computed once per built plan (cache hits
// reuse it), it is the raw material of the store's workload profile —
// the sensor Organize reads to choose subject-clustering sort keys.
type Profile struct {
	// Predicates are the distinct predicate IRIs the query touches,
	// sorted.
	Predicates []string
	// Tables are the distinct CS table names the plan scans, sorted
	// (empty before Organize).
	Tables []string
	// FilterColumns are the predicate IRIs whose object the query
	// constrains by value, sorted: the object is a literal constant, or
	// a variable compared with a literal in a top-level FILTER conjunct.
	// They are read off the query, not the plan, so they are the same
	// before and after Organize and in either plan mode. IRI-constant
	// objects (?s a :T) select a class, not a value range, and do not
	// count. These are the columns a sort-key policy cares about.
	FilterColumns []string
	// Stars counts the star patterns (scan or star-fetch nodes) in the
	// plan.
	Stars int
}

// finish numbers the plan's nodes for runtime stats and computes its
// workload profile. Called once at the end of Build, on the final tree
// only — candidate trees the enumerator discarded keep sid 0, which
// routes their (never-executed) wrappers to throwaway slots.
func (p *Plan) finish(d *dict.Dictionary) {
	f := &finisher{
		d:      d,
		preds:  map[string]bool{},
		tables: map[string]bool{},
	}
	f.head(p.Head)
	p.nStats = f.n
	p.Prof = Profile{
		Predicates:    sortedKeys(f.preds),
		Tables:        sortedKeys(f.tables),
		FilterColumns: filterColumns(p.Query),
		Stars:         f.stars,
	}
}

// filterColumns applies the Profile.FilterColumns rule to a query. It
// is the workload analysis the paper calls for: "a self-organizing RDF
// system would need workload analysis in order to derive the usefulness
// of such subject-clustering on dates".
func filterColumns(q *sparql.Query) []string {
	cmpVars := map[string]bool{}
	for _, f := range q.Filters {
		for _, conj := range conjuncts(f) {
			if v, _, _, ok := varCmpLit(conj); ok {
				cmpVars[v] = true
			}
		}
	}
	cols := map[string]bool{}
	for _, tp := range q.Patterns {
		if tp.P.IsVar() {
			continue
		}
		if tp.O.IsVar() && cmpVars[tp.O.Var] || !tp.O.IsVar() && tp.O.Term.IsLiteral() {
			cols[tp.P.Term.Value] = true
		}
	}
	return sortedKeys(cols)
}

// NumStatNodes is the node count of the stats tree an analyzed
// execution should allocate (ids are 1..NumStatNodes).
func (p *Plan) NumStatNodes() int { return p.nStats }

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type finisher struct {
	d      *dict.Dictionary
	n      int
	preds  map[string]bool
	tables map[string]bool
	stars  int
}

func (f *finisher) next() int {
	f.n++
	return f.n
}

func (f *finisher) head(h HeadNode) {
	switch x := h.(type) {
	case *ProjectNode:
		x.sid = f.next()
		f.node(x.Input)
	case *AggregateNode:
		x.sid = f.next()
		f.node(x.Input)
	case *DistinctNode:
		x.sid = f.next()
		f.head(x.Input)
	case *SortNode:
		x.sid = f.next()
		f.head(x.Input)
	}
}

func (f *finisher) node(n Node) {
	switch x := n.(type) {
	case *EmptyNode:
		x.sid = f.next()
	case *DefaultStarNode:
		x.sid = f.next()
		f.star(&x.Star, nil)
	case *RDFScanNode:
		x.sid = f.next()
		f.star(&x.Star, x.Tables)
	case *FKJoinNode:
		x.sid = f.next()
		f.star(&x.Star, []*relational.Table{x.Table})
		f.node(x.Left)
	case *HashJoinNode:
		x.sid = f.next()
		f.node(x.L)
		f.node(x.R)
	case *FilterNode:
		x.sid = f.next()
		f.node(x.Input)
	case *EqSelectNode:
		x.sid = f.next()
		f.node(x.Input)
	case *GenericScanNode:
		x.sid = f.next()
		if x.Pr != dict.Nil {
			f.preds[f.iri(x.Pr)] = true
		}
	}
}

func (f *finisher) star(st *exec.Star, tables []*relational.Table) {
	f.stars++
	for i := range st.Props {
		f.preds[f.iri(st.Props[i].Pred)] = true
	}
	for _, t := range tables {
		if t != nil {
			f.tables[t.Name] = true
		}
	}
}

func (f *finisher) iri(o dict.OID) string {
	if t, ok := f.d.Term(o); ok {
		return t.Value
	}
	return fmt.Sprintf("oid:%d", o)
}

// Analyze carries the per-operator runtime stats of one finished
// execution through the Explain walk: a nil *Analyze renders the plain
// estimate-only tree, a non-nil one appends act_rows= and time= to
// every operator line and tracks the worst est/act mis-estimation.
type Analyze struct {
	Stats *exec.QueryStats

	worst     float64
	worstDesc string
}

// annotate appends the runtime annotation for one node. Nodes with a
// cardinality estimate (hasEst) also feed the mis-estimation summary,
// identified by desc.
func (a *Analyze) annotate(b *strings.Builder, sid int, est float64, hasEst bool, desc string) {
	if a == nil {
		return
	}
	var rows int64
	var t time.Duration
	if st := a.Stats.Node(sid); st != nil {
		rows, t = st.RowsOut(), st.Time()
	}
	fmt.Fprintf(b, " act_rows=%d time=%s", rows, fmtDuration(t))
	if hasEst {
		if f := misFactor(est, float64(rows)); f > a.worst {
			a.worst, a.worstDesc = f, desc
		}
	}
}

// skips renders, for an RDFscan column line, how many blocks skipped the
// column's kernel because the block's zone showed every row passing.
func (a *Analyze) skips(sid, prop int) string {
	if a == nil {
		return ""
	}
	var k int64
	if st := a.Stats.Node(sid); st != nil {
		k = st.Skips(prop)
	}
	return fmt.Sprintf(" skip=%d", k)
}

// groups renders a HashAggregate's group count and which group-id path
// it finished on: direct (an array indexed by the GROUP BY columns'
// codes) or hash (the group table).
func (a *Analyze) groups(sid int) string {
	if a == nil {
		return ""
	}
	st := a.Stats.Node(sid)
	if st == nil {
		return ""
	}
	path := "direct"
	if st.GroupsHashed.Load() {
		path = "hash"
	}
	return fmt.Sprintf(" groups=%d %s", st.Groups.Load(), path)
}

// misFactor is the symmetric est/act ratio, clamped below at one row so
// empty results do not divide by zero.
func misFactor(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

func fmtDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// ExplainAnalyze renders the plan tree with actual row counts and
// per-node time beside the estimates, the executed totals, and the
// worst est/act mis-estimation — the tool that tells us where the cost
// model lies. stats is the QueryStats the execution ran with; rows and
// dur are the result size and wall time the caller observed.
func (p *Plan) ExplainAnalyze(stats *exec.QueryStats, rows int64, dur time.Duration) string {
	an := &Analyze{Stats: stats}
	var b strings.Builder
	fmt.Fprintf(&b, "Plan [%s", p.Opts.Mode)
	if p.Opts.ZoneMaps {
		b.WriteString(" +zonemaps")
	}
	fmt.Fprintf(&b, "] joins=%d (analyzed)\n", p.Root.Joins())
	p.Head.Explain(&b, 0, an)
	fmt.Fprintf(&b, "actual: rows=%d time=%s\n", rows, fmtDuration(dur))
	if an.worst > 0 {
		fmt.Fprintf(&b, "misestimate: worst est/act %.1fx at %s\n", an.worst, an.worstDesc)
	}
	return b.String()
}
