package plan

import (
	"fmt"
	"strings"

	"srdf/internal/exec"
	"srdf/internal/sparql"
)

// HeadNode is a value-level plan operator: the query head — projection,
// aggregation, DISTINCT, ORDER BY — planned as explicit nodes over the
// OID-level operator tree instead of post-hoc result processing. Head
// nodes build the streaming value pipeline (ValOp) the row iterator
// pulls from.
type HeadNode interface {
	// ValOp builds the streaming value operator subtree for this node,
	// wrapped in its runtime-stats accounting.
	ValOp() exec.ValOperator
	// Vars lists the output column names.
	Vars() []string
	// Explain writes one line per operator, indented. A non-nil an
	// appends the runtime annotations of a finished execution.
	Explain(b *strings.Builder, indent int, an *Analyze)
}

// ProjectNode evaluates the select expressions over the BGP pipeline,
// turning OID batches into value batches (bare variables stay OIDs; see
// exec.VBatch). Bound > 0 caps the rows ever evaluated (set when a bare
// projection sits under a LIMIT).
type ProjectNode struct {
	Input Node
	Items []sparql.SelectItem
	Bound int
	sid   int
}

func (n *ProjectNode) ValOp() exec.ValOperator {
	p := exec.NewProjectOp(n.Input.Op(), n.Items)
	if n.Bound > 0 {
		p.SetRowBound(n.Bound)
	}
	return exec.NewStatsValOp(n.sid, p)
}

func (n *ProjectNode) Vars() []string {
	out := make([]string, len(n.Items))
	for i := range n.Items {
		out[i] = n.Items[i].As
	}
	return out
}

func (n *ProjectNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	fmt.Fprintf(b, "Project %s", itemsDesc(n.Items))
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// AggregateNode is the vectorized hash GROUP BY/aggregate: compiled
// argument vectors fold batch by batch into typed per-group states.
type AggregateNode struct {
	Input   Node
	Items   []sparql.SelectItem
	GroupBy []string
	sid     int
}

func (n *AggregateNode) ValOp() exec.ValOperator {
	agg := exec.NewAggregateOp(n.Input.Op(), n.Items, n.GroupBy)
	agg.Stats = n.sid
	return exec.NewStatsValOp(n.sid, agg)
}

func (n *AggregateNode) Vars() []string {
	out := make([]string, len(n.Items))
	for i := range n.Items {
		out[i] = n.Items[i].As
	}
	return out
}

func (n *AggregateNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	groups := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groups[i] = "?" + g
	}
	fmt.Fprintf(b, "HashAggregate by [%s] -> %s", strings.Join(groups, " "), itemsDesc(n.Items))
	b.WriteString(an.groups(n.sid))
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// DistinctNode filters duplicate result rows with a streaming hash set.
type DistinctNode struct {
	Input HeadNode
	sid   int
}

func (n *DistinctNode) ValOp() exec.ValOperator {
	return exec.NewStatsValOp(n.sid, exec.NewDistinctOp(n.Input.ValOp()))
}

func (n *DistinctNode) Vars() []string { return n.Input.Vars() }

func (n *DistinctNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	b.WriteString("Distinct")
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

// SortNode orders result rows; with Keep >= 0 (ORDER BY + LIMIT) it runs
// as a bounded top-K holding at most Keep rows of sort state.
type SortNode struct {
	Input HeadNode
	Keys  []sparql.OrderKey
	// Keep is the top-K bound (LIMIT+OFFSET), -1 for a full sort.
	Keep int
	sid  int
}

func (n *SortNode) ValOp() exec.ValOperator {
	return exec.NewStatsValOp(n.sid, exec.NewSortOp(n.Input.ValOp(), n.Keys, n.Keep))
}

func (n *SortNode) Vars() []string { return n.Input.Vars() }

func (n *SortNode) Explain(b *strings.Builder, indent int, an *Analyze) {
	pad(b, indent)
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = sparql.ExprString(k.Expr)
		if k.Desc {
			keys[i] = "DESC(" + keys[i] + ")"
		}
	}
	if n.Keep >= 0 {
		fmt.Fprintf(b, "TopKSort k=%d by [%s]", n.Keep, strings.Join(keys, " "))
	} else {
		fmt.Fprintf(b, "Sort by [%s]", strings.Join(keys, " "))
	}
	an.annotate(b, n.sid, 0, false, "")
	b.WriteByte('\n')
	n.Input.Explain(b, indent+1, an)
}

func itemsDesc(items []sparql.SelectItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		if v, ok := it.Expr.(*sparql.ExVar); ok && v.Name == it.As {
			parts[i] = "?" + it.As
		} else {
			parts[i] = fmt.Sprintf("(%s AS ?%s)", sparql.ExprString(it.Expr), it.As)
		}
	}
	return strings.Join(parts, " ")
}

// buildHead plans the query head over the (already filter-wrapped) BGP
// root. The composition — which modifiers appear, their order, the
// top-K bound, ORDER BY validation — comes from exec.HeadShapeOf, the
// same single source exec.Stream builds its operators from; the nodes
// here only add Explain.
func buildHead(root Node, q *sparql.Query) (HeadNode, error) {
	hs, err := exec.HeadShapeOf(q, root.Vars())
	if err != nil {
		return nil, err
	}
	var h HeadNode
	if hs.Aggregate {
		h = &AggregateNode{Input: root, Items: hs.Items, GroupBy: hs.GroupBy}
	} else {
		p := &ProjectNode{Input: root, Items: hs.Items}
		if hs.Keep > 0 && !hs.Distinct && len(hs.OrderBy) == 0 {
			p.Bound = hs.Keep
		}
		h = p
	}
	if hs.Distinct {
		h = &DistinctNode{Input: h}
	}
	if len(hs.OrderBy) > 0 {
		h = &SortNode{Input: h, Keys: hs.OrderBy, Keep: hs.Keep}
	}
	return h, nil
}
