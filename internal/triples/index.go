package triples

import (
	"cmp"
	"sync"
	"sync/atomic"
	"time"

	"srdf/internal/dict"
	"srdf/internal/obs"
)

// IndexSet is the "exhaustive indexing" of RDF-3X and MonetDB+HSP that
// the paper critiques for its lack of locality — and that the
// reorganized store still needs for the irregular residue and for
// non-star access paths. Because those are the exception, only SPO is
// sorted when the set is created; every other order is sorted the first
// time a reader asks for it, once, and readers may ask concurrently
// (published snapshots share one set).
//
// A set never looks at the table again after NewIndexSet returns: SPO
// owns copies of the rows and the other orders are derived from SPO's
// arrays. That is what makes a late materialization safe — the store
// compacts and appends to its table in place, and an order sorted from
// a table that has since moved would disagree with its siblings.
type IndexSet struct {
	perms [6]atomic.Pointer[Projection]
	// build serializes the first Get of one order; Get of a
	// materialized order never takes it.
	build [6]sync.Mutex
	// resPreds is the set of predicates with a resource object,
	// computed on the first HasResourceObject.
	resOnce  sync.Once
	resPreds map[dict.OID]struct{}
}

// NewIndexSet indexes the table: SPO now, the other orders on demand.
func NewIndexSet(t *Table) *IndexSet {
	start := time.Now()
	s := &IndexSet{}
	s.perms[SPO].Store(Build(t, SPO))
	observe(buildsTotal, SPO, start)
	return s
}

// BuildAll indexes the table and materializes all six orders.
func BuildAll(t *Table) *IndexSet {
	s := NewIndexSet(t)
	for _, p := range AllPerms {
		s.Get(p)
	}
	return s
}

// Get returns the projection for a permutation, sorting it on first
// use. Once materialized it is one atomic load.
func (s *IndexSet) Get(p Perm) *Projection {
	if pr := s.perms[p].Load(); pr != nil {
		return pr
	}
	s.build[p].Lock()
	defer s.build[p].Unlock()
	if pr := s.perms[p].Load(); pr != nil {
		return pr
	}
	start := time.Now()
	pr := s.perms[SPO].Load().reorder(p)
	observe(buildsTotal, p, start)
	s.perms[p].Store(pr)
	return pr
}

// HasResourceObject reports whether some triple with predicate p has a
// resource (IRI or blank node) object. The predicates that do are
// collected by one pass over SPO on first use, once per index set.
func (s *IndexSet) HasResourceObject(p dict.OID) bool {
	s.resOnce.Do(func() {
		spo := s.perms[SPO].Load()
		s.resPreds = map[dict.OID]struct{}{}
		for k, o := range spo.C {
			if o.IsResource() {
				s.resPreds[spo.B[k]] = struct{}{}
			}
		}
	})
	_, ok := s.resPreds[p]
	return ok
}

// Materialized lists the orders sorted so far.
func (s *IndexSet) Materialized() []Perm {
	var out []Perm
	for _, p := range AllPerms {
		if s.perms[p].Load() != nil {
			out = append(out, p)
		}
	}
	return out
}

// reorder derives another order from an SPO projection by stable key
// passes over SPO's own arrays. Rows that tie on the sorted keys keep
// their SPO order, so only the leading components that disagree with
// SPO need a pass: one for PSO and OSP (the other two already ascend as
// S,O and S,P), two for the rest (the last component then ascends alone).
func (spo *Projection) reorder(p Perm) *Projection {
	a, b, c := p.cols(&Table{S: spo.A, P: spo.B, O: spo.C})
	keys := [][]dict.OID{a, b}
	if p == PSO || p == OSP {
		keys = keys[:1]
	}
	return gather(p, sortRows(spo.Len(), keys...), a, b, c)
}

// Merge returns the index set of the next epoch: every row equal to a
// triple of del is dropped and the rows of add are inserted, by one
// linear merge per order this set has materialized; the other orders
// stay lazy and will be derived from the merged SPO. add and del are
// small batches — they are sorted per order, the existing rows are not.
// The receiver is not modified, so readers of the previous epoch keep
// using it while the writer merges.
func (s *IndexSet) Merge(add, del *Table) *IndexSet {
	ns := &IndexSet{}
	for _, p := range AllPerms {
		old := s.perms[p].Load()
		if old == nil {
			continue
		}
		start := time.Now()
		ns.perms[p].Store(old.merge(Build(add, p), Build(del, p)))
		observe(mergesTotal, p, start)
	}
	return ns
}

// merge combines three projections of one order: pr minus every row
// that equals a row of del, plus the rows of add.
func (pr *Projection) merge(add, del *Projection) *Projection {
	n := pr.Len() + add.Len()
	out := &Projection{
		Order: pr.Order,
		A:     make([]dict.OID, 0, n),
		B:     make([]dict.OID, 0, n),
		C:     make([]dict.OID, 0, n),
	}
	take := func(from *Projection, i int) {
		out.A = append(out.A, from.A[i])
		out.B = append(out.B, from.B[i])
		out.C = append(out.C, from.C[i])
	}
	i, j, k := 0, 0, 0 // cursors into pr, add, del
	for i < pr.Len() {
		for j < add.Len() && compareAt(add, j, pr, i) < 0 {
			take(add, j)
			j++
		}
		for k < del.Len() && compareAt(del, k, pr, i) < 0 {
			k++
		}
		if k == del.Len() || compareAt(del, k, pr, i) != 0 {
			take(pr, i)
		}
		i++
	}
	for ; j < add.Len(); j++ {
		take(add, j)
	}
	return out
}

// compareAt orders row i of x against row j of y (same permutation).
func compareAt(x *Projection, i int, y *Projection, j int) int {
	if c := cmp.Compare(x.A[i], y.A[j]); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B[i], y.B[j]); c != 0 {
		return c
	}
	return cmp.Compare(x.C[i], y.C[j])
}

// Projection work is counted process-wide, like the executor's scan
// totals: which orders a workload makes the store sort or merge, and
// how long each took, answer "which permutations are actually used"
// and "why was that read slow" from /metrics alone.
var (
	buildsTotal  = obs.NewLabeledCounter("perm")
	mergesTotal  = obs.NewLabeledCounter("perm")
	buildSeconds = obs.NewHistogram([]float64{
		0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5,
	})
)

func observe(total *obs.LabeledCounter, p Perm, start time.Time) {
	total.With(p.String()).Inc()
	buildSeconds.Observe(time.Since(start).Seconds())
}

// RegisterMetrics exposes the projection counters in a registry.
func RegisterMetrics(reg *obs.Registry) {
	for _, p := range AllPerms { // pre-touch for a stable exposition
		buildsTotal.With(p.String())
		mergesTotal.With(p.String())
	}
	reg.RegisterLabeledCounter("srdf_projection_builds_total",
		"Triple projections sorted, by permutation (SPO when an index set is created, the rest on first use).", buildsTotal)
	reg.RegisterLabeledCounter("srdf_projection_merges_total",
		"Triple projections carried across a refresh by merging the batch in, by permutation.", mergesTotal)
	reg.RegisterHistogram("srdf_projection_build_seconds",
		"Seconds spent producing one projection, sorted or merged.", buildSeconds)
}

// ProjectionCounts reports how often order p was sorted and merged
// since process start.
func ProjectionCounts(p Perm) (builds, merges uint64) {
	return buildsTotal.With(p.String()).Value(), mergesTotal.With(p.String()).Value()
}
