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
// non-star access paths. Because those are the exception, only SPO
// exists when the set is created; every other order is sorted the first
// time a reader asks for it, once, and readers may ask concurrently
// (published snapshots share one set).
//
// The set is the only store of its triples, and they form a set: SPO
// is the row store, without duplicates, and the other orders are
// derived from SPO's arrays. No array of a set is written once the set
// exists — Merge builds the next set in fresh arrays — which is what
// makes a late materialization safe while a writer moves on.
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

// NewIndexSet makes an index set of t's triples and takes ownership of
// t: the caller must not write t afterwards. Rows that already ascend
// strictly in SPO order (what the snapshot writer and the catalog
// produce) are adopted as the SPO projection without a copy; any other
// table is sorted and its duplicate triples collapsed, which counts as
// an SPO build. The other orders are sorted on demand.
func NewIndexSet(t *Table) *IndexSet {
	s := &IndexSet{}
	spo := &Projection{Order: SPO, A: t.S, B: t.P, C: t.O}
	if !spo.ascends() {
		start := time.Now()
		spo = Build(t, SPO)
		spo.dedup()
		observe(buildsTotal, SPO, start)
	}
	s.perms[SPO].Store(spo)
	return s
}

// ascends reports whether every row is strictly greater than the one
// before it: sorted, and a set. One early-exiting scan.
func (pr *Projection) ascends() bool {
	for i := 1; i < pr.Len(); i++ {
		if compareAt(pr, i-1, pr, i) >= 0 {
			return false
		}
	}
	return true
}

// BuildAll indexes the table and materializes all six orders.
func BuildAll(t *Table) *IndexSet {
	s := NewIndexSet(t)
	for _, p := range AllPerms {
		s.Get(p)
	}
	return s
}

// Len returns the number of triples in the set.
func (s *IndexSet) Len() int { return s.perms[SPO].Load().Len() }

// Triples returns the set's triples in SPO order as a table that shares
// SPO's arrays, for readers of plain columns such as the snapshot
// writer. It must not be written.
func (s *IndexSet) Triples() *Table {
	spo := s.perms[SPO].Load()
	return &Table{S: spo.A, P: spo.B, O: spo.C}
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
// triple of del is dropped and the triples of add are inserted, by one
// linear merge per order this set has materialized; the other orders
// stay lazy and will be derived from the merged SPO. A triple of add
// already present is not repeated, so the result is a set again. add
// and del are batches — they are sorted per order, the existing rows
// are not; into an empty order (a bulk load's first fold) the merge is
// just that sort, and counts as a build. The receiver is not modified,
// so readers of the previous epoch keep using it while the writer
// merges; an empty batch returns it unchanged.
func (s *IndexSet) Merge(add, del *Table) *IndexSet {
	if add.Len() == 0 && del.Len() == 0 {
		return s
	}
	ns := &IndexSet{}
	for _, p := range AllPerms {
		old := s.perms[p].Load()
		if old == nil {
			continue
		}
		start := time.Now()
		ns.perms[p].Store(old.merge(Build(add, p), Build(del, p)))
		if old.Len() == 0 {
			observe(buildsTotal, p, start) // nothing to merge into: a sort
		} else {
			observe(mergesTotal, p, start)
		}
	}
	return ns
}

// merge combines three projections of one order: pr minus every row
// that equals a row of del, plus the rows of add, each triple once. add
// and del are fresh sorts that merge may take over.
func (pr *Projection) merge(add, del *Projection) *Projection {
	add.dedup()
	if pr.Len() == 0 {
		return add
	}
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
		c := 1 // add[j] against pr[i]
		for j < add.Len() {
			if c = compareAt(add, j, pr, i); c >= 0 {
				break
			}
			take(add, j)
			j++
		}
		if c == 0 {
			j++ // added again: pr's row stands for it, deleted or not
		}
		for k < del.Len() && compareAt(del, k, pr, i) < 0 {
			k++
		}
		if c == 0 || k == del.Len() || compareAt(del, k, pr, i) != 0 {
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
		"Triple projections sorted, by permutation (SPO when an index set is created from, or first filled with, unsorted rows; the rest on first use); an adopted SPO is not a sort.", buildsTotal)
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
