package cs

import (
	"hash/fnv"
	"sort"

	"srdf/internal/dict"
	"srdf/internal/triples"
)

// Discover runs the full pipeline — basic extraction, generalization,
// typed-property splitting, retention with incoming-link rescue,
// foreign-key discovery, fine-tuning, and naming — and returns the
// emergent schema.
func Discover(tb *triples.Table, d *dict.Dictionary, opts Options) *Schema {
	return DiscoverSPO(triples.Build(tb, triples.SPO), d, opts)
}

// DiscoverSPO is Discover for a caller that already holds the table's
// SPO projection (Organize shares one between discovery and
// clustering), sparing this stage its own sort.
func DiscoverSPO(spo *triples.Projection, d *dict.Dictionary, opts Options) *Schema {
	// the whole-table passes are order-agnostic, so they read the
	// projection's own columns
	tb := &triples.Table{S: spo.A, P: spo.B, O: spo.C}
	b := &builder{tb: tb, spo: spo, d: d, opts: opts}
	b.typePred, _ = d.Lookup(dict.IRI(dict.RDFType))

	raw := b.extract()
	clusters := b.generalize(raw)
	if opts.TypeSplit {
		clusters = b.typeSplit(clusters)
	}
	s := &Schema{
		TotalTriples: tb.Len(),
		RawCSCount:   len(raw),
		Opts:         opts,
	}
	b.finalize(s, clusters)
	return s
}

type builder struct {
	tb       *triples.Table
	d        *dict.Dictionary
	opts     Options
	spo      *triples.Projection
	typePred dict.OID
}

// cluster is a CS under construction.
type cluster struct {
	props      map[dict.OID]*PropStat
	subjects   []dict.OID
	mergedFrom int
	// typeHist counts rdf:type objects over members, for naming.
	typeHist map[dict.OID]int
}

func newCluster() *cluster {
	return &cluster{props: make(map[dict.OID]*PropStat), typeHist: make(map[dict.OID]int), mergedFrom: 1}
}

func (c *cluster) support() int { return len(c.subjects) }

func (c *cluster) sortedPreds() []dict.OID {
	out := make([]dict.OID, 0, len(c.props))
	for p := range c.props {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// classOf collapses an object OID into its type class for the "Typed
// Properties" analysis: resources type by CS membership downstream, so
// here they are all RefKind; literals type by atomic ValueKind.
func (b *builder) classOf(o dict.OID) dict.ValueKind {
	if o.IsResource() {
		return RefKind
	}
	return b.d.Value(o).Kind
}

// subjectProps captures one subject's property vector during extraction.
type subjectProps struct {
	preds  []dict.OID
	counts []int
	// classes holds the dominant type class per predicate.
	classes []dict.ValueKind
}

// forEachSubject streams (subject, property vector) pairs off the SPO
// projection in subject order. The vector's preds are sorted (SPO order).
func (b *builder) forEachSubject(fn func(s dict.OID, sp *subjectProps)) {
	var sp subjectProps
	b.spo.Distinct1(func(s dict.OID, lo, hi int) {
		sp.preds = sp.preds[:0]
		sp.counts = sp.counts[:0]
		sp.classes = sp.classes[:0]
		b.spo.Distinct2(lo, hi, func(p dict.OID, l, h int) {
			// Dominant class among this subject's values of p.
			var hist [8]int
			refs := 0
			for i := l; i < h; i++ {
				k := b.classOf(b.spo.C[i])
				if k == RefKind {
					refs++
				} else {
					hist[k]++
				}
			}
			best, bestN := RefKind, refs
			for k, n := range hist {
				if n > bestN {
					best, bestN = dict.ValueKind(k), n
				}
			}
			sp.preds = append(sp.preds, p)
			sp.counts = append(sp.counts, h-l)
			sp.classes = append(sp.classes, best)
		})
		fn(s, &sp)
	})
}

func fingerprint(preds []dict.OID) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range preds {
		v := uint64(p)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// extract is the basic CS algorithm of [1]: one raw CS per distinct
// property combination.
func (b *builder) extract() []*cluster {
	byFP := make(map[uint64]*cluster)
	var order []uint64 // deterministic iteration
	b.forEachSubject(func(s dict.OID, sp *subjectProps) {
		fp := fingerprint(sp.preds)
		c, ok := byFP[fp]
		if !ok {
			c = newCluster()
			byFP[fp] = c
			order = append(order, fp)
		}
		c.subjects = append(c.subjects, s)
		b.accumulate(c, s, sp)
	})
	out := make([]*cluster, 0, len(order))
	for _, fp := range order {
		out = append(out, byFP[fp])
	}
	return out
}

// accumulate folds one subject's property vector into a cluster's stats.
func (b *builder) accumulate(c *cluster, s dict.OID, sp *subjectProps) {
	lo, hi := b.spo.Range1(s)
	_ = hi
	for i, p := range sp.preds {
		ps, ok := c.props[p]
		if !ok {
			ps = &PropStat{Pred: p, TypeHist: make(map[dict.ValueKind]int), FKTarget: -1}
			c.props[p] = ps
		}
		cnt := sp.counts[i]
		ps.NonNull++
		ps.ValueCount += cnt
		if cnt > 1 {
			ps.MultiSubjects++
		}
		ps.TypeHist[sp.classes[i]] += cnt
	}
	// rdf:type histogram for naming
	if b.typePred != dict.Nil {
		l, h := b.spo.Range2(s, b.typePred)
		for i := l; i < h; i++ {
			c.typeHist[b.spo.C[i]]++
		}
	}
	_ = lo
}

// mergeInto folds cluster src into dst, keeping the union of properties;
// properties whose eventual non-null fraction falls below MinPropFrac are
// dropped (their triples stay in the irregular store).
func (b *builder) mergeInto(dst, src *cluster) {
	dst.subjects = append(dst.subjects, src.subjects...)
	dst.mergedFrom += src.mergedFrom
	for p, ps := range src.props {
		dp, ok := dst.props[p]
		if !ok {
			dst.props[p] = clonePropStat(ps)
			continue
		}
		dp.NonNull += ps.NonNull
		dp.ValueCount += ps.ValueCount
		dp.MultiSubjects += ps.MultiSubjects
		for k, n := range ps.TypeHist {
			dp.TypeHist[k] += n
		}
	}
	for o, n := range src.typeHist {
		dst.typeHist[o] += n
	}
	minN := b.opts.MinPropFrac * float64(dst.support())
	for p, ps := range dst.props {
		if float64(ps.NonNull) < minN {
			delete(dst.props, p)
		}
	}
}

func clonePropStat(ps *PropStat) *PropStat {
	c := *ps
	c.TypeHist = make(map[dict.ValueKind]int, len(ps.TypeHist))
	for k, v := range ps.TypeHist {
		c.TypeHist[k] = v
	}
	return &c
}

// generalize implements the paper's Generalization step: instead of one
// CS per unique property combination, small CS's are merged into larger
// ones, producing NULLABLE (0..1) attributes, as long as every attribute
// keeps a significant minority of non-null subjects.
func (b *builder) generalize(raw []*cluster) []*cluster {
	// Largest first: big CS's anchor the schema, small ones fold in.
	sort.SliceStable(raw, func(i, j int) bool {
		if raw[i].support() != raw[j].support() {
			return raw[i].support() > raw[j].support()
		}
		return fingerprint(raw[i].sortedPreds()) < fingerprint(raw[j].sortedPreds())
	})
	var accepted []*cluster
	byProp := make(map[dict.OID][]int) // pred -> accepted indexes

	for _, r := range raw {
		best := -1
		bestScore := -1.0
		seen := make(map[int]bool)
		// Candidates are scanned in sorted-predicate order with an
		// explicit index tie-break: map-iteration order here would make
		// score ties — and with them the whole emergent clustering and
		// OID assignment — nondeterministic across identical builds,
		// which the differential harness forbids.
		for _, p := range r.sortedPreds() {
			for _, ci := range byProp[p] {
				if seen[ci] {
					continue
				}
				seen[ci] = true
				score, ok := b.mergeScore(accepted[ci], r)
				if ok && (score > bestScore || (score == bestScore && ci < best)) {
					best, bestScore = ci, score
				}
			}
		}
		if best >= 0 {
			b.mergeInto(accepted[best], r)
			// index any new props gained from the merge
			for p := range accepted[best].props {
				if !containsIdx(byProp[p], best) {
					byProp[p] = append(byProp[p], best)
				}
			}
			continue
		}
		idx := len(accepted)
		accepted = append(accepted, r)
		for p := range r.props {
			byProp[p] = append(byProp[p], idx)
		}
	}
	return accepted
}

func containsIdx(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// mergeScore decides whether src may be generalized into dst and how
// attractive the merge is. Returns (score, allowed).
func (b *builder) mergeScore(dst, src *cluster) (float64, bool) {
	inter := 0
	for p := range src.props {
		if _, ok := dst.props[p]; ok {
			inter++
		}
	}
	if inter == 0 {
		return 0, false
	}
	either := len(dst.props) + len(src.props) - inter
	jac := float64(inter) / float64(either)
	srcSubset := inter == len(src.props)
	dstSubset := inter == len(dst.props)
	newSup := dst.support() + src.support()
	minN := b.opts.MinPropFrac * float64(newSup)

	switch {
	case srcSubset && dstSubset: // identical property sets (different stats)
		return 2 + jac, true
	case srcSubset:
		// dst gains nullable rows; every dst-only prop must stay above
		// the minority fraction.
		for p, ps := range dst.props {
			if _, ok := src.props[p]; !ok && float64(ps.NonNull) < minN {
				return 0, false
			}
		}
		return 1 + jac, true
	case dstSubset:
		// src brings extra props as nullables; those below the fraction
		// threshold are dropped by mergeInto (triples stay irregular),
		// which is acceptable only when src is the smaller side.
		if src.support() > dst.support() {
			return 0, false
		}
		return 1 + jac, true
	case jac >= b.opts.SimilarityMerge:
		return jac, true
	default:
		return 0, false
	}
}
