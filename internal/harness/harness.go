// Package harness is the differential fuzz/property harness for the
// live-update store: it generates random structured triple sets, random
// update scripts (adds, deletes, duplicate re-adds), and random queries,
// then asserts that, for every plan configuration,
//
//   - within one store, Query and QueryStream return identical row
//     sequences, and
//   - every store — mutated through the delta layer, Compact()ed,
//     reopened, recovered, or freshly Organized on the final triples —
//     answers as the oracle (oracle.go) does: a naive evaluator over the
//     script's final triples that shares no code with the engine.
//
// The generators are deterministic in their seeds, so every fuzz finding
// replays exactly.
package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

// NS is the IRI namespace of generated resources.
const NS = "http://h/"

// predKind classifies a generated predicate's object values.
type predKind int

const (
	kindInt predKind = iota
	kindStr
	kindRef
	// kindMixed objects are ints, decimals, dates, strings and IRIs on
	// one predicate: the cross-kind corners of FILTER and aggregates.
	kindMixed
)

// mixedPred is the IRI of the generated mixed-kind predicate.
const mixedPred = NS + "pm"

// pred is one predicate of the generated universe.
type pred struct {
	iri  string
	kind predKind
}

// Op is one live-update operation.
type Op struct {
	Del bool
	T   nt.Triple
}

// Script is a deterministic workload: an initial graph, an update
// script to run after Organize, and a query set.
type Script struct {
	Initial []nt.Triple
	Ops     []Op
	Queries []Query

	preds []pred
	nSubj int
	mint  mintBounds // GenMintScript's FILTER constants
}

// Query is one generated query; CrossStore marks queries whose result
// set is deterministic (no LIMIT), so two stores' row sets may be
// compared with each other directly. The oracle checks every query.
type Query struct {
	Text       string
	CrossStore bool
}

func subjIRI(i int) string { return fmt.Sprintf("%ss%d", NS, i) }

func iri(s string) dict.Term { return dict.IRI(s) }

// GenScript builds a deterministic workload from seeds: nSubj subjects
// over a few emergent classes, nOps update operations, and a query set
// exercising scans, stars, joins, filters, aggregation and modifiers.
func GenScript(seed int64, nSubj, nOps int) *Script {
	rnd := rand.New(rand.NewSource(seed))
	sc := &Script{nSubj: nSubj}

	nPreds := 6 + rnd.Intn(4)
	for i := 0; i < nPreds; i++ {
		sc.preds = append(sc.preds, pred{
			iri:  fmt.Sprintf("%sp%d", NS, i),
			kind: predKind(rnd.Intn(3)),
		})
	}
	nClasses := 2 + rnd.Intn(3)
	classProps := make([][]int, nClasses)
	for c := range classProps {
		n := 2 + rnd.Intn(3)
		seen := map[int]bool{}
		for len(classProps[c]) < n {
			p := rnd.Intn(nPreds)
			if !seen[p] {
				seen[p] = true
				classProps[c] = append(classProps[c], p)
			}
		}
		sort.Ints(classProps[c])
	}

	value := func(p pred) dict.Term {
		switch p.kind {
		case kindInt:
			return dict.IntLit(int64(rnd.Intn(40)))
		case kindStr:
			return dict.StringLit(fmt.Sprintf("v%d", rnd.Intn(20)))
		default:
			return iri(subjIRI(rnd.Intn(nSubj)))
		}
	}

	// Initial graph: subjects follow their class's property vector with
	// some nulls, plus a sprinkle of noise triples.
	for i := 0; i < nSubj; i++ {
		c := i % nClasses
		for _, pi := range classProps[c] {
			if rnd.Float64() < 0.85 {
				sc.Initial = append(sc.Initial, nt.Triple{S: iri(subjIRI(i)), P: iri(sc.preds[pi].iri), O: value(sc.preds[pi])})
			}
		}
	}
	for i := 0; i < nSubj/10+1; i++ {
		p := sc.preds[rnd.Intn(nPreds)]
		sc.Initial = append(sc.Initial, nt.Triple{S: iri(subjIRI(rnd.Intn(nSubj))), P: iri(p.iri), O: value(p)})
	}

	// The mixed-kind predicate draws from its own stream, so the rest of
	// a seed's graph, script and queries stay what they were before it
	// existed.
	mix := rand.New(rand.NewSource(seed ^ 0x6d6978))
	for i := 0; i < nSubj; i++ {
		if mix.Float64() < 0.8 {
			sc.Initial = append(sc.Initial, nt.Triple{S: iri(subjIRI(i)), P: iri(mixedPred), O: mixedValue(mix, nSubj)})
		}
	}

	// Update script. live tracks the current set so deletes hit real
	// triples and duplicate re-adds are generated on purpose.
	live := append([]nt.Triple(nil), dedup(sc.Initial)...)
	var deleted []nt.Triple
	newSubj := nSubj
	for len(sc.Ops) < nOps && len(live) > 0 {
		switch r := rnd.Float64(); {
		case r < 0.35: // delete an existing triple
			k := rnd.Intn(len(live))
			sc.Ops = append(sc.Ops, Op{Del: true, T: live[k]})
			deleted = append(deleted, live[k])
			live = append(live[:k], live[k+1:]...)
		case r < 0.42: // duplicate re-add (must be a no-op: RDF is a set)
			k := rnd.Intn(len(live))
			sc.Ops = append(sc.Ops, Op{T: live[k]})
		case r < 0.47 && len(deleted) > 0: // resurrect a deleted triple
			k := rnd.Intn(len(deleted))
			t := deleted[k]
			deleted = append(deleted[:k], deleted[k+1:]...)
			sc.Ops = append(sc.Ops, Op{T: t})
			live = append(live, t)
		case r < 0.75: // new subject with a class-shaped property vector
			c := rnd.Intn(nClasses)
			s := iri(subjIRI(newSubj))
			newSubj++
			for _, pi := range classProps[c] {
				if rnd.Float64() < 0.9 {
					t := nt.Triple{S: s, P: iri(sc.preds[pi].iri), O: value(sc.preds[pi])}
					sc.Ops = append(sc.Ops, Op{T: t})
					live = append(live, t)
				}
			}
		default: // extra triple on an existing subject (may not fit its CS)
			k := rnd.Intn(len(live))
			p := sc.preds[rnd.Intn(nPreds)]
			t := nt.Triple{S: live[k].S, P: iri(p.iri), O: value(p)}
			sc.Ops = append(sc.Ops, Op{T: t})
			live = append(live, t)
		}
	}

	// Mixed-kind updates ride at the end of a non-empty script: new
	// values (fresh literals past the ordered prefix, which pushed ranges
	// match as overflow members) and deletions of existing ones.
	if nOps > 0 {
		for i := 0; i < 1+nOps/8; i++ {
			s := iri(subjIRI(mix.Intn(nSubj)))
			if mix.Intn(3) == 0 {
				sc.Ops = append(sc.Ops, Op{Del: true, T: nt.Triple{S: s, P: iri(mixedPred), O: mixedValue(mix, nSubj)}})
				continue
			}
			sc.Ops = append(sc.Ops, Op{T: nt.Triple{S: s, P: iri(mixedPred), O: mixedValue(mix, nSubj)}})
		}
	}

	sc.genQueries(rnd, classProps)
	sc.genMixedQueries(mix)
	return sc
}

// mixedValue draws one object of the mixed-kind predicate. Decimals are
// multiples of 1/4, so float sums are exact in any row order and
// aggregates compare across stores whose physical orders differ.
func mixedValue(rnd *rand.Rand, nSubj int) dict.Term {
	switch rnd.Intn(5) {
	case 0:
		return dict.IntLit(int64(rnd.Intn(40)))
	case 1:
		return dict.TypedLit(fmt.Sprintf("%d.%02d", rnd.Intn(40), 25*rnd.Intn(4)), dict.XSDDec)
	case 2:
		return dict.DateLit(fmt.Sprintf("199%d-0%d-1%d", rnd.Intn(10), 1+rnd.Intn(9), rnd.Intn(10)))
	case 3:
		return dict.StringLit(fmt.Sprintf("m%d", rnd.Intn(20)))
	default:
		return iri(subjIRI(rnd.Intn(nSubj)))
	}
}

func dedup(ts []nt.Triple) []nt.Triple {
	seen := make(map[nt.Triple]bool, len(ts))
	out := ts[:0:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func (sc *Script) genQueries(rnd *rand.Rand, classProps [][]int) {
	pick := func(k predKind) (pred, bool) {
		perm := rnd.Perm(len(sc.preds))
		for _, i := range perm {
			if sc.preds[i].kind == k {
				return sc.preds[i], true
			}
		}
		return pred{}, false
	}
	anyPred := func() pred { return sc.preds[rnd.Intn(len(sc.preds))] }
	add := func(cross bool, format string, args ...any) {
		sc.Queries = append(sc.Queries, Query{Text: fmt.Sprintf(format, args...), CrossStore: cross})
	}

	// One- and two-property scans.
	p1, p2 := anyPred(), anyPred()
	add(true, "SELECT ?s ?a WHERE { ?s <%s> ?a }", p1.iri)
	add(true, "SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b }", p1.iri, p2.iri)

	// A class-shaped star (likely fully covered by one CS table).
	c := classProps[rnd.Intn(len(classProps))]
	var pat strings.Builder
	vars := []string{"?s"}
	for i, pi := range c {
		fmt.Fprintf(&pat, " ?s <%s> ?v%d .", sc.preds[pi].iri, i)
		vars = append(vars, fmt.Sprintf("?v%d", i))
	}
	add(true, "SELECT %s WHERE {%s }", strings.Join(vars, " "), pat.String())

	// Range filter on an int predicate.
	if p, ok := pick(kindInt); ok {
		lo := rnd.Intn(20)
		add(true, "SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v >= %d && ?v <= %d) }", p.iri, lo, lo+10+rnd.Intn(10))
	}
	// Bound object on a ref predicate, and a subject-to-subject join.
	if p, ok := pick(kindRef); ok {
		add(true, "SELECT ?s WHERE { ?s <%s> <%s> }", p.iri, subjIRI(rnd.Intn(sc.nSubj)))
		add(true, "SELECT ?s ?t ?v WHERE { ?s <%s> ?t . ?t <%s> ?v }", p.iri, anyPred().iri)
	}
	// String equality filter.
	if p, ok := pick(kindStr); ok {
		add(true, `SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v = "v%d") }`, p.iri, rnd.Intn(20))
	}
	// DISTINCT, aggregation, ORDER BY, LIMIT.
	add(true, "SELECT DISTINCT ?a WHERE { ?s <%s> ?a }", p1.iri)
	add(true, "SELECT (COUNT(*) AS ?n) WHERE { ?s <%s> ?a }", p2.iri)
	add(true, "SELECT ?a (COUNT(*) AS ?n) WHERE { ?s <%s> ?a } GROUP BY ?a ORDER BY ?a", p1.iri)
	// LIMIT picks an arbitrary subset: deterministic within one store,
	// but not across stores — CrossStore=false.
	add(false, "SELECT ?s ?a WHERE { ?s <%s> ?a } LIMIT 5", p1.iri)
}

// genMixedQueries adds the queries over the mixed-kind predicate: one-
// and two-sided range FILTERs on it and on an int predicate (pushed into
// scans as OID ranges, and not re-checked where the scan enforces
// them), and SUM/AVG/MIN/MAX over arithmetic on it, with and without
// GROUP BY.
func (sc *Script) genMixedQueries(rnd *rand.Rand) {
	add := func(format string, args ...any) {
		sc.Queries = append(sc.Queries, Query{Text: fmt.Sprintf(format, args...), CrossStore: true})
	}
	const date = "<http://www.w3.org/2001/XMLSchema#date>"
	lo := rnd.Intn(20)
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (?m >= %d) }", mixedPred, lo)
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (?m < \"1995-01-01\"^^%s) }", mixedPred, date)
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (?m > \"m%d\") }", mixedPred, rnd.Intn(20))
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (?m >= %d && ?m <= %d.5) }", mixedPred, lo, lo+5+rnd.Intn(20))
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (\"1993-01-01\"^^%s <= ?m && ?m < \"1997-06-01\"^^%s) }",
		mixedPred, date, date)
	for _, p := range sc.preds {
		if p.kind == kindInt {
			add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v < %d) }", p.iri, 5+rnd.Intn(30))
			add("SELECT ?s ?v ?m WHERE { ?s <%s> ?v . ?s <%s> ?m . FILTER (?v > %d && ?v <= %d && ?m >= 0) }",
				p.iri, mixedPred, rnd.Intn(10), 20+rnd.Intn(20))
			break
		}
	}
	aggs := "(SUM(?m * 2) AS ?s2) (AVG(?m + 1) AS ?a1) (MIN(?m * 2) AS ?lo) (MAX(?m + 1) AS ?hi) " +
		"(MIN(?m) AS ?min) (MAX(?m) AS ?max) (COUNT(?m) AS ?n) (SUM(?m) AS ?sum)"
	add("SELECT %s WHERE { ?s <%s> ?m }", aggs, mixedPred)
	g := sc.preds[rnd.Intn(len(sc.preds))]
	add("SELECT ?g %s WHERE { ?s <%s> ?m . ?s <%s> ?g } GROUP BY ?g ORDER BY ?g", aggs, mixedPred, g.iri)
	add("SELECT ?g (SUM(?m + 1) AS ?x) (COUNT(*) AS ?n) WHERE { ?s <%s> ?m . ?s <%s> ?g . FILTER (?m >= %d && ?m < 40) } GROUP BY ?g",
		mixedPred, g.iri, rnd.Intn(10))
	// comparisons no scan enforces, so the compiled expressions decide
	// them: a disjunction, variable against variable, and comparisons
	// projected as values
	c := rnd.Intn(40)
	add("SELECT ?s ?m WHERE { ?s <%s> ?m . FILTER (?m <= %d || ?m > \"m%d\") }", mixedPred, c, rnd.Intn(20))
	add("SELECT ?s ?m ?g WHERE { ?s <%s> ?m . ?s <%s> ?g . FILTER (?m <= ?g) }", mixedPred, g.iri)
	add("SELECT ?s (?m < %d AS ?lt) (?m <= %d AS ?le) (?m > %d AS ?gt) (?m >= %d AS ?ge) (?m = %d AS ?eq) (?m != %d AS ?ne) WHERE { ?s <%s> ?m }",
		c, c, c, c, c, c, mixedPred)
}

// Final returns the triple set after applying the script's operations to
// the initial graph with set semantics.
func (sc *Script) Final() []nt.Triple { return sc.after(len(sc.Ops)) }

// after returns the triple set after the first n operations.
func (sc *Script) after(n int) []nt.Triple {
	set := make(map[nt.Triple]bool)
	var order []nt.Triple
	for _, t := range sc.Initial {
		if !set[t] {
			set[t] = true
			order = append(order, t)
		}
	}
	for _, op := range sc.Ops[:n] {
		if op.Del {
			set[op.T] = false
			continue
		}
		if !set[op.T] {
			set[op.T] = true
			order = append(order, op.T)
		}
	}
	// a triple deleted and re-added sits in order twice: emit it once
	var out []nt.Triple
	for _, t := range order {
		if set[t] {
			out = append(out, t)
			set[t] = false
		}
	}
	return out
}

// Config is one plan configuration of the equivalence matrix. Algo
// forces a join algorithm where eligible (the planner falls back to
// normal costing for joins the forced algorithm cannot run), and
// NoBloom disables runtime bloom filters; both must be invisible in
// the results.
type Config struct {
	Mode    plan.Mode
	Zones   bool
	Algo    string
	NoBloom bool
}

func (c Config) String() string {
	s := c.Mode.String()
	if c.Zones {
		s += "+zm"
	}
	if c.Algo != "" {
		s += "+" + c.Algo
	}
	if c.NoBloom {
		s += "-bloom"
	}
	return s
}

// Configs is the plan-configuration axis of the differential matrix.
var Configs = []Config{
	{Mode: plan.ModeDefault},
	{Mode: plan.ModeRDFScan},
	{Mode: plan.ModeRDFScan, Zones: true},
	{Mode: plan.ModeRDFScan, Zones: true, Algo: "fk"},
	{Mode: plan.ModeRDFScan, Zones: true, Algo: "hash", NoBloom: true},
}

// renderRow encodes one decoded row for comparison (kind-tagged so an
// integer 5 and a string "5" stay distinct).
func renderRow(row []dict.Value) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d:%s", v.Kind, v.Lexical())
	}
	return b.String()
}

func renderRows(rows [][]dict.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderRow(r)
	}
	return out
}

func sorted(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func eqSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EvalQuery runs one query on one store under every plan configuration,
// asserting Query ≡ QueryStream (row-identical) and agreement with the
// oracle's answer want (see checkAnswer). It returns the per-config row
// sequences.
func EvalQuery(st *core.Store, q string, want *Answer) (map[Config][]string, error) {
	out := make(map[Config][]string, len(Configs))
	for _, cfg := range Configs {
		qo := core.QueryOptions{Mode: cfg.Mode, ZoneMaps: cfg.Zones, ForceAlgo: cfg.Algo, NoBloom: cfg.NoBloom}
		res, err := st.Query(q, qo)
		if err != nil {
			return nil, fmt.Errorf("%v Query: %w\nquery: %s", cfg, err, q)
		}
		rows := renderRows(res.Rows)

		it, err := st.QueryStream(context.Background(), q, qo)
		if err != nil {
			return nil, fmt.Errorf("%v QueryStream: %w\nquery: %s", cfg, err, q)
		}
		var srows []string
		for it.Next() {
			srows = append(srows, renderRow(it.Row()))
		}
		if !eqSeq(rows, srows) {
			return nil, fmt.Errorf("%v: Query and QueryStream disagree (%d vs %d rows)\nquery: %s\nquery result: %v\nstream result: %v",
				cfg, len(rows), len(srows), q, rows, srows)
		}
		if err := checkAnswer(want, res); err != nil {
			return nil, fmt.Errorf("%v: engine and oracle disagree: %w\nquery: %s", cfg, err, q)
		}
		out[cfg] = rows
	}
	return out, nil
}

// checkAnswer compares an engine result with the oracle's answer.
//
//   - Without LIMIT/OFFSET the rows must be the same multiset.
//   - With them, the engine may return any window of the right size: it
//     must return min(LIMIT, rows after OFFSET) rows, each one of the
//     oracle's unlimited answer.
//   - Under ORDER BY the engine's rows must be in order by the oracle's
//     comparator on the sort keys (ties in any order); with OFFSET/LIMIT
//     too, row i must tie with the oracle's row OFFSET+i.
//
// Float cells compare within 1e-9 relative, because the engine and the
// oracle fold in different orders; every other cell compares exactly.
func checkAnswer(want *Answer, res *exec.Result) error {
	if len(res.Vars) != len(want.Vars) {
		return fmt.Errorf("columns %v, oracle %v", res.Vars, want.Vars)
	}
	// match columns by name: SELECT * orders them by the plan
	perm := make([]int, len(want.Vars))
	for i, v := range want.Vars {
		perm[i] = -1
		for j, rv := range res.Vars {
			if rv == v {
				perm[i] = j
			}
		}
		if perm[i] < 0 {
			return fmt.Errorf("columns %v, oracle %v", res.Vars, want.Vars)
		}
	}
	got := make([][]dict.Value, len(res.Rows))
	for r, row := range res.Rows {
		got[r] = make([]dict.Value, len(perm))
		for i, j := range perm {
			got[r][i] = row[j]
		}
	}
	q := want.Q
	if q.Limit >= 0 || q.Offset > 0 {
		n := max(len(want.Rows)-max(q.Offset, 0), 0)
		if q.Limit >= 0 {
			n = min(n, q.Limit)
		}
		if len(got) != n {
			return fmt.Errorf("%d rows, want %d of the oracle's %d", len(got), n, len(want.Rows))
		}
		used := make([]bool, len(want.Rows))
	next:
		for i, g := range got {
			if len(q.OrderBy) > 0 && want.Before(g, want.Rows[max(q.Offset, 0)+i]) != 0 {
				return fmt.Errorf("row %d %s does not sort where the oracle's row %d does", i, renderRow(g), max(q.Offset, 0)+i)
			}
			for i, w := range want.Rows {
				if !used[i] && sameRow(g, w) {
					used[i] = true
					continue next
				}
			}
			return fmt.Errorf("row %s is not in the oracle's answer", renderRow(g))
		}
	} else {
		if len(got) != len(want.Rows) {
			return fmt.Errorf("%d rows, oracle %d\ngot:    %v\noracle: %v", len(got), len(want.Rows), renderRows(got), renderRows(want.Rows))
		}
		a, b := sortRows(got), sortRows(want.Rows)
		for i := range a {
			if !sameRow(a[i], b[i]) {
				return fmt.Errorf("rows differ\ngot:    %v\noracle: %v", renderRows(a), renderRows(b))
			}
		}
	}
	for i := 1; i < len(got); i++ {
		if want.Before(got[i-1], got[i]) > 0 {
			return fmt.Errorf("rows %d and %d break ORDER BY: %s before %s", i-1, i, renderRow(got[i-1]), renderRow(got[i]))
		}
	}
	return nil
}

// sameRow compares two rows cell by cell, floats within 1e-9 relative.
func sameRow(a, b []dict.Value) bool {
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind {
			return false
		}
		if x.Kind == dict.VFloat {
			if x.Float != y.Float && math.Abs(x.Float-y.Float) > 1e-9*math.Max(math.Abs(x.Float), math.Abs(y.Float)) {
				return false
			}
		} else if x.Lexical() != y.Lexical() {
			return false
		}
	}
	return true
}

// sortRows returns rows sorted cell by cell: by kind, floats by value,
// everything else by lexical form.
func sortRows(rows [][]dict.Value) [][]dict.Value {
	out := append([][]dict.Value(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		for c := range out[i] {
			x, y := out[i][c], out[j][c]
			switch {
			case x.Kind != y.Kind:
				return x.Kind < y.Kind
			case x.Kind == dict.VFloat && x.Float != y.Float:
				return x.Float < y.Float
			case x.Kind != dict.VFloat && x.Lexical() != y.Lexical():
				return x.Lexical() < y.Lexical()
			}
		}
		return false
	})
	return out
}

// newStore builds a harness store: low support so the small graphs grow
// tables, auto-compaction off so the pre-Compact delta state is what
// gets tested.
func newStore() *core.Store {
	return core.NewStore(storeOptions())
}

// storeOptions are newStore's options, for opening saved harness stores.
func storeOptions() core.Options {
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	return opts
}

// autoStore is newStore with auto-compaction enabled at a threshold.
func autoStore(threshold int) *core.Store {
	opts := storeOptions()
	opts.CompactThreshold = threshold
	return core.NewStore(opts)
}

// coreQO is the default query configuration (the paper's fastest).
func coreQO() core.QueryOptions {
	return core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
}

func loadAll(st *core.Store, ts []nt.Triple) {
	for _, t := range ts {
		st.Add(t)
	}
}

// BuildStores materializes the script two ways: mutated through the
// delta layer, and a fresh store fully Organized on the final triples.
func BuildStores(sc *Script) (mut, fresh *core.Store, err error) {
	mut = newStore()
	loadAll(mut, sc.Initial)
	if _, err := mut.Organize(); err != nil {
		return nil, nil, err
	}
	for _, op := range sc.Ops {
		if op.Del {
			mut.Delete(op.T)
		} else {
			mut.Add(op.T)
		}
	}
	fresh = newStore()
	loadAll(fresh, sc.Final())
	if _, err := fresh.Organize(); err != nil {
		return nil, nil, err
	}
	return mut, fresh, nil
}

// CheckEquivalence runs the full differential matrix: every query on
// every store under every plan configuration must answer as the oracle
// does over ts (EvalQuery), and so must its answer served over HTTP in
// every result format (checkWire). Errors name stores by argument
// position.
func CheckEquivalence(ts []nt.Triple, queries []Query, stores ...*core.Store) error {
	o := NewOracle(ts)
	wires := make([]http.Handler, len(stores))
	for i, st := range stores {
		wires[i] = wireHandler(st)
	}
	for _, q := range queries {
		want, err := o.Eval(q.Text)
		if err != nil {
			return fmt.Errorf("oracle: %w\nquery: %s", err, q.Text)
		}
		for i, st := range stores {
			if _, err := EvalQuery(st, q.Text, want); err != nil {
				return fmt.Errorf("store %d: %w", i, err)
			}
			if err := checkWire(wires[i], q.Text, want); err != nil {
				return fmt.Errorf("store %d over HTTP: %w", i, err)
			}
		}
	}
	for i, st := range stores {
		if err := CheckResidence(st, ts, false); err != nil {
			return fmt.Errorf("store %d: %w", i, err)
		}
	}
	return nil
}

// RunDifferential is the whole property: generate a workload from the
// seeds, mutate a store through the delta layer, and require it and a
// fresh re-organized store to answer as the oracle does — before
// Compact, and again after.
func RunDifferential(seed int64, nSubj, nOps int) error {
	sc := GenScript(seed, nSubj, nOps)
	mut, fresh, err := BuildStores(sc)
	if err != nil {
		return err
	}
	if err := checkLiteralOrder("pre-compact", mut, fresh); err != nil {
		return err
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, mut, fresh); err != nil {
		return fmt.Errorf("pre-compact: %w", err)
	}
	if _, err := mut.Compact(); err != nil {
		return err
	}
	if err := CheckResidence(mut, sc.Final(), true); err != nil {
		return fmt.Errorf("post-compact: %w", err)
	}
	if err := checkLiteralOrder("post-compact", mut); err != nil {
		return err
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, mut); err != nil {
		return fmt.Errorf("post-compact: %w", err)
	}
	return nil
}
