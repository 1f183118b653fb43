package harness

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/nt"
)

// The minting leg. Range FILTERs are pushed into scans as literal OID
// ranges: an interval over the literals Organize put in value order,
// plus the overflow literals minted since, matched through a value
// index. These scripts mint literals after Organize exactly where that
// split can go wrong — inside a query's range, outside it, on its bounds
// (strict and non-strict), as distinct terms equal in value to a bound
// ("05" and "5" as integers, "5.0" and "5.00" as decimals), next to a
// bound in a neighbouring type ("5" and "5.0"), and as dates and strings.

// Predicates of the minting universe. Class A subjects carry a numeric
// value, a date (A's sort key) and a string; class B subjects a numeric
// value and a reference to an A subject (a foreign key).
const (
	mintNum  = NS + "mnum"
	mintDate = NS + "mdate"
	mintStr  = NS + "mstr"
	mintRef  = NS + "mref"
)

func mintSubj(i int) string { return fmt.Sprintf("%sx%d", NS, i) }

// mintBounds are the FILTER constants of one minting script.
type mintBounds struct {
	lo, hi   int // even, so the initial graph holds values on them
	dlo, dhi int // day-of-1995 offsets, on the initial date grid
	slo, shi int // string bounds "m<slo>", "m<shi>"
}

func mintDay(off int) string {
	return dict.FormatDate(dictDate1995 + int64(off))
}

var dictDate1995, _ = dict.ParseDate("1995-01-01")

// GenMintScript builds a deterministic minting workload: nSubj initial
// subjects over two classes whose literals sit on coarse grids (even
// integers, quarter decimals, every fourth day, even strings), then nOps
// updates whose new literals fall between and on those grid points
// around the query bounds, and queries with range FILTERs on every
// minting predicate.
func GenMintScript(seed int64, nSubj, nOps int) *Script {
	rnd := rand.New(rand.NewSource(seed))
	sc := &Script{nSubj: nSubj}
	b := mintBounds{lo: 2 * (2 + rnd.Intn(8)), dlo: 4 * (5 + rnd.Intn(20)), slo: 2 * (1 + rnd.Intn(4))}
	b.hi = b.lo + 2*(3+rnd.Intn(6))
	b.dhi = b.dlo + 4*(5+rnd.Intn(20))
	b.shi = b.slo + 2*(1+rnd.Intn(4))

	initNum := func() dict.Term {
		if rnd.Intn(4) == 0 {
			return dict.TypedLit(fmt.Sprintf("%d.25", rnd.Intn(20)), dict.XSDDec)
		}
		return dict.IntLit(int64(2 * rnd.Intn(20)))
	}
	initDate := func() dict.Term { return dict.DateLit(mintDay(4 * rnd.Intn(60))) }
	initStr := func() dict.Term { return dict.StringLit(fmt.Sprintf("m%d", 2*rnd.Intn(10))) }

	// Minted values: the cases above, each drawn with equal weight.
	mintNumTerm := func() dict.Term {
		switch rnd.Intn(10) {
		case 0:
			return dict.TypedLit(fmt.Sprintf("0%d", b.lo), dict.XSDInt) // == lo, new term
		case 1:
			return dict.TypedLit(fmt.Sprintf("%d.0", b.lo), dict.XSDDec) // just above int lo
		case 2:
			return dict.TypedLit(fmt.Sprintf("%d.00", b.hi), dict.XSDDec) // == hi as decimal
		case 3:
			return dict.TypedLit(fmt.Sprintf("0%d", b.hi), dict.XSDInt) // == hi, new term
		case 4:
			return dict.IntLit(int64(b.lo + 1 + 2*rnd.Intn((b.hi-b.lo)/2))) // odd: inside
		case 5:
			return dict.TypedLit(fmt.Sprintf("%d.75", b.lo+rnd.Intn(b.hi-b.lo)), dict.XSDDec) // inside
		case 6:
			return dict.IntLit(int64(b.hi + 1 + rnd.Intn(30))) // above
		case 7:
			return dict.IntLit(int64(-1 - rnd.Intn(5))) // below everything
		case 8:
			return dict.TypedLit(fmt.Sprintf("%d.5", b.lo-1), dict.XSDDec) // just below lo
		default:
			return initNum() // existing value: no new literal
		}
	}
	mintDateTerm := func() dict.Term {
		switch rnd.Intn(6) {
		case 0:
			return dict.DateLit(mintDay(b.dlo)) // on the bound (existing)
		case 1:
			return dict.DateLit(mintDay(b.dhi)) // on the strict bound
		case 2:
			return dict.DateLit(mintDay(b.dlo + 1 + rnd.Intn(b.dhi-b.dlo-1))) // inside, mostly new
		case 3:
			return dict.DateLit(mintDay(b.dlo - 1 - rnd.Intn(3))) // just below
		case 4:
			return dict.DateLit(mintDay(b.dhi + 1 + rnd.Intn(400))) // above
		default:
			return initDate()
		}
	}
	mintStrTerm := func() dict.Term {
		switch rnd.Intn(5) {
		case 0:
			return dict.StringLit(fmt.Sprintf("m%da", b.slo)) // just above lo
		case 1:
			return dict.StringLit(fmt.Sprintf("m%d", b.slo+1)) // inside
		case 2:
			return dict.StringLit(fmt.Sprintf("m%d!", b.shi)) // just above hi
		case 3:
			return dict.StringLit("z" + fmt.Sprint(rnd.Intn(9))) // above everything
		default:
			return initStr()
		}
	}

	nA := nSubj * 2 / 3
	add := func(ts *[]nt.Triple, s, p string, o dict.Term) {
		*ts = append(*ts, nt.Triple{S: iri(s), P: iri(p), O: o})
	}
	classA := func(ts *[]nt.Triple, s string, num, date, str func() dict.Term) {
		add(ts, s, mintNum, num())
		add(ts, s, mintDate, date())
		if rnd.Float64() < 0.9 {
			add(ts, s, mintStr, str())
		}
	}
	classB := func(ts *[]nt.Triple, s string, num func() dict.Term) {
		add(ts, s, mintNum, num())
		add(ts, s, mintRef, iri(mintSubj(rnd.Intn(nA))))
	}
	for i := 0; i < nSubj; i++ {
		if i < nA {
			classA(&sc.Initial, mintSubj(i), initNum, initDate, initStr)
		} else {
			classB(&sc.Initial, mintSubj(i), initNum)
		}
	}

	live := append([]nt.Triple(nil), dedup(sc.Initial)...)
	next := nSubj
	for len(sc.Ops) < nOps && len(live) > 0 {
		switch r := rnd.Float64(); {
		case r < 0.35: // new subject, minted values
			var ts []nt.Triple
			s := mintSubj(next)
			next++
			if rnd.Intn(3) > 0 {
				classA(&ts, s, mintNumTerm, mintDateTerm, mintStrTerm)
			} else {
				classB(&ts, s, mintNumTerm)
			}
			for _, t := range ts {
				sc.Ops = append(sc.Ops, Op{T: t})
			}
			live = append(live, ts...)
		case r < 0.7: // replace an existing value with a minted one
			k := rnd.Intn(len(live))
			old := live[k]
			var nw dict.Term
			switch old.P.Value {
			case mintNum:
				nw = mintNumTerm()
			case mintDate:
				nw = mintDateTerm()
			case mintStr:
				nw = mintStrTerm()
			default:
				continue
			}
			t := nt.Triple{S: old.S, P: old.P, O: nw}
			sc.Ops = append(sc.Ops, Op{Del: true, T: old}, Op{T: t})
			live[k] = t
		case r < 0.8: // a second, minted value: a multi-valued property
			k := rnd.Intn(len(live))
			if live[k].P.Value != mintNum {
				continue
			}
			t := nt.Triple{S: live[k].S, P: live[k].P, O: mintNumTerm()}
			sc.Ops = append(sc.Ops, Op{T: t})
			live = append(live, t)
		default: // delete
			k := rnd.Intn(len(live))
			sc.Ops = append(sc.Ops, Op{Del: true, T: live[k]})
			live = append(live[:k], live[k+1:]...)
		}
	}
	sc.mint = b
	sc.genMintQueries(b)
	return sc
}

// AppendFreshSubjects extends a minting script with n new class-A
// subjects every value of which is a literal the initial graph lacks —
// inside the numeric, date and string ranges or above them. Compacted,
// they fill whole blocks holding only overflow literals, which the
// ordered-prefix part of a range misses entirely: such a block is
// skipped only when no overflow member of the range lies in its zone.
func (sc *Script) AppendFreshSubjects(seed int64, n int) {
	rnd := rand.New(rand.NewSource(seed))
	b := sc.mint
	num := func() dict.Term {
		switch rnd.Intn(3) {
		case 0:
			return dict.IntLit(int64(b.lo + 1 + 2*rnd.Intn((b.hi-b.lo)/2)))
		case 1:
			return dict.TypedLit(fmt.Sprintf("%d.75", b.lo+rnd.Intn(b.hi-b.lo)), dict.XSDDec)
		default:
			return dict.IntLit(int64(41 + rnd.Intn(200)))
		}
	}
	date := func() dict.Term { return dict.DateLit(mintDay(b.dlo + 1 + 2*rnd.Intn(200))) }
	str := func() dict.Term {
		if rnd.Intn(2) == 0 {
			return dict.StringLit(fmt.Sprintf("m%da%d", b.slo, rnd.Intn(50)))
		}
		return dict.StringLit(fmt.Sprintf("z%d", rnd.Intn(50)))
	}
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("%sfresh%d", NS, i))
		for _, po := range []struct {
			p string
			o dict.Term
		}{{mintNum, num()}, {mintDate, date()}, {mintStr, str()}} {
			sc.Ops = append(sc.Ops, Op{T: nt.Triple{S: s, P: iri(po.p), O: po.o}})
		}
	}
}

// genMintQueries adds range FILTERs on every minting predicate: two-
// sided non-strict and strict, one-sided, equality, a two-property star,
// an aggregate, and a foreign-key join whose range sits on the
// referenced class's sort key (the zone-map FK pushdown).
func (sc *Script) genMintQueries(b mintBounds) {
	add := func(format string, args ...any) {
		sc.Queries = append(sc.Queries, Query{Text: fmt.Sprintf(format, args...), CrossStore: true})
	}
	const date = "<http://www.w3.org/2001/XMLSchema#date>"
	dlo, dhi := mintDay(b.dlo), mintDay(b.dhi)
	add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v >= %d && ?v <= %d) }", mintNum, b.lo, b.hi)
	add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v > %d && ?v < %d) }", mintNum, b.lo, b.hi)
	add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v = %d) }", mintNum, b.lo)
	add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v >= %d.0) }", mintNum, b.hi)
	add("SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER (?v < %d) }", mintNum, b.lo)
	add("SELECT ?s ?d WHERE { ?s <%s> ?d . FILTER (?d >= \"%s\"^^%s && ?d < \"%s\"^^%s) }", mintDate, dlo, date, dhi, date)
	add("SELECT ?s ?d WHERE { ?s <%s> ?d . FILTER (?d > \"%s\"^^%s) }", mintDate, dhi, date)
	add("SELECT ?s ?d WHERE { ?s <%s> ?d . FILTER (?d = \"%s\"^^%s) }", mintDate, dlo, date)
	add("SELECT ?s ?t WHERE { ?s <%s> ?t . FILTER (?t >= \"m%d\" && ?t < \"m%d\") }", mintStr, b.slo, b.shi)
	add("SELECT ?s ?v ?d WHERE { ?s <%s> ?v . ?s <%s> ?d . FILTER (?v <= %d && ?d >= \"%s\"^^%s) }",
		mintNum, mintDate, b.hi, dlo, date)
	add("SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?sum) (MIN(?v) AS ?min) WHERE { ?s <%s> ?v . FILTER (?v > %d) }",
		mintNum, b.lo)
	add("SELECT ?x ?v ?d WHERE { ?x <%s> ?t . ?x <%s> ?v . ?t <%s> ?d . FILTER (?d >= \"%s\"^^%s && ?d <= \"%s\"^^%s) }",
		mintRef, mintNum, mintDate, dlo, date, dhi, date)
}

// checkLiteralOrder verifies the dictionary's literal-order invariant
// on every store.
func checkLiteralOrder(label string, stores ...*core.Store) error {
	for _, st := range stores {
		if err := st.Dict().CheckOrder(); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
	}
	return nil
}

// RunMinting runs a minting script through every storage state — the
// delta layer, compacted, and reopened from a snapshot with the script
// replayed from the WAL (replay mints the overflow literals afresh) —
// beside a fresh store organized on the final triples, requiring every
// state to answer as the oracle does in every plan configuration, and
// the literal-order invariant after each state.
func RunMinting(seed int64, nSubj, nOps int, dir string) error {
	sc := GenMintScript(seed, nSubj, nOps)
	final := sc.Final()
	mut, fresh, err := BuildStores(sc)
	if err != nil {
		return err
	}
	if err := checkLiteralOrder("delta", mut, fresh); err != nil {
		return err
	}
	if err := CheckEquivalence(final, sc.Queries, mut, fresh); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if _, err := mut.Compact(); err != nil {
		return err
	}
	if err := CheckResidence(mut, final, true); err != nil {
		return fmt.Errorf("compacted: %w", err)
	}
	if err := checkLiteralOrder("compacted", mut); err != nil {
		return err
	}
	if err := CheckEquivalence(final, sc.Queries, mut); err != nil {
		return fmt.Errorf("compacted: %w", err)
	}

	snap, wal := filepath.Join(dir, "mint.srdf"), filepath.Join(dir, "mint.wal")
	st := core.NewStore(persistOpts(wal))
	loadAll(st, sc.Initial)
	if _, err := st.Organize(); err != nil {
		return err
	}
	if err := st.Save(snap); err != nil {
		return err
	}
	for _, op := range sc.Ops {
		if op.Del {
			st.Delete(op.T)
		} else {
			st.Add(op.T)
		}
	}
	if err := st.Close(); err != nil { // sync the log; the snapshot predates the script
		return err
	}
	rec, err := core.OpenStore(snap, persistOpts(wal))
	if err != nil {
		return err
	}
	defer rec.Close()
	if err := checkLiteralOrder("replayed", rec); err != nil {
		return err
	}
	if err := CheckEquivalence(final, sc.Queries, rec); err != nil {
		return fmt.Errorf("replayed: %w", err)
	}
	if _, err := rec.Compact(); err != nil {
		return err
	}
	if err := checkLiteralOrder("replayed+compacted", rec); err != nil {
		return err
	}
	if err := CheckEquivalence(final, sc.Queries, rec); err != nil {
		return fmt.Errorf("replayed+compacted: %w", err)
	}
	return nil
}
