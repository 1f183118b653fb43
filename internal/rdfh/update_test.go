package rdfh

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"srdf/internal/core"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

// newOrders takes the first n orders of another generated database and
// renumbers them (and their lineitems) past every existing key, so they
// add new subjects. Every third lineitem gets a discount no base
// lineitem has, inside Q6's range or just above it, on top of the new
// prices and order totals every batch mints.
func newOrders(seed int64, n, keyBase int) ([]Order, []Lineitem) {
	src := Generate(testSF, seed)
	orders := append([]Order(nil), src.Orders[:n]...)
	keep := map[int]int{}
	for i := range orders {
		keep[orders[i].Key] = keyBase + i
		orders[i].Key = keyBase + i
	}
	var lis []Lineitem
	for _, l := range src.Lineitems {
		k, ok := keep[l.OrderKey]
		if !ok {
			continue
		}
		l.OrderKey = k
		switch len(lis) % 6 {
		case 0:
			l.Discount = 0.0625 // new, inside [0.05, 0.07]
		case 2:
			l.Discount = 0.0725 // new, just above 0.07
		}
		lis = append(lis, l)
	}
	return orders, lis
}

// TestQ6PushdownSurvivesWrites runs update cycles that mint literals
// (prices, totals, discounts) and checks after each — in the delta
// state, after Compact, and with new deltas on top — that Q6 keeps its
// three pushed ranges with no Filter node, and answers exactly as the
// reference computation over base plus added lineitems, in every plan
// family.
func TestQ6PushdownSurvivesWrites(t *testing.T) {
	d := testData()
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 5
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	d.Emit(func(tr nt.Triple) { st.Add(tr) })
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	all := &Data{Lineitems: append([]Lineitem(nil), d.Lineitems...)}
	pushed := regexp.MustCompile(`\?(sd|disc|q) in\[`)
	// the one minted discount inside [0.05, 0.07] joins ?disc's range
	discOvf := regexp.MustCompile(`\?disc in\[\S+\]\+ovf1 `)

	check := func(state string) {
		t.Helper()
		ex, err := st.Explain(Q6(), core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(pushed.FindAllString(ex, -1)); n != 3 || strings.Contains(ex, "Filter") || !discOvf.MatchString(ex) {
			t.Fatalf("%s: Q6 should push ranges on ?sd, ?disc and ?q and keep no Filter:\n%s", state, ex)
		}
		want := RefQ6(all)
		for _, cfg := range []core.QueryOptions{
			{Mode: plan.ModeDefault},
			{Mode: plan.ModeRDFScan},
			{Mode: plan.ModeRDFScan, ZoneMaps: true},
		} {
			res, err := st.Query(Q6(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].AsFloat(); !approxEq(got, want) {
				t.Errorf("%s %+v: revenue %v, want %v", state, cfg, got, want)
			}
		}
		if err := st.Dict().CheckOrder(); err != nil {
			t.Fatal(err)
		}
	}

	cycle := func(c int) {
		orders, lis := newOrders(int64(100+c), 40, 1_000_000*(c+1))
		(&Data{Orders: orders, Lineitems: lis}).Emit(func(tr nt.Triple) { st.Add(tr) })
		all.Lineitems = append(all.Lineitems, lis...)
	}
	cycle(0)
	if st.Stats().OverflowLiterals == 0 {
		t.Fatal("the batch minted no literals; the test would not exercise the overflow")
	}
	check("delta")
	cycle(1)
	check("delta x2")
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	cycle(2)
	check("compacted+delta")
}

var (
	joinRe  = regexp.MustCompile(`(?m)^\s*(FKJoin \?\w+|HashJoin on \[[^\]]*\])`)
	sdColRe = regexp.MustCompile(`(?m)^\s+col p=\S+ \?sd in\[\S+\] enc=(\S+) zsel=([\d.]+) skip=(\d+)$`)
	encRe   = regexp.MustCompile(`×(\d+)`)
	deltaRe = regexp.MustCompile(`RDFscan \?li .* delta=(\d+)`)
	// windowRe is a subject window pushed onto a scan's FK column
	windowRe = regexp.MustCompile(`(?m)^\s+col p=\S+ (\?\w+) in\[R`)
)

// TestLayoutAcrossStorageStates pins, in the sealed state, after
// deleting about 1% of the orders and 2% of the lineitems whole and
// compacting, with about 10% new orders in the delta, and after Compact,
// which join operator Q3 and Q5 use at each join (preorder), the subject
// windows their scans carry, and how many lineitem blocks Q6's scan
// reads: the blocks its ?sd zone maps admit, of all blocks, plus the
// delta rows it scans whole. In every state Q3, Q5 and Q6 answer as the
// reference computation over the live rows. Clustered deletes leave the
// sealed layout as it was — segment bytes, every block's encoding, the
// joins and windows — while new rows end the subject window on Q3's
// lineitem scan until the next Organize, and the bloom-filtered hash
// join then beats the FK join on ?o; a change to the layout after
// writes must restate every number it moves.
func TestLayoutAcrossStorageStates(t *testing.T) {
	d := Generate(0.004, 11) // Q5 has answers here
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 5
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	d.Emit(func(tr nt.Triple) { st.Add(tr) })
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	live := *d
	q3Sealed := "FKJoin ?c, FKJoin ?o"
	q5Sealed := "HashJoin on [?s ?n], HashJoin on [?o], HashJoin on [?c], HashJoin on [?n], HashJoin on [?r]"
	q3Tail := "HashJoin on [?o], HashJoin on [?c]"
	q5Tail := "HashJoin on [?o ?s], HashJoin on [?c], HashJoin on [?n], HashJoin on [?n], HashJoin on [?r]"
	want := []struct{ state, q3, q5, windows, q6 string }{
		{"sealed", q3Sealed, q5Sealed, "Q3 ?o, Q5 ?o", "5/24 blocks"},
		{"clustered deletes + Compact", q3Sealed, q5Sealed, "Q3 ?o, Q5 ?o", "5/24 blocks"},
		{"delta", q3Tail, q5Tail, "", "5/24 blocks + 2340 delta rows"},
		{"compacted", q3Tail, q5Tail, "", "8/26 blocks"},
	}
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	analyze := func(q string) string {
		t.Helper()
		ex, err := st.ExplainAnalyze(context.Background(), q, qo)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	for _, w := range want {
		switch w.state {
		case "clustered deletes + Compact":
			before := layoutOf(st)
			var gone []nt.Triple
			live, gone = deleteWhole(&live, 100, 50)
			for _, tr := range gone {
				st.Delete(tr)
			}
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if after := layoutOf(st); after != before {
				t.Errorf("clustered deletes moved the sealed layout:\n%s\nwas:\n%s", after, before)
			}
		case "delta":
			orders, lis := newOrders(9, len(d.Orders)/10, 1_000_000)
			(&Data{Orders: orders, Lineitems: lis}).Emit(func(tr nt.Triple) { st.Add(tr) })
			live.Orders = append(live.Orders[:len(live.Orders):len(live.Orders)], orders...)
			live.Lineitems = append(live.Lineitems[:len(live.Lineitems):len(live.Lineitems)], lis...)
		case "compacted":
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		checkAnswers(t, w.state, st, &live)
		var windows []string
		for _, c := range []struct{ name, q, want string }{{"Q3", Q3(), w.q3}, {"Q5", Q5(), w.q5}} {
			ex := analyze(c.q)
			var joins []string
			for _, m := range joinRe.FindAllStringSubmatch(ex, -1) {
				joins = append(joins, m[1])
			}
			if got := strings.Join(joins, ", "); got != c.want {
				t.Errorf("%s %s joins: %s, want %s\n%s", w.state, c.name, got, c.want, ex)
			}
			for _, m := range windowRe.FindAllStringSubmatch(ex, -1) {
				windows = append(windows, c.name+" "+m[1])
			}
		}
		if got := strings.Join(windows, ", "); got != w.windows {
			t.Errorf("%s windows: %s, want %s", w.state, got, w.windows)
		}
		ex := analyze(Q6())
		m := sdColRe.FindStringSubmatch(ex)
		if m == nil {
			t.Fatalf("%s: no ?sd column line in Q6's scan:\n%s", w.state, ex)
		}
		blocks := 0
		for _, n := range encRe.FindAllStringSubmatch(m[1], -1) {
			k, _ := strconv.Atoi(n[1])
			blocks += k
		}
		zsel, _ := strconv.ParseFloat(m[2], 64)
		got := fmt.Sprintf("%d/%d blocks", int(math.Round(zsel*float64(blocks))), blocks)
		if dm := deltaRe.FindStringSubmatch(ex); dm != nil {
			got += " + " + dm[1] + " delta rows"
		}
		if got != w.q6 {
			t.Errorf("%s Q6 reads %s, want %s\n%s", w.state, got, w.q6, ex)
		}
	}
}

// layoutOf renders the sealed layout of every table: the pool's segment
// bytes and each column's per-block encodings.
func layoutOf(st *core.Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "segment bytes %d\n", st.Stats().Pool.SegmentBytes)
	for _, tab := range st.Catalog().Tables {
		for _, c := range tab.Cols {
			fmt.Fprintf(&b, "%s:", c.Data.Name)
			for blk := 0; blk < c.Data.NumBlocks(); blk++ {
				fmt.Fprintf(&b, " %v", c.Data.BlockEncoding(blk))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// deleteWhole drops every orderEvery-th order and every liEvery-th
// lineitem of d, returning the rest and the triples of the dropped
// subjects.
func deleteWhole(d *Data, orderEvery, liEvery int) (Data, []nt.Triple) {
	rest := *d
	gone := map[string]bool{}
	rest.Orders = nil
	for i, o := range d.Orders {
		if i%orderEvery == orderEvery-1 {
			gone[OrderIRI(o.Key)] = true
			continue
		}
		rest.Orders = append(rest.Orders, o)
	}
	rest.Lineitems = nil
	for i, l := range d.Lineitems {
		if i%liEvery == liEvery-1 {
			gone[LineitemIRI(l.OrderKey, l.LineNumber)] = true
			continue
		}
		rest.Lineitems = append(rest.Lineitems, l)
	}
	var ts []nt.Triple
	d.Emit(func(tr nt.Triple) {
		if gone[tr.S.Value] {
			ts = append(ts, tr)
		}
	})
	return rest, ts
}

// checkAnswers compares Q3, Q5 and Q6 with the reference computations
// over d.
func checkAnswers(t *testing.T, state string, st *core.Store, d *Data) {
	t.Helper()
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	res, err := st.Query(Q3(), qo)
	if err != nil {
		t.Fatal(err)
	}
	want3 := RefQ3(d)
	if len(want3) == 0 || res.Len() != len(want3) {
		t.Fatalf("%s Q3: %d rows, want %d (non-zero)", state, res.Len(), len(want3))
	}
	for i, w := range want3 {
		if res.Rows[i][0].Lexical() != OrderIRI(w.OrderKey) || !approxEq(res.Rows[i][1].AsFloat(), w.Revenue) {
			t.Errorf("%s Q3 row %d: %s %v, want %s %v", state, i, res.Rows[i][0].Lexical(), res.Rows[i][1], OrderIRI(w.OrderKey), w.Revenue)
		}
	}
	res, err = st.Query(Q5(), qo)
	if err != nil {
		t.Fatal(err)
	}
	want5 := RefQ5(d)
	if len(want5) == 0 || res.Len() != len(want5) {
		t.Fatalf("%s Q5: %d rows, want %d (non-zero)", state, res.Len(), len(want5))
	}
	for i, w := range want5 {
		if res.Rows[i][0].Lexical() != w.Nation || !approxEq(res.Rows[i][1].AsFloat(), w.Revenue) {
			t.Errorf("%s Q5 row %d: %s %v, want %s %v", state, i, res.Rows[i][0].Lexical(), res.Rows[i][1], w.Nation, w.Revenue)
		}
	}
	res, err = st.Query(Q6(), qo)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].AsFloat(), RefQ6(d); !approxEq(got, want) {
		t.Errorf("%s Q6: revenue %v, want %v", state, got, want)
	}
}
