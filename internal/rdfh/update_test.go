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
	joinRe  = regexp.MustCompile(`(?m)^\s*(RDFjoin \?\w+|MergeJoin \?\w+|HashJoin on \[[^\]]*\])`)
	sdColRe = regexp.MustCompile(`(?m)^\s+col p=\S+ \?sd in\[\S+\] enc=(\S+) zsel=([\d.]+) skip=(\d+)$`)
	encRe   = regexp.MustCompile(`×(\d+)`)
	deltaRe = regexp.MustCompile(`RDFscan \?li .* delta=(\d+)`)
)

// TestLayoutAcrossStorageStates pins, in the sealed state, with about
// 10% new orders in the delta, and after Compact, which join operator
// Q3 and Q5 use at each join (preorder) and how many lineitem blocks
// Q6's scan reads: the blocks its ?sd zone maps admit, of all blocks,
// plus the delta rows it scans whole. The numbers record today's
// layout — a write or Compact turns Q3's MergeJoin on ?o into a
// HashJoin until the next Organize — so a change to the layout after
// writes must restate every one it moves.
func TestLayoutAcrossStorageStates(t *testing.T) {
	d := testData()
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 5
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	d.Emit(func(tr nt.Triple) { st.Add(tr) })
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	q5Joins := "HashJoin on [?o ?s], HashJoin on [?c], HashJoin on [?n], MergeJoin ?r, MergeJoin ?n"
	want := []struct{ state, q3, q5, q6 string }{
		{"sealed", "MergeJoin ?c, MergeJoin ?o", q5Joins, "3/12 blocks"},
		{"delta", "HashJoin on [?o], MergeJoin ?c", q5Joins, "3/12 blocks + 1173 delta rows"},
		{"compacted", "HashJoin on [?o], MergeJoin ?c", q5Joins, "5/13 blocks"},
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
		case "delta":
			orders, lis := newOrders(9, len(d.Orders)/10, 1_000_000)
			(&Data{Orders: orders, Lineitems: lis}).Emit(func(tr nt.Triple) { st.Add(tr) })
		case "compacted":
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct{ name, q, want string }{{"Q3", Q3(), w.q3}, {"Q5", Q5(), w.q5}} {
			ex := analyze(c.q)
			var joins []string
			for _, m := range joinRe.FindAllStringSubmatch(ex, -1) {
				joins = append(joins, m[1])
			}
			if got := strings.Join(joins, ", "); got != c.want {
				t.Errorf("%s %s joins: %s, want %s\n%s", w.state, c.name, got, c.want, ex)
			}
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
