package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/relational"
	"srdf/internal/sparql"
)

// benchHeadFixture builds a multi-block star scan for head benchmarks.
func benchHeadFixture(b *testing.B, n int) (*fixture, Star) {
	f := newFixture(b, bigSrc(n), 3)
	return f, bigStar(f)
}

// BenchmarkStream_AggregateHead measures the streaming hash aggregate
// over a multi-block star scan.
func BenchmarkStream_AggregateHead(b *testing.B) {
	f, star := benchHeadFixture(b, 40000)
	tab := bigTable(b, f)
	q, err := sparql.Parse(`PREFIX e: <http://b/>
SELECT ?vb (COUNT(*) AS ?n) (SUM(?va) AS ?sum) (AVG(?va) AS ?avg)
WHERE { ?s e:a ?va . ?s e:b ?vb . } GROUP BY ?vb`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStream_TopKOrderBy measures the bounded top-K heap the
// streaming head switches to under ORDER BY + LIMIT.
func BenchmarkStream_TopKOrderBy(b *testing.B) {
	f, star := benchHeadFixture(b, 40000)
	tab := bigTable(b, f)
	q, err := sparql.Parse(`PREFIX e: <http://b/>
SELECT ?s ?va WHERE { ?s e:a ?va . ?s e:b ?vb . } ORDER BY DESC(?va) ?s LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStream_DistinctHead measures the streaming DISTINCT.
func BenchmarkStream_DistinctHead(b *testing.B) {
	f, star := benchHeadFixture(b, 40000)
	tab := bigTable(b, f)
	q, err := sparql.Parse(`PREFIX e: <http://b/>
SELECT DISTINCT ?vb WHERE { ?s e:a ?va . ?s e:b ?vb . }`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HeadStream(f.ctx, NewScanOp(tab, star, false, 0, -1), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// q1Src is a lineitem-shaped table: two low-cardinality flag columns,
// an integer quantity, three decimals and a ship date.
func q1Src(n int) string {
	var b strings.Builder
	b.WriteString("@prefix l: <http://l/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "l:li%06d l:rf %q ; l:ls %q ; l:q %d ; l:ep %d.%02d ; l:disc 0.%02d ; l:tax 0.%02d ; "+
			"l:sd \"%04d-%02d-%02d\"^^<http://www.w3.org/2001/XMLSchema#date> .\n",
			i, string("ANR"[i%3]), string("OF"[i/7%2]), 1+i%50, 900+i%9000, i%100, i%11, i%9,
			1992+i%7, 1+i%12, 1+i%28)
	}
	return b.String()
}

// BenchmarkStream_Q1Aggregate runs RDF-H Q1's shape — a seven-property
// star, a date FILTER, eight SUM/AVG/COUNT aggregates over arithmetic
// expressions, grouped by two flag columns — through the streaming head
// over a multi-block table.
func BenchmarkStream_Q1Aggregate(b *testing.B) {
	f := newFixture(b, q1Src(30000), 3)
	star := Star{SubjVar: "li"}
	for _, p := range []string{"rf", "ls", "q", "ep", "disc", "tax", "sd"} {
		star.Props = append(star.Props, StarProp{Pred: f.pred("http://l/" + p), ObjVar: p})
	}
	var tab *relational.Table
	for _, t := range f.cat.Visible() {
		if t.Col(f.pred("http://l/sd")) != nil {
			tab = t
		}
	}
	if tab == nil || tab.Count < 8*colstore.BlockRows {
		b.Fatal("no multi-block lineitem table")
	}
	q, err := sparql.Parse(`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?rf ?ls (SUM(?q) AS ?sum_qty) (SUM(?ep) AS ?sum_base)
       (SUM(?ep * (1 - ?disc)) AS ?sum_disc)
       (SUM(?ep * (1 - ?disc) * (1 + ?tax)) AS ?sum_charge)
       (AVG(?q) AS ?avg_qty) (AVG(?ep) AS ?avg_price)
       (AVG(?disc) AS ?avg_disc) (COUNT(*) AS ?n)
WHERE {
  ?li <http://l/rf> ?rf . ?li <http://l/ls> ?ls . ?li <http://l/q> ?q .
  ?li <http://l/ep> ?ep . ?li <http://l/disc> ?disc . ?li <http://l/tax> ?tax .
  ?li <http://l/sd> ?sd .
  FILTER (?sd <= "1998-09-02"^^xsd:date)
}
GROUP BY ?rf ?ls ORDER BY ?rf ?ls`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := f.ctx.WithQueryContext(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := HeadStream(ctx, NewScanOp(tab, star, false, 0, -1), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatalf("%d groups, want 6", len(res.Rows))
		}
	}
}

// BenchmarkStream_Q6Window runs RDF-H Q6's shape over the Q1 table: a
// four-property star whose every property carries a pushed-down range —
// the ship date a selective one (about a sixth of the rows), discount,
// quantity and price ranges that every block's zone lies inside — folded
// into one SUM. Only the date kernel should run per block; the other
// three are skipped or refine its survivors.
func BenchmarkStream_Q6Window(b *testing.B) {
	f := newFixture(b, q1Src(30000), 3)
	var tab *relational.Table
	for _, t := range f.cat.Visible() {
		if t.Col(f.pred("http://l/sd")) != nil {
			tab = t
		}
	}
	if tab == nil || tab.Count < 8*colstore.BlockRows {
		b.Fatal("no multi-block lineitem table")
	}
	star := Star{SubjVar: "li"}
	for _, p := range []string{"sd", "disc", "q", "ep"} {
		pred := f.pred("http://l/" + p)
		lo, hi, _ := tab.Col(pred).Data.Zones().Bounds()
		if p == "sd" { // the middle sixth of the dates
			vals := tab.Col(pred).Data.Values()
			slices.Sort(vals)
			lo, hi = vals[len(vals)*5/12], vals[len(vals)*7/12]
		}
		star.Props = append(star.Props, StarProp{Pred: pred, ObjVar: p, Lo: lo, Hi: hi, HasRange: true})
	}
	q, err := sparql.Parse(`SELECT (SUM(?ep * ?disc) AS ?revenue) WHERE {
  ?li <http://l/sd> ?sd . ?li <http://l/disc> ?disc . ?li <http://l/q> ?q . ?li <http://l/ep> ?ep . }`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := f.ctx.WithQueryContext(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := HeadStream(ctx, NewScanOp(tab, star, true, 0, -1), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Float == 0 {
			b.Fatalf("revenue = %v", res.Rows)
		}
	}
}
