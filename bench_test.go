// Benchmarks regenerating the paper's evaluation:
//
//   - BenchmarkTableI_* — the full Table I matrix (RDF-H Q3/Q6 under
//     plan scheme × physical order × zone maps, cold and hot). Total
//     time is wall + simulated I/O; per-op page misses and simulated I/O
//     are reported as custom metrics.
//   - BenchmarkFig3_* — subject clustering locality: pages touched by a
//     selective star before and after clustering.
//   - BenchmarkFig4a_* — star width sweep: k-property stars under the
//     Default (k-1 self-joins) and RDFscan (0 joins) families.
//   - BenchmarkFig4b_* — the star + FK-hop shape evaluated with hash
//     joins vs RDFjoin.
//   - BenchmarkAblation_* — design-choice ablations: zone maps alone,
//     sub-ordering alone, generalization on/off.
//   - BenchmarkCSDetection / BenchmarkLoad — pipeline throughput.
//
// Scale factors are deliberately small so `go test -bench=.` finishes in
// minutes; run cmd/rdfhbench with a larger -sf for the headline numbers.
package srdf_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/rdfh"
	"srdf/internal/triples"
)

const benchSF = 0.01

var (
	harnessOnce sync.Once
	harness     *rdfh.Harness
	harnessErr  error
)

func getHarness(b testing.TB) *rdfh.Harness {
	harnessOnce.Do(func() {
		harness, harnessErr = rdfh.NewHarness(benchSF, 42)
	})
	if harnessErr != nil {
		b.Fatal(harnessErr)
	}
	return harness
}

// benchCell runs one Table I cell as a Go benchmark, reporting simulated
// I/O and page misses alongside wall time.
func benchCell(b *testing.B, cfgIdx int, query string, cold bool) {
	h := getHarness(b)
	cfg := rdfh.TableIConfigs()[cfgIdx]
	st := h.Clustered
	if !cfg.Clustered {
		st = h.Parse
	}
	qo := core.QueryOptions{Mode: cfg.Mode, ZoneMaps: cfg.ZoneMaps}
	qtext := rdfh.Queries()[query]
	// warm once for hot runs
	if !cold {
		if _, err := st.Query(qtext, qo); err != nil {
			b.Fatal(err)
		}
	}
	st.Pool().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			st.Pool().ResetCold()
		}
		if _, err := st.Query(qtext, qo); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ps := st.Pool().Stats()
	b.ReportMetric(float64(ps.SimIO.Microseconds())/float64(b.N), "simIO-us/op")
	b.ReportMetric(float64(ps.Misses)/float64(b.N), "pages/op")
}

// --- Table I: 6 configurations x {Q3,Q6} x {cold,hot} ---

func BenchmarkTableI_Default_ParseOrder_Q3_Cold(b *testing.B)  { benchCell(b, 0, "Q3", true) }
func BenchmarkTableI_Default_ParseOrder_Q3_Hot(b *testing.B)   { benchCell(b, 0, "Q3", false) }
func BenchmarkTableI_Default_ParseOrder_Q6_Cold(b *testing.B)  { benchCell(b, 0, "Q6", true) }
func BenchmarkTableI_Default_ParseOrder_Q6_Hot(b *testing.B)   { benchCell(b, 0, "Q6", false) }
func BenchmarkTableI_Default_Clustered_Q3_Cold(b *testing.B)   { benchCell(b, 1, "Q3", true) }
func BenchmarkTableI_Default_Clustered_Q3_Hot(b *testing.B)    { benchCell(b, 1, "Q3", false) }
func BenchmarkTableI_Default_Clustered_Q6_Cold(b *testing.B)   { benchCell(b, 1, "Q6", true) }
func BenchmarkTableI_Default_Clustered_Q6_Hot(b *testing.B)    { benchCell(b, 1, "Q6", false) }
func BenchmarkTableI_Default_ClusteredZM_Q3_Cold(b *testing.B) { benchCell(b, 2, "Q3", true) }
func BenchmarkTableI_Default_ClusteredZM_Q3_Hot(b *testing.B)  { benchCell(b, 2, "Q3", false) }
func BenchmarkTableI_Default_ClusteredZM_Q6_Cold(b *testing.B) { benchCell(b, 2, "Q6", true) }
func BenchmarkTableI_Default_ClusteredZM_Q6_Hot(b *testing.B)  { benchCell(b, 2, "Q6", false) }
func BenchmarkTableI_RDFscan_ParseOrder_Q3_Cold(b *testing.B)  { benchCell(b, 3, "Q3", true) }
func BenchmarkTableI_RDFscan_ParseOrder_Q3_Hot(b *testing.B)   { benchCell(b, 3, "Q3", false) }
func BenchmarkTableI_RDFscan_ParseOrder_Q6_Cold(b *testing.B)  { benchCell(b, 3, "Q6", true) }
func BenchmarkTableI_RDFscan_ParseOrder_Q6_Hot(b *testing.B)   { benchCell(b, 3, "Q6", false) }
func BenchmarkTableI_RDFscan_Clustered_Q3_Cold(b *testing.B)   { benchCell(b, 4, "Q3", true) }
func BenchmarkTableI_RDFscan_Clustered_Q3_Hot(b *testing.B)    { benchCell(b, 4, "Q3", false) }
func BenchmarkTableI_RDFscan_Clustered_Q6_Cold(b *testing.B)   { benchCell(b, 4, "Q6", true) }
func BenchmarkTableI_RDFscan_Clustered_Q6_Hot(b *testing.B)    { benchCell(b, 4, "Q6", false) }
func BenchmarkTableI_RDFscan_ClusteredZM_Q3_Cold(b *testing.B) { benchCell(b, 5, "Q3", true) }
func BenchmarkTableI_RDFscan_ClusteredZM_Q3_Hot(b *testing.B)  { benchCell(b, 5, "Q3", false) }
func BenchmarkTableI_RDFscan_ClusteredZM_Q6_Cold(b *testing.B) { benchCell(b, 5, "Q6", true) }
func BenchmarkTableI_RDFscan_ClusteredZM_Q6_Hot(b *testing.B)  { benchCell(b, 5, "Q6", false) }

// extra queries beyond the paper's pair
func BenchmarkTableI_RDFscan_ClusteredZM_Q1_Hot(b *testing.B) { benchCell(b, 5, "Q1", false) }
func BenchmarkTableI_Default_ParseOrder_Q1_Hot(b *testing.B)  { benchCell(b, 0, "Q1", false) }
func BenchmarkTableI_RDFscan_ClusteredZM_Q5_Hot(b *testing.B) { benchCell(b, 5, "Q5", false) }
func BenchmarkTableI_Default_ParseOrder_Q5_Hot(b *testing.B)  { benchCell(b, 0, "Q5", false) }

// --- Fig 3: clustering locality ---

// BenchmarkFig3_ClusterLocality measures the pages a selective
// one-month Q6-style probe touches on the parse-order vs clustered
// store; the reduction is subject clustering's locality payoff.
func BenchmarkFig3_ClusterLocality(b *testing.B) {
	h := getHarness(b)
	q := `
PREFIX rdfh: <http://example.com/rdfh/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT (SUM(?ep) AS ?s)
WHERE {
  ?li rdfh:lineitem_shipdate ?sd .
  ?li rdfh:lineitem_extendedprice ?ep .
  FILTER (?sd >= "1994-01-01"^^xsd:date && ?sd < "1994-02-01"^^xsd:date)
}`
	for _, sub := range []struct {
		name string
		st   *core.Store
		qo   core.QueryOptions
	}{
		{"ParseOrder", h.Parse, core.QueryOptions{Mode: plan.ModeRDFScan}},
		{"Clustered", h.Clustered, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			sub.st.Pool().ResetStats()
			for i := 0; i < b.N; i++ {
				sub.st.Pool().ResetCold()
				if _, err := sub.st.Query(q, sub.qo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sub.st.Pool().Stats().Misses)/float64(b.N), "pages/op")
		})
	}
}

// --- Fig 4a: star width sweep ---

func starWidthStore(b *testing.B, k int) *core.Store {
	var src strings.Builder
	src.WriteString("@prefix e: <http://w/> .\n")
	for s := 0; s < 4000; s++ {
		fmt.Fprintf(&src, "e:s%d e:p0 %d", s, s%97)
		for p := 1; p < k; p++ {
			fmt.Fprintf(&src, " ; e:p%d %d", p, (s*p)%89)
		}
		src.WriteString(" .\n")
	}
	opts := core.DefaultOptions()
	st := core.NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(src.String())); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	return st
}

func starQuery(k int) string {
	var q strings.Builder
	q.WriteString("PREFIX e: <http://w/>\nSELECT (COUNT(*) AS ?n) WHERE {\n")
	for p := 0; p < k; p++ {
		fmt.Fprintf(&q, "  ?s e:p%d ?o%d .\n", p, p)
	}
	q.WriteString("  FILTER (?o0 = 13)\n}")
	return q.String()
}

func BenchmarkFig4a_StarWidth(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		st := starWidthStore(b, k)
		q := starQuery(k)
		for _, mode := range []struct {
			name string
			m    plan.Mode
		}{{"Default", plan.ModeDefault}, {"RDFscan", plan.ModeRDFScan}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode.name), func(b *testing.B) {
				qo := core.QueryOptions{Mode: mode.m, ZoneMaps: true}
				for i := 0; i < b.N; i++ {
					if _, err := st.Query(q, qo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig 4b: star + FK hop (RDFjoin vs hash join of two stars) ---

func BenchmarkFig4b_RDFjoin(b *testing.B) {
	h := getHarness(b)
	// lineitem star joined to its order star through the FK
	q := `
PREFIX rdfh: <http://example.com/rdfh/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT (COUNT(*) AS ?n)
WHERE {
  ?li rdfh:lineitem_quantity ?q .
  ?li rdfh:lineitem_order ?o .
  ?o rdfh:order_orderdate ?od .
  ?o rdfh:order_totalprice ?tp .
  FILTER (?q >= 45)
}`
	for _, mode := range []struct {
		name string
		m    plan.Mode
	}{{"Default", plan.ModeDefault}, {"RDFjoin", plan.ModeRDFScan}} {
		b.Run(mode.name, func(b *testing.B) {
			qo := core.QueryOptions{Mode: mode.m, ZoneMaps: true}
			for i := 0; i < b.N; i++ {
				if _, err := h.Clustered.Query(q, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ---

// BenchmarkAblation_ZoneMapOnly isolates zone maps: same store, same
// plan family, zone maps off vs on (Q6 cold).
func BenchmarkAblation_ZoneMapOnly(b *testing.B) {
	h := getHarness(b)
	for _, zm := range []bool{false, true} {
		b.Run(fmt.Sprintf("zonemaps=%v", zm), func(b *testing.B) {
			qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: zm}
			h.Clustered.Pool().ResetStats()
			for i := 0; i < b.N; i++ {
				h.Clustered.Pool().ResetCold()
				if _, err := h.Clustered.Query(rdfh.Q6(), qo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(h.Clustered.Pool().Stats().Misses)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkAblation_SubOrdering isolates the date sub-ordering: the
// parse-order store has CS tables but no sort key, so Q6's range must
// scan every block even with zone maps requested.
func BenchmarkAblation_SubOrdering(b *testing.B) {
	h := getHarness(b)
	for _, sub := range []struct {
		name string
		st   *core.Store
	}{{"unordered", h.Parse}, {"suborderd", h.Clustered}} {
		b.Run(sub.name, func(b *testing.B) {
			qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
			sub.st.Pool().ResetStats()
			for i := 0; i < b.N; i++ {
				sub.st.Pool().ResetCold()
				if _, err := sub.st.Query(rdfh.Q6(), qo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sub.st.Pool().Stats().Misses)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkAblation_Generalization compares schema discovery with and
// without the generalization/merging rules on dirty data, reporting the
// CS count and coverage each achieves.
func BenchmarkAblation_Generalization(b *testing.B) {
	src := dirtyGraph(3000)
	ts := loadTriples(b, src)
	for _, sub := range []struct {
		name string
		mod  func(*cs.Options)
	}{
		{"raw-CS-algorithm", func(o *cs.Options) {
			o.MinPropFrac = 1.1 // no nullable merging
			o.SimilarityMerge = 1.1
			o.TypeSplit = false
			o.RescueReferenced = false
		}},
		{"generalized", func(o *cs.Options) {}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			opts := cs.DefaultOptions()
			opts.MinSupport = 5
			sub.mod(&opts)
			var schema *cs.Schema
			for i := 0; i < b.N; i++ {
				schema = cs.Discover(ts.tb, ts.d, opts)
			}
			b.ReportMetric(float64(len(schema.Retained())), "tables")
			b.ReportMetric(100*schema.Coverage, "coverage-%")
		})
	}
}

type loaded struct {
	tb *triples.Table
	d  *dict.Dictionary
}

func loadTriples(b *testing.B, src string) loaded {
	b.Helper()
	ts, err := nt.ParseTurtle(strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	d := dict.New()
	tb := triples.NewTable(len(ts))
	for _, tr := range ts {
		tb.Append(d.Intern(tr.S), d.Intern(tr.P), d.Intern(tr.O))
	}
	return loaded{tb: tb, d: d}
}

func dirtyGraph(n int) string {
	var b strings.Builder
	b.WriteString("@prefix v: <http://d/> .\n")
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0, 1, 2:
			fmt.Fprintf(&b, "v:p%d v:a %d ; v:b \"x%d\"", i, i%50, i%20)
			if i%3 == 0 {
				fmt.Fprintf(&b, " ; v:c %d", i%9)
			}
			b.WriteString(" .\n")
		case 3, 4:
			fmt.Fprintf(&b, "v:q%d v:a %d ; v:d \"y\" .\n", i, i%50)
		case 5:
			fmt.Fprintf(&b, "v:r%d v:a %d ; v:b \"z\" ; v:e%d 1 .\n", i, i%50, i%25)
		default:
			fmt.Fprintf(&b, "v:s%d v:f%d \"w\" .\n", i, i%30)
		}
	}
	return b.String()
}

// --- streaming executor ---

// BenchmarkStream_MaterializedVsStreaming contrasts the two query APIs
// over the same vectorized pipeline: Query materializes the full result,
// QueryStream hands rows out batch by batch; with a LIMIT the stream
// stops the scans early.
func BenchmarkStream_MaterializedVsStreaming(b *testing.B) {
	h := getHarness(b)
	q := rdfh.Queries()["Q3"]
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	b.Run("Query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.Clustered.Query(q, qo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QueryStream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := h.Clustered.QueryStream(context.Background(), q, qo)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			rows.Close()
		}
	})
}

// BenchmarkStream_LimitEarlyTermination measures a LIMIT probe over a
// multi-block table: the streaming head stops pulling once satisfied, so
// pages/op stays flat no matter how large the table is.
func BenchmarkStream_LimitEarlyTermination(b *testing.B) {
	st := wideStore(b, 20000)
	for _, q := range []struct{ name, text string }{
		{"full", `PREFIX e: <http://par/> SELECT ?s ?x WHERE { ?s e:a ?x . ?s e:b ?y . }`},
		{"limit10", `PREFIX e: <http://par/> SELECT ?s ?x WHERE { ?s e:a ?x . ?s e:b ?y . } LIMIT 10`},
	} {
		b.Run(q.name, func(b *testing.B) {
			qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
			st.Pool().ResetStats()
			for i := 0; i < b.N; i++ {
				st.Pool().ResetCold()
				if _, err := st.Query(q.text, qo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Pool().Stats().Misses)/float64(b.N), "pages/op")
		})
	}
}

// wideStore builds a core store whose main CS spans many zone-map
// blocks.
func wideStore(b *testing.B, n int) *core.Store {
	var src strings.Builder
	src.WriteString("@prefix e: <http://par/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "e:s%06d e:a %d ; e:b %d ; e:c %d .\n", i, i%9973, i%89, i%7)
	}
	st := core.NewStore(core.DefaultOptions())
	if _, err := st.LoadTurtle(strings.NewReader(src.String())); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	return st
}

// --- query optimizer: join algorithm, join order, bloom filters ---

// fkJoinStore builds a clustered two-class store in the TPC-H
// lineitem/orders shape: nParent parent subjects with a date and a
// payload, and 2*nParent child subjects whose FK is correlated with
// their own date key (children of a date window reference a matching
// window of parents, as date-clustered fact tables do). With unsorted,
// the FKs of each run of 128 children are reversed, so children in date
// order reach the same parents out of order; nParent must then be a
// multiple of 64.
func fkJoinStore(b *testing.B, nParent int, unsorted bool) *core.Store {
	var src strings.Builder
	src.WriteString("@prefix e: <http://fk/> .\n")
	for i := 0; i < nParent; i++ {
		fmt.Fprintf(&src, "e:o%06d e:odate %d ; e:ototal %d .\n", i, i, (i*7)%1000)
	}
	for i := 0; i < 2*nParent; i++ {
		fk := i / 2
		if unsorted {
			fk ^= 63
		}
		fmt.Fprintf(&src, "e:li%06d e:ldate %d ; e:fk e:o%06d .\n", i, i, fk)
	}
	opts := core.DefaultOptions()
	st := core.NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(src.String())); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStream_FKJoin contrasts join algorithms on a clustered,
// date-selective FK join. Hash drains the full parent star into a hash
// table (or scans it as probe input) no matter how few keys flow in;
// fk resolves each incoming key to its parent row and runs the parent
// star's kernels over just those rows of each block. Blooms are off in
// both arms so the comparison is the bare algorithms. The -unsorted
// arms reach the parents out of FK order, as Q3's joins do.
func BenchmarkStream_FKJoin(b *testing.B) {
	q := `PREFIX e: <http://fk/>
SELECT (SUM(?t) AS ?s)
WHERE {
  ?li e:ldate ?d .
  ?li e:fk ?o .
  ?o e:ototal ?t .
  FILTER (?d >= 30000 && ?d < 32000)
}`
	for _, unsorted := range []bool{false, true} {
		st := fkJoinStore(b, 40000, unsorted)
		for _, algo := range []string{"hash", "fk"} {
			name := algo
			if unsorted {
				name += "-unsorted"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true, ForceAlgo: algo, NoBloom: true}
				for i := 0; i < b.N; i++ {
					if _, err := st.Query(q, qo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStream_CostedStar pits the cost-based join order for Q3
// (selective lineitem scan first, then two FK joins up the FK chain)
// against the naive pattern-order left-deep hash plan the old greedy
// planner could produce.
func BenchmarkStream_CostedStar(b *testing.B) {
	h := getHarness(b)
	q := rdfh.Queries()["Q3"]
	for _, sub := range []struct {
		name string
		qo   core.QueryOptions
	}{
		{"costed", core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}},
		{"naive", core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true,
			ForceOrder: []string{"c", "o", "li"}, ForceAlgo: "hash", NoBloom: true}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.Clustered.Query(q, sub.qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStream_BloomProbe isolates the runtime bloom filters on
// Q5's hash joins: the region/nation build sides are tiny, so pushing
// their blooms into the customer/order/lineitem scans prunes most
// probe rows before they reach the join.
func BenchmarkStream_BloomProbe(b *testing.B) {
	h := getHarness(b)
	q := rdfh.Queries()["Q5"]
	for _, sub := range []struct {
		name    string
		noBloom bool
	}{{"bloom", false}, {"nobloom", true}} {
		b.Run(sub.name, func(b *testing.B) {
			qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true, ForceAlgo: "hash", NoBloom: sub.noBloom}
			for i := 0; i < b.N; i++ {
				if _, err := h.Clustered.Query(q, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- throughput ---

func BenchmarkCSDetection(b *testing.B) {
	ts := loadTriples(b, dirtyGraph(5000))
	opts := cs.DefaultOptions()
	opts.MinSupport = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Discover(ts.tb, ts.d, opts)
	}
	b.ReportMetric(float64(ts.tb.Len()), "triples")
}

func BenchmarkLoadNTriples(b *testing.B) {
	d := rdfh.Generate(0.002, 1)
	var buf strings.Builder
	if _, err := d.WriteNT(&buf); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := srdf.New(srdf.Defaults())
		if _, _, err := st.LoadNTriples(strings.NewReader(src), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrganize(b *testing.B) {
	d := rdfh.Generate(0.002, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := core.DefaultOptions()
		opts.CS.MinSupport = 5
		st := core.NewStore(opts)
		d.Emit(func(t nt.Triple) { st.Add(t) })
		b.StartTimer()
		if _, err := st.Organize(); err != nil {
			b.Fatal(err)
		}
	}
}
