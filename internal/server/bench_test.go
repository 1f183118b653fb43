package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"

	"srdf"
	"srdf/internal/dict"
	"srdf/internal/rdfh"
)

// BenchmarkServe_ConcurrentLoad drives the full HTTP path — admission,
// plan cache, snapshot query, JSON/CSV streaming — with RunParallel
// clients over a mixed query set, the shape a live endpoint sees.
func BenchmarkServe_ConcurrentLoad(b *testing.B) {
	st := testStore(b, 5000, srdf.Defaults())
	srv := New(st, Config{MaxConcurrent: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type req struct{ target, accept string }
	reqs := []req{
		{"/sparql?query=" + url.QueryEscape(nameQuery), MimeJSON},
		{"/sparql?query=" + url.QueryEscape(nameQuery), MimeCSV},
		{"/sparql?query=" + url.QueryEscape(
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a . FILTER(?a > 40) }`), MimeJSON},
		{"/sparql?query=" + url.QueryEscape(
			`SELECT ?s WHERE { ?s <http://ex/name> "p17" }`), MimeTSV},
	}

	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rq := reqs[i%len(reqs)]
			i++
			hr, err := http.NewRequest(http.MethodGet, ts.URL+rq.target, nil)
			if err != nil {
				b.Fatal(err)
			}
			hr.Header.Set("Accept", rq.accept)
			resp, err := client.Do(hr)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				b.Fatal(fmt.Errorf("%s: %d: %s", rq.target, resp.StatusCode, body))
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("empty response body")
			}
		}
	})
	b.StopTimer()
	ps := st.PlanCacheStats()
	if total := ps.Hits + ps.Misses; total > 0 {
		b.ReportMetric(float64(ps.Hits)/float64(total), "cache-hit-ratio")
	}
}

// BenchmarkServe_PointLookup drives one-row lookups through the handler,
// each a text the plan cache has not seen recently (it cycles through far
// more texts than the cache holds): parse, plan, execute and JSON
// serialization per request, the path whose allocations per op track
// executor memory.
func BenchmarkServe_PointLookup(b *testing.B) {
	const people = 5000
	st := testStore(b, people, srdf.Defaults())
	h := New(st, Config{MaxConcurrent: 8}).Handler()
	targets := make([]string, 0, 2*people)
	for i := 0; i < people; i++ {
		p := fmt.Sprintf("<http://ex/p%d>", i)
		targets = append(targets,
			"/sparql?query="+url.QueryEscape(`SELECT ?n ?a WHERE { `+p+` <http://ex/name> ?n . `+p+` <http://ex/age> ?a }`),
			"/sparql?query="+url.QueryEscape(fmt.Sprintf(`SELECT ?s ?a WHERE { ?s <http://ex/name> "person %d" . ?s <http://ex/age> ?a }`, i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, targets[(i*7919)%len(targets)], nil)
		req.Header.Set("Accept", MimeJSON)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Body.Len() == 0 {
			b.Fatalf("%s: %d: %s", req.URL, w.Code, w.Body)
		}
	}
	b.StopTimer()
	ps := st.PlanCacheStats()
	if total := ps.Hits + ps.Misses; total > 0 {
		b.ReportMetric(float64(ps.Hits)/float64(total), "cache-hit-ratio")
	}
}

// discardResponse is a ResponseWriter that drops the body, so a handler
// benchmark measures the server, not a recorder's buffer growth.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// BenchmarkServe_Report serves the serve.report query shape — four plain
// variables (order IRI, date, price, status) over a ~470-row order-date
// window, a plan-cache hit after the first request, RDFscan with zone
// maps — through the in-process handler in each result format: execution, the head and
// serialization, without the network. ns/row is the per-result-row cost.
func BenchmarkServe_Report(b *testing.B) {
	d := rdfh.Generate(0.005, 3)
	st := srdf.New(srdf.Defaults())
	dates := make([]int64, len(d.Orders))
	for i, o := range d.Orders {
		s := srdf.IRI(rdfh.OrderIRI(o.Key))
		for _, t := range []srdf.Triple{
			{S: s, P: srdf.IRI(rdfh.POrdDate), O: dict.DateLit(dict.FormatDate(o.OrderDate))},
			{S: s, P: srdf.IRI(rdfh.POrdTotal), O: dict.FloatLit(o.TotalPrice)},
			{S: s, P: srdf.IRI(rdfh.POrdStatus), O: dict.StringLit(o.Status)},
		} {
			if err := st.Add(t); err != nil {
				b.Fatal(err)
			}
		}
		dates[i] = o.OrderDate
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	lo, hi := dates[len(dates)/3], dates[len(dates)/3+470]
	q := fmt.Sprintf(`SELECT ?o ?od ?tp ?st WHERE {
  ?o <%s> ?od . ?o <%s> ?tp . ?o <%s> ?st .
  FILTER (?od >= "%s"^^<%s> && ?od < "%s"^^<%s>) }`,
		rdfh.POrdDate, rdfh.POrdTotal, rdfh.POrdStatus,
		dict.FormatDate(lo), dict.XSDDate, dict.FormatDate(hi), dict.XSDDate)
	opts := srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}
	res, err := st.QueryWith(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	rows := res.Len()
	h := New(st, Config{Query: opts}).Handler()
	target := "/sparql?query=" + url.QueryEscape(q)
	for _, mime := range []string{MimeJSON, MimeCSV, MimeTSV} {
		b.Run(mimeName(mime), func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("Accept", mime)
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				w.code = http.StatusOK
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

func mimeName(mime string) string {
	switch mime {
	case MimeCSV:
		return "csv"
	case MimeTSV:
		return "tsv"
	}
	return "json"
}
