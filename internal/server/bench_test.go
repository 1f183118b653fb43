package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"srdf"
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
