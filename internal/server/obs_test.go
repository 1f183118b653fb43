package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"srdf"
)

// TestMetricsExpositionLint scrapes a live server that has seen traffic
// and lints the whole exposition: every series belongs to a family with
// exactly one HELP and one TYPE line, family names are unique, and
// histogram buckets are cumulative and end at +Inf.
func TestMetricsExpositionLint(t *testing.T) {
	srv := testServer(t, 20, Config{MaxResultRows: 5})
	h := srv.Handler()
	// Traffic across outcomes so labeled series and histograms move.
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery+" LIMIT 3"), "")
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery+" LIMIT 3"), "")
	get(t, h, "/sparql?query=", "") // bad query

	body := get(t, h, "/metrics", "").Body.String()
	type fam struct{ help, typ int }
	fams := map[string]*fam{}
	var order []string
	famOf := func(series string) string {
		// strip histogram suffixes so buckets attach to their family
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(series, suf)
			if base != series && fams[base] != nil {
				return base
			}
		}
		return series
	}
	seen := map[string]bool{}
	var lastBucket float64 = -1
	var bucketFam string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if fams[name] == nil {
				fams[name] = &fam{}
				order = append(order, name)
			}
			fams[name].help++
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			if fams[name] == nil {
				t.Errorf("TYPE before HELP for %s", name)
				fams[name] = &fam{}
			}
			fams[name].typ++
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			f := famOf(name)
			if fams[f] == nil {
				t.Errorf("series %q has no HELP/TYPE family", line)
				continue
			}
			if name == f && seen[line] {
				t.Errorf("duplicate series %q", line)
			}
			seen[line] = true
			// cumulative-bucket check per histogram family
			if strings.Contains(line, "_bucket{le=") {
				if f != bucketFam {
					bucketFam, lastBucket = f, -1
				}
				v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
				if err != nil {
					t.Errorf("unparsable bucket line %q", line)
					continue
				}
				if v < lastBucket {
					t.Errorf("non-cumulative bucket in %s: %q after %g", f, line, lastBucket)
				}
				lastBucket = v
				if strings.Contains(line, `le="+Inf"`) {
					bucketFam, lastBucket = "", -1
				}
			}
		}
	}
	for _, name := range order {
		if f := fams[name]; f.help != 1 || f.typ != 1 {
			t.Errorf("family %s has %d HELP / %d TYPE lines, want 1/1", name, f.help, f.typ)
		}
	}

	// The new executor and query-log series exist and moved with traffic.
	for _, want := range []string{"srdf_exec_scan_rows_total", "srdf_exec_operator_seconds_total",
		"srdf_query_log_queries_total 2", "srdf_store_epoch"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "srdf_exec_scan_rows_total 0\n") {
		t.Error("srdf_exec_scan_rows_total did not move under traffic")
	}
	// Projection work: every permutation has a series from the first
	// scrape on, and the store behind this server sorted SPO at least.
	for _, want := range []string{`srdf_projection_builds_total{perm="OPS"}`,
		`srdf_projection_merges_total{perm="SPO"}`, "srdf_projection_build_seconds_count"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, `srdf_projection_builds_total{perm="SPO"} 0`+"\n") {
		t.Error(`srdf_projection_builds_total{perm="SPO"} is 0 after serving queries`)
	}
}

// TestDebugQueriesEndpoint checks /debug/queries returns the recent
// queries (newest first, fields populated) plus the workload profile.
func TestDebugQueriesEndpoint(t *testing.T) {
	srv := testServer(t, 10, Config{})
	h := srv.Handler()
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "")
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "")

	w := get(t, h, "/debug/queries", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/queries: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got struct {
		Queries []srdf.QueryRecord   `json:"queries"`
		Profile srdf.WorkloadProfile `json:"profile"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, w.Body.String())
	}
	if len(got.Queries) != 2 {
		t.Fatalf("%d records, want 2", len(got.Queries))
	}
	rec := got.Queries[0]
	if rec.Outcome != "ok" || rec.Rows != 10 || rec.TextHash == "" || !rec.CacheHit {
		t.Errorf("newest record not populated: %+v", rec)
	}
	if len(rec.Predicates) != 1 || rec.Predicates[0] != "http://ex/name" {
		t.Errorf("predicates = %v", rec.Predicates)
	}
	if got.Profile.Queries != 2 || got.Profile.PredicateTouches["http://ex/name"] != 2 {
		t.Errorf("profile = %+v", got.Profile)
	}
}

// TestExplainAnalyzeEndpoint checks explain=analyze runs the query and
// returns the annotated plan as text.
func TestExplainAnalyzeEndpoint(t *testing.T) {
	srv := testServer(t, 10, Config{})
	h := srv.Handler()

	w := get(t, h, "/sparql?explain=analyze&query="+url.QueryEscape(nameQuery), "")
	if w.Code != http.StatusOK {
		t.Fatalf("explain=analyze: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"(analyzed)", "act_rows=10", "actual: rows=10", "est_rows="} {
		if !strings.Contains(body, want) {
			t.Errorf("analyze output missing %q:\n%s", want, body)
		}
	}
	if w.Header().Get("X-SRDF-Request") == "" {
		t.Error("response missing X-SRDF-Request id")
	}

	if w := get(t, h, "/sparql?explain=verbose&query="+url.QueryEscape(nameQuery), ""); w.Code != http.StatusBadRequest {
		t.Errorf("unknown explain mode: %d, want 400", w.Code)
	}
	if w := get(t, h, "/sparql?explain=analyze&query=garbage", ""); w.Code != http.StatusBadRequest {
		t.Errorf("analyze of bad query: %d, want 400", w.Code)
	}
}

// TestHealthzStates regression-tests the enriched /healthz body in all
// three states: ok, degraded (see robust_test.go for the fault-driven
// path), and draining.
func TestHealthzStates(t *testing.T) {
	srv := testServer(t, 5, Config{})
	h := srv.Handler()

	w := get(t, h, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("ok healthz: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"status: ok\n", "epoch: ", "uptime_seconds: "} {
		if !strings.Contains(body, want) {
			t.Errorf("ok body missing %q: %q", want, body)
		}
	}

	srv.draining.Store(true)
	w = get(t, h, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", w.Code)
	}
	body = w.Body.String()
	for _, want := range []string{"status: draining\n", "epoch: ", "uptime_seconds: "} {
		if !strings.Contains(body, want) {
			t.Errorf("draining body missing %q: %q", want, body)
		}
	}
}

// TestAccessAndSlowQueryLog checks the structured log: one access line
// per query carrying the request id, and a warning with the query text
// past the slow-query threshold.
func TestAccessAndSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	st := testStore(t, 10, srdf.Defaults())
	srv := New(st, Config{SlowQuery: time.Nanosecond, Log: logger})
	h := srv.Handler()

	w := get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "")
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d", w.Code)
	}
	reqID := w.Header().Get("X-SRDF-Request")
	if reqID == "" {
		t.Fatal("no X-SRDF-Request header")
	}

	dec := json.NewDecoder(&buf)
	var access, slow map[string]any
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line: %v", err)
		}
		switch m["msg"] {
		case "query":
			access = m
		case "slow query":
			slow = m
		}
	}
	if access == nil {
		t.Fatal("no access log line")
	}
	if access["id"] != reqID || access["outcome"] != "ok" || access["rows"] != float64(10) {
		t.Errorf("access line = %v", access)
	}
	if slow == nil {
		t.Fatal("no slow-query line despite 1ns threshold")
	}
	if slow["id"] != reqID || !strings.Contains(fmt.Sprint(slow["query"]), "SELECT") {
		t.Errorf("slow line = %v", slow)
	}
}

// TestDebugHandlerPprof checks the debug mux serves pprof, expvar, and
// the query log without touching the public mux.
func TestDebugHandlerPprof(t *testing.T) {
	srv := testServer(t, 5, Config{})
	dbg := srv.DebugHandler()

	if w := get(t, dbg, "/debug/pprof/cmdline", ""); w.Code != http.StatusOK {
		t.Errorf("pprof cmdline: %d", w.Code)
	}
	if w := get(t, dbg, "/debug/vars", ""); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "memstats") {
		t.Errorf("expvar: %d", w.Code)
	}
	if w := get(t, dbg, "/debug/queries", ""); w.Code != http.StatusOK {
		t.Errorf("debug queries: %d", w.Code)
	}
	// The public mux must NOT serve pprof.
	if w := get(t, srv.Handler(), "/debug/pprof/cmdline", ""); w.Code == http.StatusOK {
		t.Error("public mux serves pprof")
	}
}
