package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"srdf"
)

// testStore builds an organized in-memory store with n people
// (name, age) — enough rows to stream over several batches when n is
// large.
func testStore(t testing.TB, n int, opts srdf.Options) *srdf.Store {
	t.Helper()
	st := srdf.New(opts)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://ex/p%d> <http://ex/name> \"person %d\" .\n", i, i)
		fmt.Fprintf(&b, "<http://ex/p%d> <http://ex/age> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", i, 20+i%60)
	}
	st.MustLoadTurtle(b.String())
	if _, err := st.Organize(); err != nil {
		t.Fatalf("organize: %v", err)
	}
	return st
}

func testServer(t testing.TB, n int, cfg Config) *Server {
	t.Helper()
	return New(testStore(t, n, srdf.Defaults()), cfg)
}

const nameQuery = `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`

func get(t *testing.T, h http.Handler, target, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestProtocolForms exercises the three SPARQL Protocol request forms
// against one live store and checks they return identical results.
func TestProtocolForms(t *testing.T) {
	srv := testServer(t, 10, Config{})
	h := srv.Handler()

	viaGET := get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "")
	if viaGET.Code != http.StatusOK {
		t.Fatalf("GET: %d %s", viaGET.Code, viaGET.Body.String())
	}
	if ct := viaGET.Header().Get("Content-Type"); !strings.HasPrefix(ct, MimeJSON) {
		t.Fatalf("GET content type %q", ct)
	}

	form := url.Values{"query": {nameQuery}}
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	viaForm := httptest.NewRecorder()
	h.ServeHTTP(viaForm, req)
	if viaForm.Code != http.StatusOK {
		t.Fatalf("POST form: %d %s", viaForm.Code, viaForm.Body.String())
	}

	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(nameQuery))
	req.Header.Set("Content-Type", "application/sparql-query")
	viaRaw := httptest.NewRecorder()
	h.ServeHTTP(viaRaw, req)
	if viaRaw.Code != http.StatusOK {
		t.Fatalf("POST raw: %d %s", viaRaw.Code, viaRaw.Body.String())
	}

	if viaGET.Body.String() != viaForm.Body.String() || viaGET.Body.String() != viaRaw.Body.String() {
		t.Fatalf("the three protocol forms disagree:\nGET  %s\nform %s\nraw  %s",
			viaGET.Body.String(), viaForm.Body.String(), viaRaw.Body.String())
	}
	if n := strings.Count(viaGET.Body.String(), `"type":"uri"`); n != 10 {
		t.Fatalf("expected 10 uri bindings, got %d in %s", n, viaGET.Body.String())
	}
}

func TestContentNegotiationMatrix(t *testing.T) {
	srv := testServer(t, 5, Config{})
	h := srv.Handler()
	target := "/sparql?query=" + url.QueryEscape(nameQuery)
	cases := []struct {
		accept   string
		wantCT   string
		wantCode int
	}{
		{"", MimeJSON, http.StatusOK},
		{MimeJSON, MimeJSON, http.StatusOK},
		{"application/json", MimeJSON, http.StatusOK},
		{MimeCSV, MimeCSV, http.StatusOK},
		{MimeTSV, MimeTSV, http.StatusOK},
		{"text/*", MimeCSV, http.StatusOK},
		{"*/*", MimeJSON, http.StatusOK},
		{"application/rdf+xml", "", http.StatusNotAcceptable},
		{"text/csv;q=0", "", http.StatusNotAcceptable},
	}
	for _, c := range cases {
		w := get(t, h, target, c.accept)
		if w.Code != c.wantCode {
			t.Errorf("Accept %q: code %d, want %d", c.accept, w.Code, c.wantCode)
			continue
		}
		if c.wantCT != "" && !strings.HasPrefix(w.Header().Get("Content-Type"), c.wantCT) {
			t.Errorf("Accept %q: content type %q, want %s", c.accept, w.Header().Get("Content-Type"), c.wantCT)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	srv := testServer(t, 5, Config{})
	h := srv.Handler()

	if w := get(t, h, "/sparql", ""); w.Code != http.StatusBadRequest {
		t.Errorf("missing query: %d, want 400", w.Code)
	}
	if w := get(t, h, "/sparql?query="+url.QueryEscape("SELECT WHERE garbage {{{"), ""); w.Code != http.StatusBadRequest {
		t.Errorf("malformed query: %d, want 400", w.Code)
	}

	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(nameQuery))
	req.Header.Set("Content-Type", "text/plain")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Errorf("bad POST content type: %d, want 415", w.Code)
	}

	req = httptest.NewRequest(http.MethodDelete, "/sparql", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: %d, want 405", w.Code)
	}
}

func TestQueryTimeout408(t *testing.T) {
	srv := testServer(t, 200, Config{QueryTimeout: time.Nanosecond})
	w := get(t, srv.Handler(), "/sparql?query="+url.QueryEscape(nameQuery), "")
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("timeout: %d %s, want 408", w.Code, w.Body.String())
	}
}

func TestAdmissionOverflow503(t *testing.T) {
	srv := testServer(t, 5, Config{MaxConcurrent: 1, QueueDepth: -1})
	// Hold the only execution slot, as a running query would.
	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	w := get(t, srv.Handler(), "/sparql?query="+url.QueryEscape(nameQuery), "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	srv.adm.release()
	if w := get(t, srv.Handler(), "/sparql?query="+url.QueryEscape(nameQuery), ""); w.Code != http.StatusOK {
		t.Fatalf("after release: %d, want 200", w.Code)
	}
}

func TestAdmissionQueueWaits(t *testing.T) {
	srv := testServer(t, 5, Config{MaxConcurrent: 1, QueueDepth: 1})
	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- get(t, srv.Handler(), "/sparql?query="+url.QueryEscape(nameQuery), "")
	}()
	// The queued request must wait, not fail.
	select {
	case w := <-done:
		t.Fatalf("queued request finished with %d while the slot was held", w.Code)
	case <-time.After(50 * time.Millisecond):
	}
	srv.adm.release()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Fatalf("dequeued request: %d, want 200", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never ran after release")
	}
}

// TestCancellationFreesSlotAndGoroutines cancels queries mid-stream and
// checks no goroutine outlives them (goroutine probe — no goleak
// dependency) and the admission slot comes back.
func TestCancellationFreesSlotAndGoroutines(t *testing.T) {
	st := testStore(t, 3000, srdf.Defaults())
	srv := New(st, Config{MaxConcurrent: 1})

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodGet,
			"/sparql?query="+url.QueryEscape(nameQuery), nil).WithContext(ctx)
		w := httptest.NewRecorder()
		donec := make(chan struct{})
		go func() {
			defer close(donec)
			defer func() {
				// the handler aborts truncated streams with
				// http.ErrAbortHandler; the real server swallows it
				if r := recover(); r != nil && r != http.ErrAbortHandler {
					panic(r)
				}
			}()
			srv.Handler().ServeHTTP(w, req)
		}()
		cancel()
		<-donec
	}

	// The slot must be free: a fresh query succeeds immediately.
	if w := get(t, srv.Handler(), "/sparql?query="+url.QueryEscape(nameQuery), ""); w.Code != http.StatusOK {
		t.Fatalf("after cancellations: %d, want 200", w.Code)
	}
	if n := srv.adm.inFlight(); n != 0 {
		t.Fatalf("admission slots leaked: %d in flight", n)
	}

	// Handler goroutines wind down after the response; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulShutdownDrains opens a streaming response over a real
// listener, starts Shutdown, and checks the open stream is allowed to
// finish before Shutdown returns.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := testServer(t, 3000, Config{})
	// Slow the stream down so it is provably still open when Shutdown
	// starts (socket buffers would otherwise swallow the whole result).
	srv.rowHook = func() { time.Sleep(100 * time.Microsecond) }
	go srv.ListenAndServe("127.0.0.1:0")
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		addr = srv.Addr()
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never bound")
	}

	resp, err := http.Get("http://" + addr + "/sparql?query=" + url.QueryEscape(nameQuery))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	// Read a little, then shut down with the stream still open.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64)); err != nil {
		t.Fatalf("first bytes: %v", err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a stream was open", err)
	case <-time.After(100 * time.Millisecond):
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("drain read: %v", err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(body)), "]}}") {
		t.Fatalf("stream was truncated by shutdown: ...%q", tail(string(body), 40))
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, 5, Config{})
	h := srv.Handler()
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "")
	get(t, h, "/sparql?query="+url.QueryEscape(nameQuery), "") // plan-cache hit
	get(t, h, "/sparql?query=", "")                            // bad query

	w := get(t, h, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	wants := []string{
		`srdf_queries_total{status="ok"} 2`,
		"srdf_plan_cache_hits_total 1",
		// two misses: the first real query, and the malformed one (its
		// lookup precedes the parse failure)
		"srdf_plan_cache_misses_total 2",
		"srdf_query_duration_seconds_count 2",
		"srdf_inflight_queries 0",
		"srdf_pool_hits_total",
		"srdf_triples 10",
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

// TestMetricsOverflowLiterals: the gauge counts literals minted after
// Organize, and a write that reuses an existing literal adds nothing.
func TestMetricsOverflowLiterals(t *testing.T) {
	st := testStore(t, 5, srdf.Defaults())
	h := New(st, Config{}).Handler()
	if body := get(t, h, "/metrics", "").Body.String(); !strings.Contains(body, "srdf_literals_overflow 0") {
		t.Fatalf("fresh store: overflow gauge not 0\n%s", body)
	}
	for _, src := range []string{
		`<http://ex/new1> <http://ex/name> "minted-a" .`,
		`<http://ex/new2> <http://ex/name> "minted-b" .`,
		`<http://ex/new3> <http://ex/name> "minted-a" .`,
	} {
		if err := st.Internal().Add(testTriple(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if body := get(t, h, "/metrics", "").Body.String(); !strings.Contains(body, "srdf_literals_overflow 2") {
		t.Fatalf("after minting two literals: gauge not 2\n%s", body)
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t, 5, Config{})
	if w := get(t, srv.Handler(), "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
}
