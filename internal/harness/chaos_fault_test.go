//go:build faultinject

package harness

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/fault"
	"srdf/internal/nt"
	"srdf/internal/server"
)

// TestChaosExecPanic (faultinject builds only) injects panics into the
// table scans of a live server: the process must survive, each failed
// query must come back as a clean 500, and once the failpoint stops
// firing the same query must return its exact pre-fault rows — no
// leaked pins or scratch, no poisoned state.
func TestChaosExecPanic(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)

	// One CS table of several zone-map blocks: the point fires once per
	// sealed block the scan visits.
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	st := core.NewStore(opts)
	for i := 0; i < 9000; i++ {
		st.Add(nt.Triple{
			S: dict.IRI(fmt.Sprintf("%ss%d", NS, i)),
			P: dict.IRI(NS + "name"),
			O: dict.IntLit(int64(i)),
		})
	}
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	query := fmt.Sprintf("SELECT ?s ?v WHERE { ?s <%sname> ?v }", NS)
	qo := coreQO()
	h := server.New(srdf.NewFromCore(st), server.Config{
		MaxConcurrent: 16,
		Query:         srdf.QueryOptions{Mode: qo.Mode, ZoneMaps: qo.ZoneMaps},
	}).Handler()

	get := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet,
			"/sparql?query="+url.QueryEscape(query), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	before := get()
	if before.Code != http.StatusOK {
		t.Fatalf("pre-fault query: %d %s", before.Code, before.Body.String())
	}

	// The first five scanned blocks panic, then the point goes quiet on
	// its own.
	fault.Enable("exec.scan", fault.Spec{Panic: "chaos: injected scan panic", Count: 5})
	fives, oks := 0, 0
	for i := 0; i < 20; i++ {
		switch w := get(); w.Code {
		case http.StatusInternalServerError:
			fives++
		case http.StatusOK:
			oks++
		default:
			t.Fatalf("query %d: unexpected status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if fives == 0 {
		t.Fatal("no query failed while the panic failpoint was armed")
	}
	if oks == 0 {
		t.Fatal("no query succeeded after the failpoint's firing budget drained")
	}
	fault.Disable("exec.scan")

	after := get()
	if after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("post-fault query diverged: %d\npre:  %s\npost: %s",
			after.Code, before.Body.String(), after.Body.String())
	}
}
