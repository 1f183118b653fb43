package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"srdf/internal/exec"
	"srdf/internal/plan"
)

func organizedLogStore(t *testing.T) *Store {
	t.Helper()
	s := newTestStore(t, libSrc, 3)
	if _, err := s.Organize(); err != nil {
		t.Fatalf("organize: %v", err)
	}
	return s
}

// TestQueryLogRecords checks that completed queries — sync, streamed,
// and failed — land in the structured log with the plan-time
// fingerprint and the runtime outcome populated.
func TestQueryLogRecords(t *testing.T) {
	s := organizedLogStore(t)
	qo := QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	res, err := s.Query(introQuery, qo)
	if err != nil {
		t.Fatal(err)
	}

	recs := s.QueryLog()
	if len(recs) != 1 {
		t.Fatalf("query log has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Outcome != "ok" {
		t.Errorf("outcome = %q, want ok", rec.Outcome)
	}
	if rec.Rows != int64(res.Len()) {
		t.Errorf("rows = %d, want %d", rec.Rows, res.Len())
	}
	if len(rec.TextHash) != 16 {
		t.Errorf("text hash %q is not 16 hex chars", rec.TextHash)
	}
	if rec.CacheHit {
		t.Error("first execution marked as a cache hit")
	}
	if rec.Stars != 1 {
		t.Errorf("stars = %d, want 1", rec.Stars)
	}
	wantPreds := []string{
		"http://lib.example.org/author",
		"http://lib.example.org/isbn",
		"http://lib.example.org/year",
	}
	if len(rec.Predicates) != len(wantPreds) {
		t.Fatalf("predicates = %v, want %v", rec.Predicates, wantPreds)
	}
	for i, p := range wantPreds {
		if rec.Predicates[i] != p {
			t.Errorf("predicates[%d] = %q, want %q", i, rec.Predicates[i], p)
		}
	}
	// ex:year 1996 is a constant-equality column.
	if len(rec.FilterColumns) != 1 || rec.FilterColumns[0] != "http://lib.example.org/year" {
		t.Errorf("filter columns = %v, want [year]", rec.FilterColumns)
	}
	if rec.DurationNS <= 0 {
		t.Errorf("duration = %d, want > 0", rec.DurationNS)
	}

	// Second run resolves through the plan cache and says so.
	if _, err := s.Query(introQuery, qo); err != nil {
		t.Fatal(err)
	}
	recs = s.QueryLog()
	if len(recs) != 2 || !recs[0].CacheHit {
		t.Fatalf("second run not recorded as cache hit: %+v", recs[0])
	}
	// Newest first: both hash to the same text.
	if recs[0].TextHash != recs[1].TextHash {
		t.Error("identical queries got different text hashes")
	}

	// A streamed query records on Close.
	rows, err := s.QueryStream(context.Background(), introQuery, qo)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	recs = s.QueryLog()
	if len(recs) != 3 {
		t.Fatalf("streamed query not recorded: %d records", len(recs))
	}
	if recs[0].Rows != int64(n) || recs[0].Outcome != "ok" {
		t.Errorf("streamed record rows=%d outcome=%q, want rows=%d ok", recs[0].Rows, recs[0].Outcome, n)
	}

	// A bad query never plans, so it is not recorded.
	if _, err := s.Query("SELECT garbage {{{", qo); err == nil {
		t.Fatal("bad query did not fail")
	}
	if got := len(s.QueryLog()); got != 3 {
		t.Fatalf("unplannable query was recorded: %d records", got)
	}

	// Every way of running a query is one lifecycle: each adds exactly
	// one record carrying the same plan-time fingerprint.
	ctx := context.Background()
	runs := []struct {
		name string
		run  func() error
	}{
		{"Query", func() error { _, err := s.Query(introQuery, qo); return err }},
		{"drained QueryStream", func() error {
			rows, err := s.QueryStream(ctx, introQuery, qo)
			if err != nil {
				return err
			}
			for rows.Next() {
			}
			return rows.Err()
		}},
		{"QueryStream closed after one row", func() error {
			rows, err := s.QueryStream(ctx, introQuery, qo)
			if err != nil {
				return err
			}
			rows.Next()
			rows.Close()
			return rows.Err()
		}},
		{"ExplainAnalyze", func() error { _, err := s.ExplainAnalyze(ctx, introQuery, qo); return err }},
	}
	for _, r := range runs {
		before := len(s.QueryLog())
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		recs := s.QueryLog()
		if len(recs) != before+1 {
			t.Fatalf("%s added %d records, want 1", r.name, len(recs)-before)
		}
		got := recs[0]
		if !equalStrings(got.Predicates, rec.Predicates) || !equalStrings(got.FilterColumns, rec.FilterColumns) ||
			got.Stars != rec.Stars {
			t.Errorf("%s fingerprint = %v %v %d, want %v %v %d", r.name,
				got.Predicates, got.FilterColumns, got.Stars, rec.Predicates, rec.FilterColumns, rec.Stars)
		}
	}
	if recs := s.QueryLog(); recs[1].Rows != 1 {
		t.Errorf("stream closed after one row recorded rows=%d, want 1", recs[1].Rows)
	}

	// Explain plans without running: no record, no plan-cache traffic.
	before, pcs := len(s.QueryLog()), s.PlanCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := s.Explain(introQuery, qo); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.QueryLog()); got != before {
		t.Errorf("Explain added %d records", got-before)
	}
	if got := s.PlanCacheStats(); got != pcs {
		t.Errorf("Explain moved the plan cache: %+v -> %+v", pcs, got)
	}

	// A query that fails its memory budget reports the error instead of
	// a short result.
	memqo := qo
	memqo.MemLimit = 1
	memq := `SELECT DISTINCT ?a ?n WHERE {
  ?b <http://lib.example.org/author> ?a . ?b <http://lib.example.org/isbn> ?n }`
	res, err = s.Query(memq, memqo)
	if !errors.Is(err, exec.ErrMemBudget) || res != nil {
		t.Errorf("over-budget Query = (%v, %v), want (nil, ErrMemBudget)", res, err)
	}
}

// TestQueryLogOutcomes checks the failure classifications.
func TestQueryLogOutcomes(t *testing.T) {
	s := organizedLogStore(t)
	qo := QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := s.QueryStream(ctx, introQuery, qo)
	if err == nil {
		for rows.Next() {
		}
		rows.Close()
	}
	recs := s.QueryLog()
	if len(recs) == 0 || recs[0].Outcome != "canceled" {
		t.Fatalf("canceled query outcome = %v", recs)
	}

	qo.MemLimit = 1
	memq := `SELECT DISTINCT ?a ?n WHERE {
  ?b <http://lib.example.org/author> ?a . ?b <http://lib.example.org/isbn> ?n }`
	if _, err := s.Query(memq, qo); err == nil {
		t.Fatal("1-byte budget did not fail")
	}
	recs = s.QueryLog()
	if recs[0].Outcome != "mem_budget" {
		t.Fatalf("mem-budget outcome = %q", recs[0].Outcome)
	}
}

// TestQueryLogRingWraps checks the ring keeps only the newest records
// while the cumulative profile keeps counting.
func TestQueryLogRingWraps(t *testing.T) {
	l := newQueryLog(4)
	for i := 0; i < 10; i++ {
		l.record(QueryRecord{Rows: int64(i), Predicates: []string{"p"}})
	}
	recs := l.recent()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for i, want := range []int64{9, 8, 7, 6} {
		if recs[i].Rows != want {
			t.Errorf("recent[%d].Rows = %d, want %d (newest first)", i, recs[i].Rows, want)
		}
	}
	wp := l.profile()
	if wp.Queries != 10 || wp.PredicateTouches["p"] != 10 {
		t.Errorf("profile = %+v, want 10 queries / 10 touches", wp)
	}
}

// TestWorkloadProfileConcurrent hammers the log from many goroutines
// and checks the aggregation is exact — the run matters under -race.
func TestWorkloadProfileConcurrent(t *testing.T) {
	s := organizedLogStore(t)
	qo := QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	const workers, perWorker = 16, 20

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Query(introQuery, qo); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	wp := s.WorkloadProfile()
	if wp.Queries != workers*perWorker {
		t.Fatalf("profile queries = %d, want %d", wp.Queries, workers*perWorker)
	}
	for _, p := range []string{"author", "isbn", "year"} {
		iri := "http://lib.example.org/" + p
		if wp.PredicateTouches[iri] != workers*perWorker {
			t.Errorf("touches[%s] = %d, want %d", p, wp.PredicateTouches[iri], workers*perWorker)
		}
	}
	if wp.FilterColumns["http://lib.example.org/year"] != workers*perWorker {
		t.Errorf("filter counts = %v", wp.FilterColumns)
	}
	q, rows := s.QueryLogCounts()
	if q != workers*perWorker || rows == 0 {
		t.Errorf("counts = (%d, %d)", q, rows)
	}
	if got := len(s.QueryLog()); got != DefaultQueryLogSize {
		t.Errorf("ring holds %d records, want full %d", got, DefaultQueryLogSize)
	}
}
