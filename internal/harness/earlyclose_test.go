package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
)

// TestConcurrentEarlyClose races the executor's recycled block scratch:
// readers share published snapshots and stop their pipelines at every
// point a query can stop early — LIMIT, the consumer closing a stream
// mid-way, context cancellation mid-stream, EXPLAIN ANALYZE, a memory
// budget overrun — beside full scans, DISTINCT and aggregation over
// multi-block scans, while a writer keeps adding, deleting, refreshing
// and compacting a disjoint class. A block returned to the free list
// while a view of it was still lent would surface as a wrong row (or a
// race report): every answer must be row-identical to a fresh store's.
func TestConcurrentEarlyClose(t *testing.T) {
	const (
		nStatic   = 9000 // 9 zone-map blocks per column
		nChurn    = 64
		nReaders  = 4
		readerIts = 12
	)
	ra, rb, rc := NS+"ra", NS+"rb", NS+"rc"
	wa, wb := NS+"wa", NS+"wb"
	static := make([]nt.Triple, 0, 3*nStatic)
	for i := 0; i < nStatic; i++ {
		s := dict.IRI(fmt.Sprintf("%sa%d", NS, i))
		static = append(static,
			nt.Triple{S: s, P: dict.IRI(ra), O: dict.IntLit(int64(i % 97))},
			nt.Triple{S: s, P: dict.IRI(rb), O: dict.IntLit(int64(i % 13))},
			nt.Triple{S: s, P: dict.IRI(rc), O: dict.StringLit(fmt.Sprintf("v%d", i%50))})
	}
	churn := func(i int) (nt.Triple, nt.Triple) {
		s := dict.IRI(fmt.Sprintf("%sw%d", NS, i))
		return nt.Triple{S: s, P: dict.IRI(wa), O: dict.IntLit(int64(i))},
			nt.Triple{S: s, P: dict.IRI(wb), O: dict.IntLit(int64(2 * i))}
	}
	build := func(st *core.Store) *core.Store {
		loadAll(st, static)
		for i := 0; i < nChurn; i++ {
			a, b := churn(i)
			st.Add(a)
			st.Add(b)
		}
		if _, err := st.Organize(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// The writer deletes and re-adds the churn class, so the fresh store
	// describes every snapshot the readers can see.
	fresh := build(newStore())
	st := build(autoStore(32))

	star := fmt.Sprintf("?s <%s> ?a . ?s <%s> ?b . ?s <%s> ?c", ra, rb, rc)
	full := fmt.Sprintf("SELECT ?s ?a ?c WHERE { %s . FILTER(?a < 40) }", star)
	queries := map[string]string{
		"full":      full,
		"limit":     fmt.Sprintf("SELECT ?s ?a WHERE { %s } LIMIT 25", star),
		"offset":    fmt.Sprintf("SELECT ?s ?c WHERE { %s } OFFSET 1500 LIMIT 10", star),
		"distinct":  fmt.Sprintf("SELECT DISTINCT ?c ?b WHERE { %s }", star),
		"aggregate": fmt.Sprintf("SELECT ?b (SUM(?a) AS ?t) (COUNT(*) AS ?n) WHERE { %s } GROUP BY ?b", star),
		"topk":      fmt.Sprintf("SELECT ?s ?a WHERE { %s } ORDER BY DESC(?a) ?s LIMIT 7", star),
	}
	qo := coreQO()
	want := map[string][]string{}
	for name, q := range queries {
		res, err := fresh.Query(q, qo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = renderRows(res.Rows)
		if len(want[name]) == 0 {
			t.Fatalf("%s: the fresh store answers nothing", name)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nReaders+1)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	// stream reads up to max rows (max < 0: all) of a streaming query,
	// cancelling ctx after cancelAt rows when cancel is set.
	stream := func(ctx context.Context, cancel context.CancelFunc, q string, max, cancelAt int) ([]string, error) {
		rows, err := st.QueryStream(ctx, q, qo)
		if err != nil {
			return nil, err
		}
		var got []string
		for (max < 0 || len(got) < max) && rows.Next() {
			got = append(got, renderRow(rows.Row()))
			if cancel != nil && len(got) == cancelAt {
				cancel()
			}
		}
		rows.Close()
		return got, rows.Err()
	}
	isPrefix := func(got, of []string) bool {
		return len(got) <= len(of) && eqSeq(got, of[:len(got)])
	}

	readersDone := make(chan struct{})
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		probe := fmt.Sprintf("SELECT ?s ?x WHERE { ?s <%s> ?x . ?s <%s> ?y } LIMIT 3", wa, wb)
		for op := 0; ; op++ {
			select {
			case <-readersDone:
				return
			default:
			}
			a, b := churn(op % nChurn)
			st.Delete(a)
			st.Delete(b)
			if op%2 == 0 {
				st.NumTriples() // refresh with the subject vacated
			}
			st.Add(a)
			st.Add(b)
			if _, err := st.Query(probe, qo); err != nil { // refresh
				fail("writer: %v", err)
				return
			}
			if op%25 == 24 {
				if _, err := st.Compact(); err != nil {
					fail("writer: Compact: %v", err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			for it := 0; it < readerIts; it++ {
				for name, q := range queries {
					res, err := st.Query(q, qo)
					if err != nil {
						fail("reader %d: %s: %v", r, name, err)
						return
					}
					if got := renderRows(res.Rows); !eqSeq(got, want[name]) {
						fail("reader %d: %s: %d rows differ from the fresh store's %d", r, name, len(got), len(want[name]))
						return
					}
				}
				// LIMIT through the streaming API
				got, err := stream(context.Background(), nil, queries["limit"], -1, 0)
				if err != nil || !eqSeq(got, want["limit"]) {
					fail("reader %d: streamed LIMIT: %d rows, err %v", r, len(got), err)
					return
				}
				// the consumer closes a stream mid-way
				k := 1 + (r*37+it*101)%(len(want["full"])-1)
				got, err = stream(context.Background(), nil, full, k, 0)
				if err != nil || !eqSeq(got, want["full"][:k]) {
					fail("reader %d: stream closed after %d rows: %d rows, err %v", r, k, len(got), err)
					return
				}
				// cancellation mid-stream: rows up to the stop are a prefix
				ctx, cancel := context.WithCancel(context.Background())
				got, err = stream(ctx, cancel, full, -1, k)
				cancel()
				if !isPrefix(got, want["full"]) || len(got) < k {
					fail("reader %d: cancelled stream: %d rows, not a prefix of the answer", r, len(got))
					return
				}
				if len(got) < len(want["full"]) && !errors.Is(err, context.Canceled) {
					fail("reader %d: cancelled stream stopped at %d rows with %v", r, len(got), err)
					return
				}
				// EXPLAIN ANALYZE runs the aggregate to exhaustion under stats
				out, err := st.ExplainAnalyze(context.Background(), queries["aggregate"], qo)
				if err != nil || !strings.Contains(out, fmt.Sprintf("actual: rows=%d ", len(want["aggregate"]))) {
					fail("reader %d: ExplainAnalyze: %v\n%s", r, err, out)
					return
				}
				// a memory budget overrun fails the one query mid-pipeline
				small := qo
				small.MemLimit = 4 << 10
				if _, err := st.Query(fmt.Sprintf("SELECT ?s ?c WHERE { %s } ORDER BY ?c", star), small); !errors.Is(err, exec.ErrMemBudget) {
					fail("reader %d: over-budget sort: %v, want ErrMemBudget", r, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(readersDone)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	for name, q := range queries {
		res, err := st.Query(q, qo)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(res.Rows); !eqSeq(got, want[name]) {
			t.Errorf("%s after quiesce: %d rows, the fresh store %d", name, len(got), len(want[name]))
		}
	}
}
