package srdf_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

// deltaBenchStore builds an organized store of n clustered subjects and
// trickles extra delta rows of the same shape on top (auto-compaction
// disabled so the delta tail stays unsealed).
func deltaBenchStore(b *testing.B, n, delta int) *core.Store {
	b.Helper()
	var src strings.Builder
	src.WriteString("@prefix d: <http://del/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "d:s%06d d:a %d ; d:b %d .\n", i, i%9973, i%89)
	}
	opts := core.DefaultOptions()
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(src.String())); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	addDelta(st, n, delta)
	return st
}

// addDelta trickles count fresh subjects shaped like the clustered ones.
func addDelta(st *core.Store, base, count int) {
	for i := 0; i < count; i++ {
		s := dict.IRI(fmt.Sprintf("http://del/s%06d", base+i))
		st.Add(nt.Triple{S: s, P: dict.IRI("http://del/a"), O: dict.IntLit(int64(i % 9973))})
		st.Add(nt.Triple{S: s, P: dict.IRI("http://del/b"), O: dict.IntLit(int64(i % 89))})
	}
}

const deltaBenchQuery = `PREFIX d: <http://del/>
SELECT ?s ?x WHERE { ?s d:a ?x . ?s d:b ?y . }`

// deltaBenchRangeQuery is deltaBenchQuery with a range FILTER pushed
// into the scan, which the kernels test on every block (a third of the
// rows pass).
const deltaBenchRangeQuery = `PREFIX d: <http://del/>
SELECT ?s ?x WHERE { ?s d:a ?x . ?s d:b ?y . FILTER (?y < 30) }`

// BenchmarkStream_DeltaScan measures the RDF-H-style update workload
// read path: a multi-block sealed table scanned through selection
// vectors followed by the unsealed delta tail. The sealed variant is
// the no-updates baseline; delta4096 carries a 4096-row unsealed tail
// plus tombstones from 512 deletions, and delta4096-range scans the
// same store under a range FILTER, so the per-row predicate cost of
// the tail shows.
func BenchmarkStream_DeltaScan(b *testing.B) {
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	run := func(b *testing.B, st *core.Store, q string) {
		// fold pending writes in once, outside the timer
		st.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := st.QueryStream(context.Background(), q, qo)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			rows.Close()
		}
	}
	withDeletes := func(b *testing.B) *core.Store {
		st := deltaBenchStore(b, 20000, 4096)
		for i := 0; i < 512; i++ {
			s := dict.IRI(fmt.Sprintf("http://del/s%06d", i*7))
			st.Delete(nt.Triple{S: s, P: dict.IRI("http://del/a"), O: dict.IntLit(int64((i * 7) % 9973))})
		}
		return st
	}
	b.Run("sealed", func(b *testing.B) {
		run(b, deltaBenchStore(b, 20000, 0), deltaBenchQuery)
	})
	b.Run("delta4096", func(b *testing.B) {
		run(b, withDeletes(b), deltaBenchQuery)
	})
	b.Run("delta4096-range", func(b *testing.B) {
		run(b, withDeletes(b), deltaBenchRangeQuery)
	})
}

// BenchmarkCompact_Merge measures Store.Compact folding a 4096-row
// delta into freshly sealed segments — the cost the auto-compaction
// threshold amortizes, and the cheap alternative to the full Organize
// measured by benchOrganize-style runs.
func BenchmarkCompact_Merge(b *testing.B) {
	st := deltaBenchStore(b, 20000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		addDelta(st, 100000+i*4096, 4096)
		st.Stats() // apply the delta outside the timer
		b.StartTimer()
		if _, err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefresh_AfterBatch measures what a read pays to see a batch:
// the refresh that folds 12 k appended triples (6 k new subjects) into a
// 200 k-triple organized store whose previous epoch had SPO, PSO and POS
// sorted — the appended rows are sorted and merged into those three, the
// touched subjects re-routed through the delta layer. The batch is
// deleted again outside the timer so every iteration starts from the
// same store.
func BenchmarkRefresh_AfterBatch(b *testing.B) {
	const n, batch = 100000, 6000
	st := deltaBenchStore(b, n, 0)
	if _, err := st.Query(deltaBenchQuery, core.QueryOptions{Mode: plan.ModeDefault}); err != nil {
		b.Fatal(err) // a Default plan: sorts PSO and POS
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		addDelta(st, n, batch)
		b.StartTimer()
		if got := st.Stats().Triples; got != 2*(n+batch) {
			b.Fatalf("%d triples after the batch, want %d", got, 2*(n+batch))
		}
		b.StopTimer()
		for j := 0; j < batch; j++ {
			s := dict.IRI(fmt.Sprintf("http://del/s%06d", n+j))
			st.Delete(nt.Triple{S: s, P: dict.IRI("http://del/a"), O: dict.IntLit(int64(j % 9973))})
			st.Delete(nt.Triple{S: s, P: dict.IRI("http://del/b"), O: dict.IntLit(int64(j % 89))})
		}
		st.Stats()
		b.StartTimer()
	}
}

// BenchmarkRefresh_AfterDelete is the delete side of
// BenchmarkRefresh_AfterBatch: the refresh that folds 1 000 deletions,
// one triple each of 1 000 clustered subjects, into the same 200
// k-triple store with SPO, PSO and POS sorted — the deleted triples are
// merged out of those three, and the touched subjects tombstoned and
// re-routed through the delta layer. The triples are added back outside
// the timer so every iteration starts from the same store.
func BenchmarkRefresh_AfterDelete(b *testing.B) {
	const n, batch = 100000, 1000
	st := deltaBenchStore(b, n, 0)
	if _, err := st.Query(deltaBenchQuery, core.QueryOptions{Mode: plan.ModeDefault}); err != nil {
		b.Fatal(err) // a Default plan: sorts PSO and POS
	}
	victim := func(j int) nt.Triple {
		i := j * (n / batch)
		return nt.Triple{S: dict.IRI(fmt.Sprintf("http://del/s%06d", i)), P: dict.IRI("http://del/a"), O: dict.IntLit(int64(i % 9973))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			st.Delete(victim(j))
		}
		b.StartTimer()
		if got := st.Stats().Triples; got != 2*n-batch {
			b.Fatalf("%d triples after the deletions, want %d", got, 2*n-batch)
		}
		b.StopTimer()
		for j := 0; j < batch; j++ {
			st.Add(victim(j))
		}
		st.Stats()
		b.StartTimer()
	}
}
