// Persistence benchmarks: snapshot checkpoint cost, the open fast path
// (lazy vs forcing a cold full scan), and WAL append throughput. All
// three are gated in CI against the main baseline.
package srdf_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/storage"
)

// persistedBenchPath builds an organized two-column store of n subjects
// with a small delta tail and saves it once, returning the snapshot path.
func persistedBenchPath(b *testing.B, n int) string {
	b.Helper()
	st := deltaBenchStore(b, n, 128)
	path := filepath.Join(b.TempDir(), "bench.srdf")
	if err := st.Save(path); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkSnapshot_Save(b *testing.B) {
	st := deltaBenchStore(b, 20000, 128)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(filepath.Join(dir, "save.srdf")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot_Open(b *testing.B) {
	path := persistedBenchPath(b, 20000)
	opts := core.DefaultOptions()
	opts.CompactThreshold = -1

	// lazy: the open fast path — checksum, wire up, decode nothing.
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := core.OpenStore(path, opts)
			if err != nil {
				b.Fatal(err)
			}
			if ps := st.Pool().Stats(); ps.SegmentsDecoded != 0 {
				b.Fatalf("lazy open decoded %d segments", ps.SegmentsDecoded)
			}
		}
	})
	// cold: open plus a first full scan, faulting a column's blocks in.
	b.Run("cold", func(b *testing.B) {
		q := `SELECT ?s ?a WHERE { ?s <http://del/a> ?a . FILTER (?a >= 0) }`
		for i := 0; i < b.N; i++ {
			st, err := core.OpenStore(path, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := st.Query(q, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() == 0 {
				b.Fatal("cold scan returned nothing")
			}
		}
	})
}

// BenchmarkScan_OutOfCore scans an opened snapshot under a pool budget
// half the scan's decoded working set: block decodes compete with LRU
// eviction, so the fault → decode → evict cycle sits on the hot path
// instead of the everything-stays-resident fast case the other scan
// benches measure.
func BenchmarkScan_OutOfCore(b *testing.B) {
	path := persistedBenchPath(b, 20000)
	opts := core.DefaultOptions()
	opts.CompactThreshold = -1
	st, err := core.OpenStore(path, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	q := `SELECT ?s ?a WHERE { ?s <http://del/a> ?a . FILTER (?a >= 0) }`
	// One unlimited pass measures the scan's decoded footprint; the
	// budget is set to half of it so steady state must evict.
	if _, err := st.Query(q, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}); err != nil {
		b.Fatal(err)
	}
	working := st.Pool().Stats().ResidentBytes
	if working == 0 {
		b.Fatal("warm scan decoded nothing")
	}
	st.Pool().SetBudget(working / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query(q, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("out-of-core scan returned nothing")
		}
	}
	b.StopTimer()
	ps := st.Pool().Stats()
	if ps.Evictions == 0 {
		b.Fatalf("no evictions under a tenth-size budget (%d bytes)", opts.PoolBytes)
	}
	b.ReportMetric(float64(ps.Faults)/float64(b.N), "faults/op")
}

func BenchmarkWAL_Append(b *testing.B) {
	w, _, err := storage.OpenWAL(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(storage.Op{T: nt.Triple{
			S: dict.IRI(fmt.Sprintf("http://del/s%07d", i)),
			P: dict.IRI("http://del/a"),
			O: dict.IntLit(int64(i)),
		}})
		// fsync-on-batch: one durable batch per 256 appends
		if i%256 == 255 {
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpen_FirstAnswer is the restart path a client waits for:
// open a 40 k-triple snapshot and answer one query. Open adopts the
// snapshot's SPO-ordered triples section as the SPO projection without a
// sort; the first query sorts only the orders its plan reads (PSO for
// the planner's estimates here), not all six.
func BenchmarkOpen_FirstAnswer(b *testing.B) {
	path := persistedBenchPath(b, 20000)
	opts := core.DefaultOptions()
	opts.CompactThreshold = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.OpenStore(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := st.Query(deltaBenchQuery, core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 20000+128 {
			b.Fatalf("first answer has %d rows", res.Len())
		}
	}
}
