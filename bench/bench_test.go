package main

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"srdf/internal/rdfh"
	"srdf/internal/server"
)

func TestQuantileAndTailPicker(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	// ten samples beyond: p99 needs 1000 samples, p95 200, p90 100, p75 40
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 1}, {8, 1}} {
		v, p := pickTail(xs[:c.n])
		if p != c.want {
			t.Errorf("pickTail(n=%d) picked p%g, want p%g", c.n, p*100, c.want*100)
		}
		if beyond := c.n - int(v); p < 1 && beyond < 10 {
			t.Errorf("pickTail(n=%d) = %v leaves %d samples beyond, want >= 10", c.n, v, beyond)
		}
		if p == 1 && v != float64(c.n) {
			t.Errorf("pickTail(n=%d) = %v, want the maximum", c.n, v)
		}
	}
	if v, p := pickTail(nil); v != 0 || p != 0 {
		t.Errorf("pickTail(nil) = %v, %v", v, p)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100e6},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10e6, EndNS: 30e6},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20e6, EndNS: 50e6}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", StartNS: 60e6, EndNS: 70e6},
		{ID: 5, Parent: 3, Name: "c", StartNS: 25e6, EndNS: 45e6},
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	for name, want := range map[string]layerTime{
		"op": {Spans: 1, TotalMS: 100, SelfMS: 50}, // children cover [10,50] and [60,70]
		"a":  {Spans: 2, TotalMS: 30, SelfMS: 30},
		"b":  {Spans: 1, TotalMS: 30, SelfMS: 10},
		"c":  {Spans: 1, TotalMS: 20, SelfMS: 20},
	} {
		if g := got[name]; g.Spans != want.Spans || g.TotalMS != want.TotalMS || g.SelfMS != want.SelfMS {
			t.Errorf("%s: got %+v, want %+v", name, g, want)
		}
	}
	var tr *tracer // a nil tracer records nothing
	tr.end(tr.begin(tr.beginOp("x"), "y"), nil)
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	c := newCountingFS()
	path := filepath.Join(dir, "log.wal")
	f, err := c.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("header__"), 0)
	f.Sync()
	f.WriteAt([]byte("0123456789"), 8)
	if n, _ := c.syncedLen(path); n != 8 {
		t.Errorf("synced length before the second fsync = %d, want 8", n)
	}
	f.Sync()
	f.WriteAt([]byte("lost"), 18)
	if n, _ := c.syncedLen(path); n != 18 {
		t.Errorf("synced length = %d, want 18", n)
	}
	if got := c.counters(); got != (fsCounters{writes: 3, writeBytes: 22, fsyncs: 2}) {
		t.Errorf("counters = %+v", got)
	}
	crash := filepath.Join(dir, "crash.wal")
	if err := copySynced(path, crash, 18); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(crash); string(data) != "header__0123456789" {
		t.Errorf("crash copy = %q", data)
	}
	f.Truncate(4)
	if n, _ := c.syncedLen(path); n != 4 {
		t.Errorf("synced length after truncate = %d, want 4", n)
	}
	f.Close()

	// the snapshot writer's pattern: temp file, sequential writes, fsync, rename
	tmp, err := c.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("abc"))
	tmp.Write([]byte("defg"))
	tmp.Sync()
	tmp.Close()
	final := filepath.Join(dir, "snap.srdf")
	if err := c.Rename(tmp.Name(), final); err != nil {
		t.Fatal(err)
	}
	if n, ok := c.syncedLen(final); !ok || n != 7 {
		t.Errorf("renamed snapshot synced length = %d (%v), want 7", n, ok)
	}
	if _, ok := c.syncedLen(tmp.Name()); ok {
		t.Error("the temp name is still tracked after the rename")
	}
}

func TestParseBodyAllFormats(t *testing.T) {
	want := exact([][]string{{"http://e/a", "1.5"}, {"http://e/b", "x y"}})
	for mime, body := range map[string]string{
		server.MimeJSON: `{"head":{"vars":["s","v"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://e/b"},"v":{"type":"literal","value":"x y"}},{"s":{"type":"uri","value":"http://e/a"},"v":{"type":"literal","value":"1.5","datatype":"http://www.w3.org/2001/XMLSchema#double"}}]}}`,
		server.MimeCSV:  "s,v\r\nhttp://e/a,1.5\r\nhttp://e/b,x y\r\n",
		server.MimeTSV:  "?s\t?v\n<http://e/a>\t\"1.5\"^^<http://www.w3.org/2001/XMLSchema#double>\n<http://e/b>\t\"x y\"\n",
	} {
		rows, err := parseBody(mime, []byte(body))
		if err != nil {
			t.Fatalf("%s: %v", mime, err)
		}
		if err := want.check(rows); err != nil {
			t.Errorf("%s: %v", mime, err)
		}
		if err := exact([][]string{{"http://e/a", "1.5"}}).check(rows); err == nil {
			t.Errorf("%s: a missing row was not noticed", mime)
		}
	}
	approx := expect{approx: [][]string{{"A", "", "100.0000001"}}}
	if err := approx.check([][]string{{"A", "anything", "100"}}); err != nil {
		t.Errorf("approx within tolerance: %v", err)
	}
	if err := approx.check([][]string{{"A", "anything", "101"}}); err == nil {
		t.Error("approx beyond tolerance was accepted")
	}
}

func sequenceHash(gen func(c, i int) request, clients, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			rq := gen(c, i)
			h.Write([]byte(rq.class + "\x00" + rq.text + "\x00" + rq.mime + "\x00"))
		}
	}
	return h.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	const sf = 0.0005
	d1, d1again, d2 := rdfh.Generate(sf, 1), rdfh.Generate(sf, 1), rdfh.Generate(sf, 2)
	for name, mk := range map[string]func(d *rdfh.Data, seed int64) func(c, i int) request{
		"lookup": func(d *rdfh.Data, seed int64) func(c, i int) request { return lookupSequence(d, seed, 2) },
		"report": func(d *rdfh.Data, seed int64) func(c, i int) request { return reportSequence(d, seed, 2) },
	} {
		a, b, c := sequenceHash(mk(d1, 1), 2, 200), sequenceHash(mk(d1again, 1), 2, 200), sequenceHash(mk(d2, 2), 2, 200)
		if a != b {
			t.Errorf("%s: the same seed gave two request sequences", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same request sequence", name)
		}
	}
	if got, want := refQ6Window(d1.Lineitems, 1994), rdfh.RefQ6(d1); got != want {
		t.Errorf("refQ6Window(1994) = %v, rdfh.RefQ6 = %v", got, want)
	}

	// same seed: the same snapshot bytes per triple and the same write
	// amplification, cycle for cycle
	measure := func(seed int64) (snapshotBytes int64, writeAmp float64) {
		u, err := newUpdate(sf, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer u.close()
		rec := newRecorder()
		for i := 0; i < 2; i++ {
			if err := u.cycle(nil, rec); err != nil {
				t.Fatal(err)
			}
		}
		if rec.failed > 0 {
			t.Fatalf("update cycles failed: %v", rec.firstErr)
		}
		if err := u.verify(); err != nil {
			t.Fatalf("durability check: %v", err)
		}
		st, err := os.Stat(u.snap)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size(), float64(u.fs.counters().writeBytes) / float64(u.userBytes)
	}
	s1, w1 := measure(1)
	s2, w2 := measure(1)
	if s1 != s2 || w1 != w2 {
		t.Errorf("same seed: snapshot %d vs %d bytes, write_amp %v vs %v", s1, s2, w1, w2)
	}
	if w1 <= 0 {
		t.Errorf("write_amp = %v, want > 0", w1)
	}
}

// A failed operation weighs on the percentiles as an answer that never
// came and earns no throughput.
func TestFailedOperationsMissEveryLimit(t *testing.T) {
	rec := newRecorder()
	for i := 0; i < 98; i++ {
		rec.op("q", time.Millisecond)
	}
	rec.fail("q", errors.New("refused"))
	rec.fail("q", errors.New("refused"))
	rec.wallS = 1
	m := rec.endToEnd()
	if !math.IsInf(m["latency_p99_ms"], 1) {
		t.Errorf("p99 with 2 failures in 100 = %v, want +Inf", m["latency_p99_ms"])
	}
	if m["latency_p50_ms"] != 1 || m["query_geomean_ms"] != 1 {
		t.Errorf("p50 = %v, geomean = %v, want 1, 1", m["latency_p50_ms"], m["query_geomean_ms"])
	}
	if m["throughput_qps"] != 98 {
		t.Errorf("throughput = %v, want the 98 correct answers", m["throughput_qps"])
	}
	if rec.attempted != 100 || rec.failed != 2 {
		t.Errorf("attempted %d, failed %d", rec.attempted, rec.failed)
	}
	out, err := report("test", []metricDef{{Name: "latency_p99_ms", Unit: "ms"}}, map[string]float64{"latency_p99_ms": m["latency_p99_ms"]}, rec)
	if err != nil || out.Correct {
		t.Fatalf("report: %+v, %v", out, err)
	}
	if _, err := json.Marshal(out); err != nil {
		t.Errorf("the result line of a failed run: %v", err)
	}
	if _, err := report("test", nil, map[string]float64{"typo": 1}, rec); err == nil {
		t.Error("a metric missing from the catalogue was accepted")
	}
}

// BENCHMARK.json names exactly the workloads the program implements.
func TestCatalogueLoads(t *testing.T) {
	cat, err := loadCatalogue(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		if cat.why(w.Name) == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if len(cat.EndToEnd) == 0 || len(cat.PerLayer) == 0 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(cat.EndToEnd), len(cat.PerLayer))
	}
}
