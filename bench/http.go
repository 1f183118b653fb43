package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"srdf"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/rdfh"
	"srdf/internal/server"
	"srdf/internal/sparql"
)

// request is one SPARQL protocol request and the answer it must get.
type request struct {
	class string
	text  string
	mime  string
	want  expect
	// fixed >= 0 numbers a (text, format) pair the workload repeats: its
	// body repeats byte for byte, so after one full check later bodies
	// are compared by CRC and parsed again only when that differs.
	fixed int
}

// httpInstance is a snapshot-opened store behind the real HTTP handler
// on a loopback listener, driven by closed-loop keep-alive clients.
type httpInstance struct {
	data  *rdfh.Data
	store *srdf.Store
	hs    *http.Server
	base  string
	done  chan error

	// gen is client c's i-th request: a pure function of the seed.
	gen      func(c, i int) request
	roundLen int   // requests in one "round" of the per-round pool metrics
	pos      []int // next request index per client, carried across runs

	deltas []counters // one per run call, in order
	note   string     // printed with the per-layer metrics
}

// openHTTP opens the snapshot with the given pool budget and serves it
// with `srdf serve` defaults.
func openHTTP(d *rdfh.Data, snapshot string, poolBytes int64) (*httpInstance, error) {
	opts := srdf.Defaults()
	opts.PoolBytes = poolBytes
	st, err := srdf.Open(snapshot, opts)
	if err != nil {
		return nil, err
	}
	srv := server.New(st, server.Config{QueryTimeout: 30 * time.Second, Query: queryOpts})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	h := &httpInstance{data: d, store: st, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1), roundLen: 1,
		pos: make([]int, runtime.GOMAXPROCS(0))}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *httpInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func (h *httpInstance) verify() error { return nil }

// counters are the cumulative layer counters read at run boundaries.
type counters struct {
	planHits, planMisses      uint64
	poolHits, poolMisses      uint64
	poolFaults, poolEvictions uint64
	scanRows, resultRows      int64
	mallocs, allocBytes       uint64
	requests                  int
}

func (h *httpInstance) read() counters {
	pc := h.store.PlanCacheStats()
	ps := h.store.PoolStats()
	_, rows := h.store.QueryLogCounts()
	return counters{planHits: pc.Hits, planMisses: pc.Misses, poolHits: ps.Hits, poolMisses: ps.Misses,
		poolFaults: ps.Faults, poolEvictions: ps.Evictions, scanRows: exec.ScanRowsTotal(), resultRows: int64(rows)}
}

func (a counters) minus(b counters) counters {
	return counters{planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		poolHits: a.poolHits - b.poolHits, poolMisses: a.poolMisses - b.poolMisses,
		poolFaults: a.poolFaults - b.poolFaults, poolEvictions: a.poolEvictions - b.poolEvictions,
		scanRows: a.scanRows - b.scanRows, resultRows: a.resultRows - b.resultRows}
}

func (h *httpInstance) run(seconds float64, clients int, tr *tracer, rec *recorder) error {
	before := h.read()
	// one time slice per whole second: throughput and the medians are
	// medians over the slices
	rec.start, rec.slices, rec.wallS = time.Now(), max(1, int(seconds)), seconds
	h.drive(rec.start.Add(time.Duration(seconds*float64(time.Second))), 0, clients, tr, rec)
	d := h.read().minus(before)
	d.requests = rec.attempted
	h.deltas = append(h.deltas, d)
	return nil
}

// warm sends a fixed number of requests from one client (set-up work).
func (h *httpInstance) warm(requests int) error {
	rec := newRecorder()
	h.drive(time.Time{}, requests, 1, nil, rec)
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", rec.failed, rec.attempted, rec.firstErr)
	}
	return nil
}

// drive runs the closed loop: each client sends its next request only
// after the previous answer was read to its last byte. It stops at the
// deadline or, when count > 0, after count requests per client.
func (h *httpInstance) drive(deadline time.Time, count, clients int, tr *tracer, rec *recorder) {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = newRecorder()
		recs[c].start = rec.start
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.client(c, deadline, count, tr, recs[c])
		}(c)
	}
	wg.Wait()
	for _, r := range recs {
		rec.merge(r)
	}
}

func (h *httpInstance) client(c int, deadline time.Time, count int, tr *tracer, rec *recorder) {
	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer cl.CloseIdleConnections()
	checked := make(map[int]uint32) // fixed request -> CRC of its checked body
	var body bytes.Buffer
	for n := 0; ; n++ {
		if count > 0 && n >= count || count == 0 && !time.Now().Before(deadline) {
			return
		}
		rq := h.gen(c, h.pos[c])
		h.pos[c]++
		op := tr.beginOp("op." + rq.class)
		sp := tr.begin(op, "http.roundtrip")
		t0 := time.Now()
		err := post(cl, h.base+"/sparql", rq, &body)
		d := time.Since(t0)
		tr.end(sp, nil)
		if err == nil {
			err = checkBody(rq, body.Bytes(), checked)
		}
		if err != nil {
			rec.fail(rq.class, fmt.Errorf("%s: %w", rq.class, err))
		} else {
			rec.op(rq.class, d)
		}
		if tr != nil {
			h.replay(tr, op, rq, n)
			tr.end(op, nil)
		}
	}
}

// post sends one request and reads the whole answer into body; anything
// but a 200 is an error.
func post(cl *http.Client, url string, rq request, body *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(rq.text))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", rq.mime)
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.100s", resp.StatusCode, body.String())
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checkBody(rq request, body []byte, checked map[int]uint32) error {
	var sum uint32
	if rq.fixed >= 0 {
		sum = crc32.Checksum(body, crcTable)
		if prev, ok := checked[rq.fixed]; ok && prev == sum {
			return nil
		}
	}
	rows, err := parseBody(rq.mime, body)
	if err != nil {
		return fmt.Errorf("unparsable %s body: %w", rq.mime, err)
	}
	if err := rq.want.check(rows); err != nil {
		return err
	}
	if rq.fixed >= 0 {
		checked[rq.fixed] = sum
	}
	return nil
}

var mimes = []string{server.MimeJSON, server.MimeCSV, server.MimeTSV}

// mimeShort names a format in metric and span names.
func mimeShort(m string) string {
	switch m {
	case server.MimeCSV:
		return "csv"
	case server.MimeTSV:
		return "tsv"
	}
	return "json"
}

// bufferedRows replays drained rows to a serializer, so serialization is
// timed without the execution that produced the rows.
type bufferedRows struct {
	vars []string
	rows [][]dict.Value
	at   int
	term func(dict.Value) (dict.Term, bool)
}

func (b *bufferedRows) Vars() []string                      { return b.vars }
func (b *bufferedRows) Next() bool                          { b.at++; return b.at <= len(b.rows) }
func (b *bufferedRows) Row() []dict.Value                   { return b.rows[b.at-1] }
func (b *bufferedRows) Term(v dict.Value) (dict.Term, bool) { return b.term(v) }
func (b *bufferedRows) Err() error                          { return nil }

// replay makes, in process, the layer calls the server made for the
// request just answered: parse, parse+plan (Explain), run (the text is
// in the plan cache now) and serialization, each under its own span.
// The serialized format rotates so every run measures all three.
func (h *httpInstance) replay(tr *tracer, op int, rq request, n int) {
	sp := tr.begin(op, "sparql.parse")
	_, perr := sparql.Parse(rq.text)
	tr.end(sp, nil)

	sp = tr.begin(op, "plan.explain")
	_, eerr := h.store.Explain(rq.text, queryOpts)
	tr.end(sp, nil)

	scan0 := exec.ScanRowsTotal()
	sp = tr.begin(op, "exec.run")
	buf := &bufferedRows{}
	rows, rerr := h.store.QueryStreamCtx(context.Background(), rq.text, queryOpts)
	if rerr == nil {
		buf.vars, buf.term = rows.Vars(), rows.Term
		for rows.Next() {
			buf.rows = append(buf.rows, append([]dict.Value(nil), rows.Row()...))
		}
		rerr = rows.Err()
	}
	tr.end(sp, map[string]int64{"rows": int64(len(buf.rows)), "scan_rows": exec.ScanRowsTotal() - scan0})

	mime := mimes[n%len(mimes)]
	ser, _ := server.SerializerFor(mime)
	sp = tr.begin(op, "server.serialize."+mimeShort(mime))
	_, serr := ser.Write(io.Discard, buf)
	tr.end(sp, map[string]int64{"rows": int64(len(buf.rows))})

	for _, err := range []error{perr, eerr, rerr, serr} {
		if err != nil {
			panic(fmt.Sprintf("bench: replay of a request the server answered failed: %v", err))
		}
	}
}

// spanDurations groups span durations (µs) by name, and for spans with a
// "rows" counter the duration per row.
func spanDurations(spans []span) (us, usPerRow map[string][]float64) {
	us, usPerRow = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		d := float64(s.EndNS-s.StartNS) / 1e3
		us[s.Name] = append(us[s.Name], d)
		if rows := s.Counters["rows"]; rows > 0 {
			usPerRow[s.Name] = append(usPerRow[s.Name], d/float64(rows))
		}
	}
	return us, usPerRow
}

func (h *httpInstance) layers(tr *tracer, untraced, traced *recorder) (layerReport, error) {
	rep := layerReport{metrics: make(map[string]float64), plans: make(map[string]string)}
	m := rep.metrics
	d := h.deltas[len(h.deltas)-2] // the untraced run: pure HTTP traffic
	rounds := float64(d.requests) / float64(h.roundLen)
	m["core.plancache_hit_ratio"] = ratio(float64(d.planHits), float64(d.planHits+d.planMisses))
	m["colstore.pool_faults_per_round"] = ratio(float64(d.poolFaults), rounds)
	m["colstore.pool_evictions_per_round"] = ratio(float64(d.poolEvictions), rounds)
	m["colstore.pool_hit_ratio"] = ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses))
	m["exec.scan_rows_per_result_row"] = ratio(float64(d.scanRows), float64(d.resultRows))
	ps := h.store.PoolStats()
	m["colstore.resident_bytes"] = float64(ps.ResidentBytes)
	m["colstore.budget_bytes"] = float64(ps.BudgetBytes)
	m["colstore.compression_ratio"] = ps.CompressionRatio
	if h.note != "" {
		rep.notes = append(rep.notes, h.note)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("pool at rest: resident %d B, budget %d B (0 = unlimited), %d blocks decoded, %d lazy",
		ps.ResidentBytes, ps.BudgetBytes, ps.SegmentsDecoded, ps.SegmentsLazy))

	us, usPerRow := spanDurations(tr.spans)
	parse, explain, run := median(us["sparql.parse"]), median(us["plan.explain"]), median(us["exec.run"])
	m["sparql.parse_us"] = parse
	m["plan.build_us"] = explain - parse
	m["exec.run_us"] = run
	var serialize float64
	for _, mime := range mimes {
		name := "server.serialize." + mimeShort(mime)
		m["server.serialize_us_per_row."+mimeShort(mime)] = median(usPerRow[name])
		serialize += median(us[name]) / float64(len(mimes))
	}
	// What the HTTP round trip costs beyond the layer calls it makes: a
	// plan-cache hit skips parse and plan, so they count by the miss share.
	miss := 1 - m["core.plancache_hit_ratio"]
	probes := miss*explain + run + serialize
	httpP50 := untraced.p50() * 1e3
	m["server.http_residual_us"] = httpP50 - probes
	rep.notes = append(rep.notes, fmt.Sprintf("serve path, one client: HTTP p50 %.1f us = layer probes %.1f us (parse+plan %.1f x miss share %.2f, run %.1f, serialize %.1f) + residual %.1f us",
		httpP50, probes, explain, miss, run, serialize, httpP50-probes))

	status, err := h.scrape()
	if err != nil {
		return rep, err
	}
	for name, v := range status {
		if strings.HasPrefix(name, `srdf_queries_total{status="`) && name != `srdf_queries_total{status="ok"}` {
			m["server.status_other"] += v
		}
	}
	m["server.status_ok"] = status[`srdf_queries_total{status="ok"}`]
	m["server.queued"] = status["srdf_admission_queued"]

	for _, class := range sortedKeys(traced.classes) {
		text := h.classText(class)
		if text == "" {
			continue
		}
		plan, err := h.store.ExplainAnalyze(context.Background(), text, queryOpts)
		if err != nil {
			return rep, fmt.Errorf("explain analyze %s: %w", class, err)
		}
		rep.plans[class] = plan
	}
	return rep, nil
}

// classText finds a request text of the class in client 0's sequence.
func (h *httpInstance) classText(class string) string {
	for i := 0; i < 64; i++ {
		if rq := h.gen(0, i); rq.class == class {
			return rq.text
		}
	}
	return ""
}

// scrape reads the server's /metrics into name -> value.
func (h *httpInstance) scrape() (map[string]float64, error) {
	resp, err := http.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ln := sc.Text()
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if i := strings.LastIndexByte(ln, ' '); i > 0 {
			if v, err := strconv.ParseFloat(ln[i+1:], 64); err == nil {
				out[ln[:i]] = v
			}
		}
	}
	return out, sc.Err()
}
