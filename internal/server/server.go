// Package server is the SPARQL Protocol front end over the srdf store:
// an HTTP endpoint serving SELECT queries from the lock-free epoch
// snapshots, with per-query timeouts and client-disconnect cancellation
// threaded through the executor, semaphore admission control, a
// prepared-plan cache underneath (in core), content-negotiated
// JSON/CSV/TSV result streaming, graceful shutdown that drains open
// result streams, and observability: a unified telemetry registry
// behind /metrics, EXPLAIN ANALYZE via the explain=analyze parameter,
// the structured query log behind /debug/queries, structured access
// and slow-query logging with per-request ids, and a pprof/expvar
// debug handler meant for a separate private listener.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/obs"
)

// Config tunes the endpoint.
type Config struct {
	// MaxConcurrent caps simultaneously executing queries; 0 means
	// GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// MaxConcurrent; past it requests are rejected with 503. Negative
	// means no queue (reject as soon as all slots are busy); 0 means
	// 2×MaxConcurrent.
	QueueDepth int
	// QueryTimeout bounds one query, queue wait included; <=0 disables.
	QueryTimeout time.Duration
	// MaxQueryBytes caps the request query text; 0 means 1 MiB.
	MaxQueryBytes int64
	// MaxQueryMem bounds the bytes one query's materializing operators
	// (hash-join builds, aggregation state, sort rows, DISTINCT keys)
	// may retain; 0 means unlimited. A query over budget fails with 413
	// while concurrent queries keep running.
	MaxQueryMem int64
	// MaxResultRows caps rows serialized per response; 0 means
	// unlimited. A response hitting the cap is aborted mid-stream —
	// like a timeout, the truncated transfer is the honest signal that
	// the result is incomplete.
	MaxResultRows int64
	// SlowQuery is the completed-query duration at which the access log
	// escalates to a warning that includes the query text; <=0 disables
	// slow-query logging.
	SlowQuery time.Duration
	// Log receives the structured access and slow-query log; nil
	// discards it (tests, silent embedding).
	Log *slog.Logger
	// Query selects the plan configuration every request runs under.
	Query srdf.QueryOptions
}

// Server is the SPARQL-over-HTTP front end. Create with New, serve with
// ListenAndServe (or mount Handler in an existing mux), stop with
// Shutdown — which stops accepting, then waits for open result streams
// to drain.
type Server struct {
	store  *srdf.Store
	cfg    Config
	adm    *admission
	reg    *obs.Registry
	met    *serverMetrics
	log    *slog.Logger
	mux    *http.ServeMux
	hs     *http.Server
	ln     atomic.Pointer[net.Listener]
	start  time.Time
	reqSeq atomic.Uint64
	// draining flips when Shutdown begins: /healthz turns 503 so load
	// balancers stop routing here while open streams finish.
	draining atomic.Bool

	// rowHook, when set (tests only), runs before each result row is
	// handed to the serializer — it makes "a stream is open" a
	// controllable condition for shutdown-drain tests.
	rowHook func()
}

// New builds a server over an opened store.
func New(store *srdf.Store, cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = 1 << 20
	}
	if cfg.MaxQueryMem > 0 {
		cfg.Query.MemLimit = cfg.MaxQueryMem
	}
	reg := obs.NewRegistry()
	s := &Server{
		store: store,
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		reg:   reg,
		met:   newServerMetrics(reg),
		log:   cfg.Log,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.registerDerivedMetrics()
	s.mux.HandleFunc("/sparql", s.recovered(s.handleSPARQL))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	// built here, not in ListenAndServe, so Shutdown is race-free even
	// when serving starts on another goroutine
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the routing handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the runtime-introspection mux — pprof, expvar,
// the structured query log, and a second /metrics — intended for a
// separate non-public listener (srdf serve -debug-addr), never the
// query port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// ListenAndServe binds addr and serves until Shutdown (returning nil)
// or a listener error. With port 0, Addr reports the bound address once
// this has been called.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln.Store(&ln)
	err = s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr reports the bound listen address ("" before ListenAndServe).
func (s *Server) Addr() string {
	ln := s.ln.Load()
	if ln == nil {
		return ""
	}
	return (*ln).Addr().String()
}

// Shutdown stops accepting connections and waits — up to ctx — for
// in-flight requests, open result streams included, to finish. From the
// first call on, /healthz answers 503 so load balancers drain traffic.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs == nil {
		return nil
	}
	s.draining.Store(true)
	return s.hs.Shutdown(ctx)
}

// nextReqID mints a per-request id: a process prefix (low bits of the
// start time, so ids from distinct restarts differ) and a sequence.
func (s *Server) nextReqID() string {
	return fmt.Sprintf("%08x-%06d", uint32(s.start.UnixNano()), s.reqSeq.Add(1))
}

// handleHealthz reports liveness and degradation. A read-only store
// still serves queries, so it stays 200 (in rotation) with a body that
// says what is wrong; only a draining shutdown answers 503. Every state
// carries the published snapshot epoch and the server uptime.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tail := fmt.Sprintf("epoch: %d\nuptime_seconds: %d\n",
		s.store.Epoch(), int64(time.Since(s.start).Seconds()))
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "status: draining\n"+tail)
		return
	}
	h := s.store.Health()
	if h.State != core.StateHealthy {
		fmt.Fprintf(w, "status: degraded\nmode: %s\ncause: %s\n", h.State, h.Err)
		if !h.Since.IsZero() {
			fmt.Fprintf(w, "since: %s\n", h.Since.UTC().Format(time.RFC3339))
		}
		if h.RetryIn > 0 {
			fmt.Fprintf(w, "retry-in: %s\n", h.RetryIn.Round(time.Millisecond))
		}
		io.WriteString(w, tail)
		return
	}
	io.WriteString(w, "status: ok\n"+tail)
}

// recovered wraps a handler with panic recovery: anything escaping the
// handler — including executor panics surfacing on the serialization
// goroutine — fails the one request, never the process. A panic before
// the response started gets a 500; after, the connection is aborted
// (the truncated transfer is the remaining honest signal).
// http.ErrAbortHandler passes through: it is the deliberate abort idiom
// and net/http handles it quietly.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil || rec == http.ErrAbortHandler {
				if rec != nil {
					panic(rec)
				}
				return
			}
			err := exec.NewPanicError("http handler", rec)
			s.met.handlerPanics.Add(1)
			s.met.queriesErr.Inc()
			s.log.Error("handler panic", "err", err.Error())
			if !tw.wrote {
				http.Error(tw, "internal error: "+err.Error(), http.StatusInternalServerError)
				return
			}
			panic(http.ErrAbortHandler)
		}()
		h(tw, r)
	}
}

// trackingWriter records whether the response has started, which decides
// whether a recovered panic can still produce a status code.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (Flusher etc.) through the wrapper.
func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// queryText extracts the query per the SPARQL 1.1 Protocol: GET with a
// query parameter, POST with URL-encoded parameters, or POST with the
// bare query as the application/sparql-query body.
func (s *Server) queryText(w http.ResponseWriter, r *http.Request) (string, bool) {
	switch r.Method {
	case http.MethodGet:
		if !r.URL.Query().Has("query") {
			http.Error(w, "missing query parameter", http.StatusBadRequest)
			return "", false
		}
		return r.URL.Query().Get("query"), true
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxQueryBytes)
		ct := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil && ct != "" {
			http.Error(w, "malformed Content-Type", http.StatusBadRequest)
			return "", false
		}
		switch mt {
		case "application/x-www-form-urlencoded", "":
			if err := r.ParseForm(); err != nil {
				http.Error(w, "malformed form body", http.StatusBadRequest)
				return "", false
			}
			if _, ok := r.PostForm["query"]; !ok {
				http.Error(w, "missing query parameter", http.StatusBadRequest)
				return "", false
			}
			return r.PostForm.Get("query"), true
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "unreadable body", http.StatusBadRequest)
				return "", false
			}
			return string(body), true
		default:
			http.Error(w, "use application/x-www-form-urlencoded or application/sparql-query",
				http.StatusUnsupportedMediaType)
			return "", false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return "", false
	}
}

// explainParam reads the optional explain= request parameter (URL query
// or, for form posts, the parsed form).
func explainParam(r *http.Request) string {
	if v := r.URL.Query().Get("explain"); v != "" {
		return v
	}
	if r.Form != nil {
		return r.Form.Get("explain")
	}
	return ""
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	query, ok := s.queryText(w, r)
	if !ok {
		return
	}
	explain := explainParam(r)
	if explain != "" && explain != "analyze" {
		http.Error(w, "unsupported explain mode (use explain=analyze)", http.StatusBadRequest)
		return
	}
	var ser Serializer
	if explain == "" {
		format, ok := Negotiate(r.Header.Get("Accept"))
		if !ok {
			http.Error(w, "acceptable formats: "+MimeJSON+", "+MimeCSV+", "+MimeTSV,
				http.StatusNotAcceptable)
			return
		}
		ser, _ = SerializerFor(format)
	}

	reqID := s.nextReqID()
	w.Header().Set("X-SRDF-Request", reqID)
	started := time.Now()
	outcome := "error"
	var rowsOut int64
	defer func() {
		d := time.Since(started)
		s.log.Info("query",
			"id", reqID, "remote", r.RemoteAddr, "outcome", outcome,
			"rows", rowsOut, "dur", d.Round(time.Microsecond).String(),
			"analyze", explain != "")
		if s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery {
			s.log.Warn("slow query",
				"id", reqID, "dur", d.Round(time.Microsecond).String(), "query", query)
		}
	}()

	ctx := core.WithRequestID(r.Context(), reqID)
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// Admission: a slot, a bounded wait, or an immediate 503.
	if err := s.adm.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			outcome = "rejected"
			s.met.queriesRejected.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		case errors.Is(err, context.DeadlineExceeded):
			outcome = "timeout"
			s.met.queriesTimeout.Inc()
			http.Error(w, "query timed out waiting for an execution slot", http.StatusRequestTimeout)
		default: // client went away while queued
			outcome = "canceled"
			s.met.queriesCanceled.Inc()
		}
		return
	}
	defer s.adm.release()

	if explain == "analyze" {
		outcome = s.serveExplainAnalyze(ctx, w, query, started)
		return
	}

	rows, err := s.store.QueryStreamCtx(ctx, query, s.cfg.Query)
	if err != nil {
		outcome = s.failQuery(w, err)
		return
	}
	defer rows.Close()

	// Probe the first row before committing a status code, so a query
	// that times out (or whose client vanishes) before producing
	// anything still gets an honest status instead of an empty 200.
	src := &peekSource{rows: rows, hook: s.rowHook, limit: s.cfg.MaxResultRows}
	src.prime()
	if err := rows.Err(); err != nil && !src.has {
		outcome = s.failQuery(w, err)
		return
	}

	w.Header().Set("Content-Type", ser.ContentType())
	n, werr := ser.Write(w, src)
	rowsOut = int64(n)
	s.met.rowsSent.Add(uint64(n))
	s.met.latency.Observe(time.Since(started).Seconds())
	if werr != nil {
		// The response is already streaming: a 200 status is out, so
		// count the outcome and abort the connection — a truncated
		// transfer is the one signal left that the result is incomplete.
		outcome = s.failQuery(nil, werr)
		panic(http.ErrAbortHandler)
	}
	if src.capped {
		// Row cap hit mid-stream: abort rather than pretend the result
		// is complete — same honesty contract as a timeout.
		outcome = "row_capped"
		s.met.queriesCapped.Inc()
		panic(http.ErrAbortHandler)
	}
	outcome = "ok"
	s.met.queriesOK.Inc()
}

// failQuery classifies a failed query once for every path: it counts
// the failure in its srdf_queries_total series, answers with the
// matching status — 400 bad query, 413 memory budget, 408 timeout, 500
// anything else (recovered pipeline panics included: the query failed,
// the process is fine), nothing for a client that went away — and
// returns the outcome label for the access log. A nil w means the 200
// is already out mid-stream: the failure is only counted, and the
// caller aborts the transfer.
func (s *Server) failQuery(w http.ResponseWriter, err error) string {
	var (
		bad     *core.BadQueryError
		outcome string
		c       *obs.Counter
		status  int
		msg     string
	)
	switch {
	case errors.As(err, &bad):
		outcome, c = "bad_query", s.met.queriesBad
		status, msg = http.StatusBadRequest, "bad query: "+err.Error()
	case errors.Is(err, exec.ErrMemBudget):
		outcome, c = "mem_budget", s.met.queriesMem
		status, msg = http.StatusRequestEntityTooLarge, "query memory budget exceeded: "+err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		outcome, c = "timeout", s.met.queriesTimeout
		status, msg = http.StatusRequestTimeout, "query timed out"
	case errors.Is(err, context.Canceled):
		outcome, c = "canceled", s.met.queriesCanceled
	default:
		outcome, c = "error", s.met.queriesErr
		status, msg = http.StatusInternalServerError, "query failed: "+err.Error()
	}
	c.Inc()
	if w != nil && status != 0 {
		http.Error(w, msg, status)
	}
	return outcome
}

// serveExplainAnalyze executes the query under EXPLAIN ANALYZE and
// writes the annotated plan as text/plain, mapping failures to the same
// status codes the streaming path uses. It returns the outcome label
// for the access log.
func (s *Server) serveExplainAnalyze(ctx context.Context, w http.ResponseWriter, query string, started time.Time) string {
	text, err := s.store.ExplainAnalyze(ctx, query, s.cfg.Query)
	if err != nil {
		return s.failQuery(w, err)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, text)
	s.met.latency.Observe(time.Since(started).Seconds())
	s.met.queriesOK.Inc()
	return "ok"
}

// peekSource adapts core.Rows to RowSource: it hands the serializer the
// undecoded cells (Rows.Cells) and resolves their OIDs a batch at a time
// (Rows.Terms), holds one row of lookahead (see handleSPARQL), and stops
// the stream after limit rows (0: unlimited), flagging the truncation so
// the handler can abort the transfer. The peeked row is copied: Rows
// reuses its cell slice on Next, and the serializer reads the peek after
// a real Next.
type peekSource struct {
	rows   *core.Rows
	has    bool
	used   bool
	peeked []dict.Value
	hook   func()
	limit  int64
	n      int64
	capped bool
}

func (p *peekSource) prime() {
	if p.rows.Next() {
		p.has = true
		p.peeked = append(p.peeked[:0], p.rows.Cells()...)
	}
}

func (p *peekSource) Vars() []string { return p.rows.Vars() }

func (p *peekSource) Next() bool {
	if p.limit > 0 && p.n >= p.limit {
		p.capped = true
		return false
	}
	if p.hook != nil {
		p.hook()
	}
	if p.has {
		if !p.used {
			p.used = true
			p.n++
			return true
		}
		p.has = false // moving past the peeked row
	}
	if !p.rows.Next() {
		return false
	}
	p.n++
	return true
}

func (p *peekSource) Row() []dict.Value {
	if p.has && p.used {
		return p.peeked
	}
	return p.rows.Cells()
}

func (p *peekSource) Term(v dict.Value) (dict.Term, bool) { return p.rows.Term(v) }
func (p *peekSource) Terms(oids []dict.OID, fn func(i int, t dict.Term, ok bool)) {
	p.rows.Terms(oids, fn)
}
func (p *peekSource) Err() error { return p.rows.Err() }

// handleMetrics renders every registered family — request counters,
// admission, plan cache, pool, store, executor, query log — in one
// registry walk.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// handleDebugQueries serves the structured query log (newest first)
// plus the aggregated workload profile as JSON.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Queries []srdf.QueryRecord   `json:"queries"`
		Profile srdf.WorkloadProfile `json:"profile"`
	}{s.store.QueryLog(), s.store.WorkloadProfile()})
}

// String renders the effective configuration (CLI startup log).
func (c Config) String() string {
	return fmt.Sprintf("max-concurrent=%d queue=%d timeout=%s max-query-mem=%d max-result-rows=%d slow-query=%s",
		c.MaxConcurrent, c.QueueDepth, c.QueryTimeout, c.MaxQueryMem, c.MaxResultRows, c.SlowQuery)
}
