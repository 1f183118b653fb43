package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"srdf/internal/exec"
	"srdf/internal/plan"
)

// DefaultQueryLogSize is the ring-buffer capacity of the structured
// query log.
const DefaultQueryLogSize = 256

// QueryRecord is one completed query in the structured query log: the
// plan-time workload fingerprint (what the query touched) plus the
// runtime outcome. The query text itself is recorded only as a hash —
// the log is a workload sensor, not an audit trail.
type QueryRecord struct {
	Time time.Time `json:"time"`
	// TextHash is the FNV-64a hash of the query text, hex-encoded;
	// identical queries share it.
	TextHash string `json:"text_hash"`
	// CacheHit reports that planning resolved through the prepared-plan
	// cache.
	CacheHit bool `json:"cache_hit"`
	// Predicates/Tables/FilterColumns/Stars are the plan's workload
	// fingerprint: predicate IRIs touched, CS tables scanned, columns
	// the query constrains by value (see plan.Profile), and the star
	// count.
	Predicates    []string `json:"predicates,omitempty"`
	Tables        []string `json:"tables,omitempty"`
	FilterColumns []string `json:"filter_columns,omitempty"`
	Stars         int      `json:"stars"`
	// DurationNS is the wall time from execution start to completion.
	DurationNS int64 `json:"duration_ns"`
	// Rows is the result row count delivered to the consumer.
	Rows int64 `json:"rows"`
	// Outcome is ok, timeout, canceled, mem_budget, panic, or error.
	Outcome string `json:"outcome"`
}

// WorkloadProfile aggregates the query log into the per-predicate
// signals the self-organization policy reads: how often each predicate
// is touched and how often each column is filtered (the counts Organize
// picks sort keys from). Counts are cumulative over the store's
// lifetime, not windowed to the ring buffer.
type WorkloadProfile struct {
	Queries          uint64            `json:"queries"`
	Rows             uint64            `json:"rows"`
	PredicateTouches map[string]uint64 `json:"predicate_touches"`
	FilterColumns    map[string]uint64 `json:"filter_columns"`
}

// queryLog is a fixed-size ring of QueryRecords plus the cumulative
// workload counters. One short mutex hold per completed query — never
// per row — keeps it off the hot path.
type queryLog struct {
	mu      sync.Mutex
	buf     []QueryRecord
	next    int
	filled  bool
	queries uint64
	rows    uint64
	preds   map[string]uint64
	filters map[string]uint64
}

func newQueryLog(size int) *queryLog {
	if size <= 0 {
		size = DefaultQueryLogSize
	}
	return &queryLog{
		buf:     make([]QueryRecord, size),
		preds:   make(map[string]uint64),
		filters: make(map[string]uint64),
	}
}

func (l *queryLog) record(rec QueryRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = rec
	l.next++
	if l.next == len(l.buf) {
		l.next, l.filled = 0, true
	}
	l.queries++
	l.rows += uint64(max64(rec.Rows, 0))
	for _, p := range rec.Predicates {
		l.preds[p]++
	}
	for _, c := range rec.FilterColumns {
		l.filters[c]++
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// recent returns the buffered records, newest first.
func (l *queryLog) recent() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.buf)
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

func (l *queryLog) profile() WorkloadProfile {
	l.mu.Lock()
	defer l.mu.Unlock()
	wp := WorkloadProfile{
		Queries:          l.queries,
		Rows:             l.rows,
		PredicateTouches: make(map[string]uint64, len(l.preds)),
		FilterColumns:    make(map[string]uint64, len(l.filters)),
	}
	for k, v := range l.preds {
		wp.PredicateTouches[k] = v
	}
	for k, v := range l.filters {
		wp.FilterColumns[k] = v
	}
	return wp
}

// counts returns the cumulative (queries, result rows) totals, for the
// metrics registry.
func (l *queryLog) counts() (queries, rows uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queries, l.rows
}

// newQueryRecord fills the plan-time half of a record; the runtime half
// (duration, rows, outcome) lands at completion.
func newQueryRecord(src string, p *plan.Plan, cached bool) QueryRecord {
	h := fnv.New64a()
	h.Write([]byte(src))
	return QueryRecord{
		Time:          time.Now(),
		TextHash:      fmt.Sprintf("%016x", h.Sum64()),
		CacheHit:      cached,
		Predicates:    p.Prof.Predicates,
		Tables:        p.Prof.Tables,
		FilterColumns: p.Prof.FilterColumns,
		Stars:         p.Prof.Stars,
	}
}

// outcomeOf classifies why a query ended for the log.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, exec.ErrMemBudget):
		return "mem_budget"
	}
	var pe *exec.PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	return "error"
}

// QueryLog returns the last completed queries, newest first — the
// structured log behind /debug/queries.
func (s *Store) QueryLog() []QueryRecord { return s.qlog.recent() }

// WorkloadProfile aggregates the query log into cumulative
// per-predicate touch and per-column filter counts — the sensor the
// self-organization policy reads: Organize makes each table's
// most-filtered column its subject-clustering sort key.
func (s *Store) WorkloadProfile() WorkloadProfile { return s.qlog.profile() }

// QueryLogCounts returns the cumulative (queries, result rows) the log
// has recorded, for metrics exposition.
func (s *Store) QueryLogCounts() (queries, rows uint64) { return s.qlog.counts() }

// reqIDKey carries the server's request id through a context into the
// executor Ctx, so executor-side failures correlate with the access
// log.
type reqIDKey struct{}

// WithRequestID tags ctx with a request id for query-log correlation.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom extracts the request id, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}
