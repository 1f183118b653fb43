package exec

import (
	"sync"
	"sync/atomic"
	"time"
)

// Per-operator runtime statistics. Every plan node wraps its operator in
// a StatsOp/StatsValOp keyed by a small per-plan node id; the counters
// land in the query's QueryStats hung off the forked Ctx, so concurrent
// executions of one cached plan never share counters. The wrappers are
// cheap enough to stay on for every query: a few atomic adds per
// 1024-row batch, wall time sampled one batch in four, no allocation on
// the pull path.

// timeSampleMask selects which later Next calls are timed: batches where
// seq&mask == 2, i.e. the second call and every fourth after it. The
// first call is always timed exactly, and apart from the rest: a
// blocking operator (aggregate, sort) does all its work there, and
// extrapolating it over the cheap calls that follow would multiply it.
const timeSampleMask = 3

// OpStats accumulates one operator's runtime counters. The fields are
// atomics so a reader (EXPLAIN ANALYZE, metrics) never races the
// goroutine driving the pipeline.
type OpStats struct {
	// Rows counts rows emitted (after selection vectors).
	Rows atomic.Int64
	// Batches counts Next calls, the final exhausted one included.
	Batches atomic.Int64
	// OpenNS is wall time spent in Open — where materializing
	// operators (the hash build) do their heavy lifting.
	OpenNS atomic.Int64
	// FirstNS is the wall time of the first Next call.
	FirstNS atomic.Int64
	// SampledNS/Sampled are the timed subset of the later Next calls;
	// Time extrapolates them over all later batches.
	SampledNS atomic.Int64
	Sampled   atomic.Int64
	// Groups is a HashAggregate's group count; GroupsHashed reports that
	// it outgrew the direct group ids and switched to the hash table.
	Groups       atomic.Int64
	GroupsHashed atomic.Bool

	// skips counts, per RDFscan property (star order), the blocks whose
	// zone made the property's kernel redundant, summed over the scan's
	// tables.
	skipMu sync.Mutex
	skips  []int64
}

// addSkips adds n kernel skips for star property i.
func (s *OpStats) addSkips(i int, n int64) {
	s.skipMu.Lock()
	if len(s.skips) <= i {
		s.skips = append(s.skips, make([]int64, i+1-len(s.skips))...)
	}
	s.skips[i] += n
	s.skipMu.Unlock()
}

// Skips returns the kernel skips of star property i.
func (s *OpStats) Skips(i int) int64 {
	s.skipMu.Lock()
	defer s.skipMu.Unlock()
	if i < len(s.skips) {
		return s.skips[i]
	}
	return 0
}

// RowsOut returns the rows emitted so far.
func (s *OpStats) RowsOut() int64 { return s.Rows.Load() }

// Time estimates the operator's inclusive wall time (children counted):
// full Open time, the first Next call, and the sampled later calls
// scaled to their count.
func (s *OpStats) Time() time.Duration {
	ns := s.OpenNS.Load() + s.FirstNS.Load()
	if n := s.Sampled.Load(); n > 0 {
		ns += s.SampledNS.Load() * (s.Batches.Load() - 1) / n
	}
	return time.Duration(ns)
}

// timed reports whether Next call seq (1-based) is timed, and whether it
// is the first.
func timed(seq int64) (bool, bool) {
	return seq == 1 || seq&timeSampleMask == 2, seq == 1
}

// record books the wall time of a timed Next call.
func (s *OpStats) record(first bool, start time.Time) {
	d := time.Since(start).Nanoseconds()
	if first {
		s.FirstNS.Add(d)
		return
	}
	s.SampledNS.Add(d)
	s.Sampled.Add(1)
}

// QueryStats is the per-query stats tree: one OpStats per plan node,
// indexed by the node's 1-based stats id.
type QueryStats struct {
	nodes []OpStats
}

// NewQueryStats sizes a stats tree for nodes ids 1..n.
func NewQueryStats(n int) *QueryStats {
	return &QueryStats{nodes: make([]OpStats, n+1)}
}

// Node returns the slot for a stats id, or nil when the receiver is nil
// or the id was never assigned (reference executions outside a built
// plan pass id 0).
func (q *QueryStats) Node(id int) *OpStats {
	if q == nil || id <= 0 || id >= len(q.nodes) {
		return nil
	}
	return &q.nodes[id]
}

// Package-wide executor totals, exported to the metrics registry.
var (
	scanRowsTotal atomic.Int64
	pipelineNS    atomic.Int64
)

// ScanRowsTotal is the cumulative count of rows produced by leaf scans
// (RDFscan, star self-join, triple scan) across all queries.
func ScanRowsTotal() int64 { return scanRowsTotal.Load() }

// PipelineSecondsTotal is the cumulative wall time query pipelines spent
// executing, open to close.
func PipelineSecondsTotal() float64 { return float64(pipelineNS.Load()) / 1e9 }

// StatsOp wraps an OID-level operator with runtime accounting.
type StatsOp struct {
	in   Operator
	id   int
	scan bool // leaf scan: rows feed ScanRowsTotal

	st      *OpStats
	local   OpStats // fallback when the Ctx carries no QueryStats
	flushed bool
}

// NewStatsOp wraps in with accounting under stats id. scan marks leaf
// scans whose output rows feed the global scan-rows counter.
func NewStatsOp(id int, scan bool, in Operator) *StatsOp {
	return &StatsOp{in: in, id: id, scan: scan}
}

func (s *StatsOp) Vars() []string { return s.in.Vars() }

func (s *StatsOp) Open(ctx *Ctx) error {
	if st := ctx.Stats.Node(s.id); st != nil {
		s.st = st
	} else {
		s.local = OpStats{}
		s.st = &s.local
	}
	start := time.Now()
	err := s.in.Open(ctx)
	s.st.OpenNS.Add(time.Since(start).Nanoseconds())
	return err
}

func (s *StatsOp) Next(b *Batch) bool {
	st := s.st
	if t, first := timed(st.Batches.Add(1)); t {
		start := time.Now()
		ok := s.in.Next(b)
		st.record(first, start)
		if ok {
			st.Rows.Add(int64(b.Len()))
		}
		return ok
	}
	ok := s.in.Next(b)
	if ok {
		st.Rows.Add(int64(b.Len()))
	}
	return ok
}

func (s *StatsOp) Close() {
	s.in.Close()
	if s.scan && !s.flushed && s.st != nil {
		s.flushed = true
		scanRowsTotal.Add(s.st.Rows.Load())
	}
}

// StatsValOp is StatsOp for the value-level head chain.
type StatsValOp struct {
	in ValOperator
	id int

	st    *OpStats
	local OpStats
}

// NewStatsValOp wraps a head operator with accounting under stats id.
func NewStatsValOp(id int, in ValOperator) *StatsValOp {
	return &StatsValOp{in: in, id: id}
}

func (s *StatsValOp) Vars() []string { return s.in.Vars() }

func (s *StatsValOp) Open(ctx *Ctx) error {
	if st := ctx.Stats.Node(s.id); st != nil {
		s.st = st
	} else {
		s.local = OpStats{}
		s.st = &s.local
	}
	start := time.Now()
	err := s.in.Open(ctx)
	s.st.OpenNS.Add(time.Since(start).Nanoseconds())
	return err
}

func (s *StatsValOp) Next(b *VBatch) bool {
	st := s.st
	if t, first := timed(st.Batches.Add(1)); t {
		start := time.Now()
		ok := s.in.Next(b)
		st.record(first, start)
		if ok {
			st.Rows.Add(int64(b.Len()))
		}
		return ok
	}
	ok := s.in.Next(b)
	if ok {
		st.Rows.Add(int64(b.Len()))
	}
	return ok
}

func (s *StatsValOp) Close() { s.in.Close() }
