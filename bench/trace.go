package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one operation share Op; Parent is 0 for
// the operation's root span. Counters holds the layer counters read at
// the span's end (deltas over the span).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until write. It is used from one
// goroutine (the traced run has one client). A nil tracer records
// nothing, so the same workload code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp opens the root span of a new operation and returns its id.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.begin(0, name)
}

// begin opens a child span of parent (0: a root span of the current
// operation).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.ops, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id, attaching the counters read at this boundary.
func (t *tracer) end(id int, counters map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Counters = counters
}

// timed runs f under a span and returns how long it took.
func timed(tr *tracer, op int, name string, f func() error) (time.Duration, error) {
	sp := tr.begin(op, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(sp, nil)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

// layerTime is one layer's share of a trace.
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name: total duration and self time, a
// span's duration minus the part of that interval its children cover
// (overlapping children are merged before subtracting).
func selfTimes(spans []span) []layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		dur := s.EndNS - s.StartNS
		self := dur - covered(children[s.ID], s.StartNS, s.EndNS)
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Spans++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	Layers   []layerTime        `json:"layers"`
	Metrics  map[string]float64 `json:"metrics"`
	Plans    map[string]string  `json:"explain_analyze,omitempty"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
