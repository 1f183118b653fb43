// Package obs is the unified telemetry registry: one place where the
// server, the store, the buffer pool, and the executor register their
// counters, gauges, and histograms, and one walk that renders them all
// in Prometheus text exposition format. Centralizing emission here is
// what makes the /metrics lint (every series has HELP/TYPE, no
// duplicates, cumulative buckets) enforceable instead of aspirational.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds metric families in registration order. Registration is
// not hot-path: families are added once at startup; scrapes walk them.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	byID map[string]*family
}

// family is one exposition family: a name, HELP/TYPE header, and a
// collect function producing its series.
type family struct {
	name, help, typ string
	collect         func(emit func(labels string, v float64))
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*family{}}
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[f.name]; dup {
		panic("obs: duplicate metric family " + f.name)
	}
	r.byID[f.name] = f
	r.fams = append(r.fams, f)
}

// Counter is a monotonically increasing integer series.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers a counter family with a single unlabeled series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter",
		collect: func(emit func(string, float64)) { emit("", float64(c.v.Load())) }})
	return c
}

// CounterFunc registers a counter family whose single series is read
// from fn at scrape time — for totals owned elsewhere (store, executor).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter",
		collect: func(emit func(string, float64)) { emit("", fn()) }})
}

// LabeledCounter is a counter family keyed by one label.
type LabeledCounter struct {
	label string
	mu    sync.Mutex
	vals  map[string]*Counter
	order []string
}

// With returns the counter for one label value, creating it on first
// use.
func (lc *LabeledCounter) With(value string) *Counter {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	c := lc.vals[value]
	if c == nil {
		c = &Counter{}
		lc.vals[value] = c
		lc.order = append(lc.order, value)
	}
	return c
}

// NewLabeledCounter creates a labeled counter outside any registry, for
// process-wide totals a package counts itself (projection work) and
// every registry that wants them exposes with RegisterLabeledCounter.
func NewLabeledCounter(label string) *LabeledCounter {
	return &LabeledCounter{label: label, vals: map[string]*Counter{}}
}

// LabeledCounter registers a counter family with one label dimension.
// Series appear in first-use order; pre-touch values with With for a
// stable exposition.
func (r *Registry) LabeledCounter(name, help, label string) *LabeledCounter {
	lc := NewLabeledCounter(label)
	r.RegisterLabeledCounter(name, help, lc)
	return lc
}

// RegisterLabeledCounter exposes an existing labeled counter as a
// family of this registry.
func (r *Registry) RegisterLabeledCounter(name, help string, lc *LabeledCounter) {
	r.add(&family{name: name, help: help, typ: "counter",
		collect: func(emit func(string, float64)) {
			lc.mu.Lock()
			vals := make([]string, len(lc.order))
			copy(vals, lc.order)
			lc.mu.Unlock()
			for _, v := range vals {
				emit(fmt.Sprintf("{%s=%q}", lc.label, v), float64(lc.With(v).Value()))
			}
		}})
}

// Gauge is a settable value series.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers a gauge family with a single settable series.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, typ: "gauge",
		collect: func(emit func(string, float64)) { emit("", g.Value()) }})
	return g
}

// GaugeFunc registers a gauge family whose single series is read from
// fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge",
		collect: func(emit func(string, float64)) { emit("", fn()) }})
}

// Histogram is a cumulative-bucket histogram with fixed bounds.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is +Inf overflow
	sum    float64
	total  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// NewHistogram creates a histogram over the given bucket upper bounds
// (ascending; +Inf is implicit) outside any registry; see
// NewLabeledCounter.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Histogram registers a histogram family over the given bucket upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram exposes an existing histogram as a family of this
// registry.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.add(&family{name: name, help: help, typ: "histogram",
		collect: func(emit func(string, float64)) {
			h.mu.Lock()
			defer h.mu.Unlock()
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				emit(fmt.Sprintf("_bucket{le=%q}", formatBound(b)), float64(cum))
			}
			cum += h.counts[len(h.bounds)]
			emit(`_bucket{le="+Inf"}`, float64(cum))
			emit("_sum", h.sum)
			emit("_count", float64(h.total))
		}})
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// WriteText renders every family in registration order in Prometheus
// text exposition format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(suffix string, v float64) {
			fmt.Fprintf(w, "%s%s %s\n", f.name, suffix, formatValue(v))
		})
	}
}

// formatValue renders integral values without an exponent (the way the
// hand-rolled writer did) and everything else with %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
