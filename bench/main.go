// Command bench is srdf's end-to-end and per-layer benchmark: six RDF-H
// workloads driven through the store's public functions, every answer
// checked against an oracle computed from the generator's rows, every
// metric printed by name and unit. See README.md.
//
//	go run . --workload serve.lookup --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	outDir      string
	catalogPath string
	cat         *catalogue
}

// instance is one set-up workload: a store (and server) with generated
// data, ready to be driven.
type instance interface {
	// run drives the workload as a closed loop for about seconds with
	// the given number of clients, recording into rec. With a tracer
	// (one client only) it also records a span around every layer call.
	run(seconds float64, clients int, tr *tracer, rec *recorder) error
	// layers derives the per-layer metrics from an untraced and a traced
	// one-client run, running the layer probes it needs.
	layers(tr *tracer, untraced, traced *recorder) (layerReport, error)
	// verify runs the end-of-run checks (durability); nil when there are none.
	verify() error
	close() error
}

type layerReport struct {
	metrics map[string]float64
	plans   map[string]string // EXPLAIN ANALYZE per query class
	notes   []string
}

func main() {
	var cfg config
	var trace int
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced one-client run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(repoRoot(), "bench", "out"), "directory for trace files and scratch data")
	flag.StringVar(&cfg.catalogPath, "catalog", filepath.Join(repoRoot(), "BENCHMARK.json"), "the benchmark's contract: workloads, metrics, units, bounds")
	flag.BoolVar(&agree, "agree", false, "run every workload twice and compare the two sets against the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	var err error
	if cfg.cat, err = loadCatalogue(cfg.catalogPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if agree {
		if err := runAgree(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// a run that produced a result exits 0: wrong answers are in the
	// line's "correct" and "failed", which is where the driver looks
	fmt.Println(string(line))
}

// output is the result line the driver reads.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne sets a workload up, runs it, prints every metric by name and
// unit, and returns the result line.
func runOne(cfg config) (output, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return output{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if cfg.seconds <= 0 {
		return output{}, fmt.Errorf("--seconds must be positive")
	}
	dir, err := scratchDir(cfg)
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)

	clients := w.clients()
	if cfg.trace {
		clients = 1
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v: %d closed-loop client(s), GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, clients, runtime.GOMAXPROCS(0))
	fmt.Println("why:", cfg.cat.why(cfg.workload))
	fmt.Println("size:", w.Size)
	fmt.Println(serverDefaults)

	if cfg.trace {
		return runTraced(w, cfg, dir)
	}
	return runEndToEnd(w, cfg, dir)
}

// repoRoot is the directory that holds BENCHMARK.json and bench/, when
// the program is started there or inside bench/.
func repoRoot() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "."
	}
	return ".."
}

func scratchDir(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-")
}

// runEndToEnd is the untraced run: set up setupReps times (setup_s is
// the median), drive the workload with its full client count, report the
// end-to-end metrics.
func runEndToEnd(w workloadDef, cfg config, dir string) (output, error) {
	var inst instance
	var setups []float64
	for i := 0; i < w.SetupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return output{}, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, dir); err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec := newRecorder()
	// start every measured phase from the same heap: what the earlier
	// set-ups left behind is collected and given back to the system now,
	// so neither the measurement nor peak_rss_mb pays for it
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss0 := rssMB()
	rss := startRSSSampler()
	err := inst.run(cfg.seconds, w.clients(), nil, rec)
	peakRSS := rss.stop()
	runtime.ReadMemStats(&m1)
	if err == nil {
		if verr := inst.verify(); verr != nil {
			rec.fail("", fmt.Errorf("end-of-run check: %w", verr))
		}
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return output{}, err
	}
	m := rec.endToEnd()
	m["setup_s"] = median(setups)
	if peakRSS == 0 {
		return output{}, fmt.Errorf("peak_rss_mb: no VmRSS in /proc/self/status")
	}
	m["peak_rss_mb"] = peakRSS

	fmt.Printf("set-ups: %.3f s (median reported)\n", setups)
	fmt.Printf("memory: go heap %.1f MB live and %.1f MB resident at the start of the measured phase, %d GC cycles during it\n",
		float64(m0.HeapAlloc)/(1<<20), rss0, m1.NumGC-m0.NumGC)
	rec.printSamples()
	return report("end-to-end", cfg.cat.EndToEnd, m, rec)
}

// runTraced is the per-layer run: one set-up, an untraced then a traced
// one-client run of half the time each, the layer probes, and the trace
// file. End-to-end metrics never come from here.
func runTraced(w workloadDef, cfg config, dir string) (output, error) {
	inst, err := w.setup(cfg, dir)
	if err != nil {
		return output{}, fmt.Errorf("set-up: %w", err)
	}
	untraced, traced := newRecorder(), newRecorder()
	tr := newTracer()
	var rep layerReport
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = inst.run(cfg.seconds/2, 1, nil, untraced)
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = inst.run(cfg.seconds/2, 1, tr, traced)
	}
	if err == nil {
		rep, err = inst.layers(tr, untraced, traced)
	}
	if err == nil {
		if verr := inst.verify(); verr != nil {
			traced.fail("", fmt.Errorf("end-of-run check: %w", verr))
		}
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return output{}, err
	}
	m := rep.metrics
	up50, tp50 := untraced.p50(), traced.p50()
	// whole process: the load generator's allocations are in here too
	m["go.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(untraced.attempted))
	m["go.alloc_bytes_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(untraced.attempted))
	m["trace.spans"] = float64(len(tr.spans))
	if up50 > 0 {
		m["trace.overhead_frac"] = (tp50 - up50) / up50
	}
	layers := selfTimes(tr.spans)
	path, err := writeTrace(cfg.outDir, traceFile{Workload: cfg.workload, Seed: cfg.seed, Ops: tr.ops,
		Layers: layers, Metrics: m, Plans: rep.plans, Spans: tr.spans})
	if err != nil {
		return output{}, fmt.Errorf("write trace: %w", err)
	}

	untraced.merge(traced)
	fmt.Printf("one client: untraced p50 %.4f ms (n=%d), traced p50 %.4f ms (n=%d): tracing overhead %+.4f ms\n",
		up50, len(untraced.ops)-len(traced.ops), tp50, len(traced.ops), tp50-up50)
	fmt.Printf("trace: %d spans of %d operations in %s\n", len(tr.spans), tr.ops, path)
	fmt.Println("per-layer time in the traced run (self = span minus what its children cover):")
	for _, l := range layers {
		fmt.Printf("  %-28s spans %6d  total %10.3f ms  self %10.3f ms\n", l.Name, l.Spans, l.TotalMS, l.SelfMS)
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	return report("per-layer", cfg.cat.PerLayer, m, untraced)
}

// report prints every metric of defs by name and unit, then the error
// rate, and returns the result line. A value the run computed under a
// name the catalogue does not have is a mistake in the benchmark.
func report(title string, defs []metricDef, m map[string]float64, rec *recorder) (output, error) {
	out := output{Correct: rec.failed == 0 && rec.attempted > 0, Attempted: rec.attempted, Failed: rec.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Println(title + " metrics:")
	for _, d := range defs {
		fmt.Printf("  %-34s = %-14s %-10s (%s is better)\n", d.Name, strconv.FormatFloat(m[d.Name], 'g', 8, 64), d.Unit, d.Better)
		// a percentile that falls among failed operations is infinite,
		// which JSON cannot say: the line carries the largest float
		out.Metrics[d.Name] = metricValue{Value: min(m[d.Name], math.MaxFloat64), Unit: d.Unit}
	}
	for _, name := range sortedKeys(m) {
		if _, ok := out.Metrics[name]; !ok {
			return output{}, fmt.Errorf("%s metric %q is not in BENCHMARK.json", title, name)
		}
	}
	fmt.Printf("error_rate = %g (%d failed of %d attempted)\n", ratio(float64(rec.failed), float64(rec.attempted)), rec.failed, rec.attempted)
	if rec.firstErr != nil {
		fmt.Println("first failure:", rec.firstErr)
	}
	return out, nil
}

// rssSampler reads the process's resident set every 100 ms while the
// measured phase runs, so peak_rss_mb is that phase's peak and not the
// set-ups' (which VmHWM would report).
type rssSampler struct {
	quit chan struct{}
	peak chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), peak: make(chan float64)}
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		peak := rssMB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMB())
			case <-s.quit:
				s.peak <- max(peak, rssMB())
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak, in MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.peak
}

// rssMB is the process's resident set (VmRSS) now: store, load generator
// and the generated rows the oracle checks against.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmRSS:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
