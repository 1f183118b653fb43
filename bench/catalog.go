package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Sizes. The driver makes 4 + 22 x 6 runs inside 3420 s, so one run has
// about 20 s for three set-ups plus the measured phase; the scale
// factors are what fits that on two cores (ISSUE.md's SF 0.01 does not).
const (
	sfServe  = 0.005  // serve.* and scan.*: ~0.48 M triples
	sfIngest = 0.0025 // ingest.rdfh: ~0.24 M triples, ~30 MB of N-Triples
	sfUpdate = 0.002  // update.batch: ~0.19 M triples before the writes

	setupReps     = 3   // set-ups per end-to-end run; setup_s is their median
	setupRepsFast = 7   // the same where one set-up takes a fraction of a second
	updateOrders  = 200 // orders added per update cycle (with their lineitems)
	updateDeletes = 10  // earlier-added orders whose lineitems a cycle deletes
	updateReads   = 40  // steady Q6-window reads per update cycle

	// ingest.rdfh and update.batch do fixed work, this many operations
	// for each second of --seconds (about what this machine completes),
	// so their counts repeat exactly; the other workloads run for
	// --seconds by the clock.
	ingestRepsPerSecond   = 1.0
	updateCyclesPerSecond = 1.5
)

// catalogue is BENCHMARK.json, the contract the driver reads and the one
// place that names the workloads (with their reasons) and the metrics
// (with units, directions and bounds). The program reads it at start-up,
// so what it prints cannot drift from what the driver expects.
type catalogue struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	// EndToEnd is reported by every workload with --trace 0. An operation
	// is whatever one closed-loop client waits for: an HTTP request on
	// serve.* and scan.*, one load→organize→save→close→open→Q1 repetition
	// on ingest.rdfh, one read on update.batch (the read after a batch is
	// timed from the batch's first Add).
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer is reported by every workload with --trace 1; a metric the
	// workload does not exercise reads 0. README.md tabulates which
	// end-to-end metric each should move, on which workload.
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// loadCatalogue reads BENCHMARK.json and requires its workloads to be
// exactly the ones this program implements.
func loadCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cat catalogue
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range cat.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s names workload %q, which the benchmark does not implement", path, w.Name)
		}
	}
	if len(cat.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the benchmark implements %d", path, len(cat.Workloads), len(workloads))
	}
	return &cat, nil
}

// why is the workload's reason, as BENCHMARK.json gives it.
func (c *catalogue) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// perCore as a client count is one client per core (GOMAXPROCS).
const perCore = 0

// workloadDef is the code side of a workload BENCHMARK.json names.
type workloadDef struct {
	Size      string // printed with every run
	Clients   int    // closed-loop clients of the end-to-end run (perCore: nproc); the traced run always has 1
	SetupReps int    // set-ups per end-to-end run
	setup     func(cfg config, dir string) (instance, error)
}

func (w workloadDef) clients() int {
	if w.Clients == perCore {
		return runtime.GOMAXPROCS(0)
	}
	return w.Clients
}

var workloads = map[string]workloadDef{
	"ingest.rdfh": {
		Size:    "RDF-H SF 0.0025 as N-Triples text (~0.24 M triples, ~30 MB); repeating New→LoadNTriples→Organize→Save→Close→Open→Q1",
		Clients: 1, SetupReps: setupRepsFast, setup: setupIngest},
	"serve.lookup": {
		Size:    "RDF-H SF 0.005 snapshot (~0.48 M triples) behind HTTP; keep-alive clients; two point-lookup templates over a seeded permutation of order keys; JSON",
		Clients: perCore, SetupReps: setupReps, setup: setupLookup},
	"serve.report": {
		Size:    "same store and server; clients cycling 16 order-date windows (hundreds of rows each) x JSON/CSV/TSV",
		Clients: perCore, SetupReps: setupReps, setup: setupReport},
	"scan.mem": {
		Size:    "RDF-H SF 0.005 snapshot, unlimited pool, warmed; over HTTP repeating Q1, Q6 x 4 year windows, Q3, Q5",
		Clients: 1, SetupReps: setupReps, setup: setupScanMem},
	"scan.ooc": {
		Size:    "scan.mem with PoolBytes = 1/4 of the ResidentBytes an unbudgeted warm round leaves",
		Clients: 1, SetupReps: setupReps, setup: setupScanOOC},
	"update.batch": {
		Size:    "RDF-H SF 0.002 snapshot (~0.19 M triples) with a WAL; cycling Add 200 orders + lineitems, Delete the lineitems of 10 earlier orders, one read-your-writes COUNT, 40 Q6-window reads",
		Clients: 1, SetupReps: setupRepsFast, setup: setupUpdate},
}

// serverDefaults is printed with every run: the benchmark serves with
// `srdf serve` defaults.
const serverDefaults = "server: rdfscan plans, zone maps on, MaxConcurrent=GOMAXPROCS, plan cache 256, CompactThreshold 4096, WAL fsync at batch boundaries, query timeout 30s"
