// Command rdfhbench regenerates the paper's Table I: RDF-H query times
// under {Default, RDFscan/RDFjoin} × {ParseOrder, Clustered} ×
// {ZoneMaps no/yes}, cold and hot. Total time is wall time plus
// simulated I/O (100µs per page miss of the tracked buffer pool), so the
// cold/hot and locality contrasts are deterministic and machine
// independent.
//
// Usage:
//
//	rdfhbench -sf 0.02 -queries Q3,Q6
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"srdf/internal/rdfh"
)

func main() {
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor (paper: 10)")
	seed := flag.Int64("seed", 42, "generator seed")
	queries := flag.String("queries", "Q3,Q6", "comma-separated: Q1,Q3,Q5,Q6")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "rdfhbench: generating RDF-H SF=%g and organizing both stores...\n", *sf)
	h, err := rdfh.NewHarness(*sf, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfhbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rdfhbench: %s (%d triples)\n",
		h.Data.Counts(), h.Clustered.NumTriples())

	qs := strings.Split(*queries, ",")
	ms, err := h.RunTableI(qs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfhbench:", err)
		os.Exit(1)
	}
	fmt.Print(rdfh.FormatTableI(ms, *sf))
	fmt.Println("\nPaper's Table I (SF=10, seconds, Q3 cold/hot | Q6 cold/hot):")
	fmt.Println(`  Default    ParseOrder  No  | 37.50 19.66 | 28.25 6.52
  Default    Clustered   No  | 18.01 15.32 |  9.27 3.27
  Default    Clustered   Yes |  2.13  2.02 |  n.a.
  RDFscan    ParseOrder  No  |  3.34  2.93 |  8.64 2.16
  RDFscan    Clustered   No  |  2.13  2.01 |  1.47 0.44
  RDFscan    Clustered   Yes |  0.89  0.78 |  n.a.`)
}
