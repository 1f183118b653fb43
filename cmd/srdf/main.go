// Command srdf is the CLI for the self-organizing RDF store: it loads an
// N-Triples (or Turtle) file — or a binary snapshot built with `srdf
// build` — discovers the emergent relational schema, and answers SPARQL
// queries with either plan family.
//
// Usage:
//
//	srdf build   [-minsupport N] [-o data.srdf] data.nt
//	srdf schema  [-minsupport N] [-summary kw1,kw2] data.nt|data.srdf
//	srdf query   [-mode default|rdfscan] [-zonemaps] [-explain] -q 'SELECT ...' data.nt|data.srdf
//	srdf stats   data.nt|data.srdf
//	srdf dump    [-table name] [-limit N] data.nt|data.srdf
//
// A `.nt`/`.ttl` input is parsed and organized on every invocation; a
// `.srdf` snapshot opens directly — the expensive characteristic-set
// pipeline already ran at build time and sealed segments load lazily, so
// startup is near-instant regardless of store size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"srdf"
	"srdf/internal/plan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "schema":
		err = cmdSchema(args)
	case "query":
		err = cmdQuery(args)
	case "explain":
		err = cmdExplain(args)
	case "stats":
		err = cmdStats(args)
	case "dump":
		err = cmdDump(args)
	case "serve":
		err = cmdServe(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "srdf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: srdf <build|schema|query|explain|stats|dump|serve> [flags] data.nt|data.srdf
  build    organize a triple file into a binary snapshot (-o out.srdf)
  schema   discover and print the emergent SQL schema
  query    run a SPARQL query (-q '...' or -f query.rq)
  explain  print a query's plan; -analyze executes it and annotates
           each operator with actual rows and time
  stats    print store statistics after organization
  dump     print a discovered table as CSV
  serve    serve the SPARQL Protocol over HTTP (see srdf serve -h)

A .srdf snapshot (written by build) is accepted wherever a .nt/.ttl file
is: it opens directly, skipping parse and re-organization.`)
}

// loadStore loads a triple file or opens a snapshot. The organized flag
// reports whether organization already happened (snapshot fast path).
func loadStore(path string, minSupport int) (*srdf.Store, bool, error) {
	return loadStoreOpts(path, minSupport, nil)
}

// loadStoreOpts is loadStore with an option hook applied before the
// store is created or opened.
func loadStoreOpts(path string, minSupport int, tweak func(*srdf.Options)) (*srdf.Store, bool, error) {
	opts := srdf.Defaults()
	if minSupport > 0 {
		opts.MinSupport = minSupport
	}
	if tweak != nil {
		tweak(&opts)
	}
	if strings.HasSuffix(path, ".srdf") {
		st, err := srdf.Open(path, opts)
		if err != nil {
			return nil, false, err
		}
		// a snapshot can also hold an un-organized store (dictionary +
		// triples only); those still need the Organize pass
		return st, st.Organized(), nil
	}
	st := srdf.New(opts)
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".ttl") {
		if _, err := st.LoadTurtle(f); err != nil {
			return nil, false, err
		}
	} else {
		n, errs, err := st.LoadNTriples(f, true)
		if err != nil {
			return nil, false, err
		}
		if len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "srdf: skipped %d malformed lines\n", len(errs))
		}
		_ = n
	}
	return st, false, nil
}

// organize runs Organize unless the store came from a snapshot, where
// the pipeline already ran at build time.
func organize(st *srdf.Store, organized bool) error {
	if organized {
		return nil
	}
	rep, err := st.Organize()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, rep)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output snapshot path (default: input with .srdf extension)")
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("build: need one data file")
	}
	in := fs.Arg(0)
	if strings.HasSuffix(in, ".srdf") {
		return fmt.Errorf("build: %s is already a snapshot", in)
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(strings.TrimSuffix(in, ".nt"), ".ttl") + ".srdf"
	}
	st, _, err := loadStore(in, *minSupport)
	if err != nil {
		return err
	}
	if err := organize(st, false); err != nil {
		return err
	}
	if err := st.Save(path); err != nil {
		return err
	}
	if info, err := os.Stat(path); err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", path, info.Size())
	}
	return nil
}

func cmdSchema(args []string) error {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	summary := fs.String("summary", "", "comma-separated keywords for schema summarization")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("schema: need one data file")
	}
	st, organized, err := loadStore(fs.Arg(0), *minSupport)
	if err != nil {
		return err
	}
	if err := organize(st, organized); err != nil {
		return err
	}
	if *summary != "" {
		fmt.Print(st.SchemaSummary(strings.Split(*summary, ","), 0))
		return nil
	}
	fmt.Print(st.SQLSchema())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	mode := fs.String("mode", "rdfscan", "plan family: default or rdfscan")
	zones := fs.Bool("zonemaps", true, "use zone maps")
	explain := fs.Bool("explain", false, "print the plan instead of executing")
	qtext := fs.String("q", "", "SPARQL query text")
	qfile := fs.String("f", "", "file containing the SPARQL query")
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	noOrganize := fs.Bool("no-organize", false, "query the raw triple store")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query: need one data file")
	}
	if *qtext == "" && *qfile == "" {
		return fmt.Errorf("query: need -q or -f")
	}
	if *qfile != "" {
		b, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		*qtext = string(b)
	}
	st, organized, err := loadStore(fs.Arg(0), *minSupport)
	if err != nil {
		return err
	}
	if !*noOrganize {
		if err := organize(st, organized); err != nil {
			return err
		}
	}
	var m srdf.Mode = plan.ModeRDFScan
	if *mode == "default" {
		m = plan.ModeDefault
	}
	qo := srdf.QueryOptions{Mode: m, ZoneMaps: *zones}
	if *explain {
		exp, err := st.Explain(*qtext, qo)
		if err != nil {
			return err
		}
		fmt.Print(exp)
		return nil
	}
	res, err := st.QueryWith(*qtext, qo)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	ps := st.PoolStats()
	fmt.Fprintf(os.Stderr, "%d rows; %d page misses, simulated I/O %v\n", res.Len(), ps.Misses, ps.SimIO)
	return nil
}

// cmdExplain prints a query's plan. With -analyze the query actually
// executes and every operator line carries act_rows= and time= beside
// the estimates, followed by the worst est/act mis-estimation.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	mode := fs.String("mode", "rdfscan", "plan family: default or rdfscan")
	zones := fs.Bool("zonemaps", true, "use zone maps")
	analyze := fs.Bool("analyze", false, "execute the query and annotate the plan with actual rows and per-operator time")
	qtext := fs.String("q", "", "SPARQL query text")
	qfile := fs.String("f", "", "file containing the SPARQL query")
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: need one data file")
	}
	if *qtext == "" && *qfile == "" {
		return fmt.Errorf("explain: need -q or -f")
	}
	if *qfile != "" {
		b, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		*qtext = string(b)
	}
	st, organized, err := loadStore(fs.Arg(0), *minSupport)
	if err != nil {
		return err
	}
	if err := organize(st, organized); err != nil {
		return err
	}
	var m srdf.Mode = plan.ModeRDFScan
	if *mode == "default" {
		m = plan.ModeDefault
	}
	qo := srdf.QueryOptions{Mode: m, ZoneMaps: *zones}
	var exp string
	if *analyze {
		exp, err = st.ExplainAnalyze(context.Background(), *qtext, qo)
	} else {
		exp, err = st.Explain(*qtext, qo)
	}
	if err != nil {
		return err
	}
	fmt.Print(exp)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: need one data file")
	}
	st, organized, err := loadStore(fs.Arg(0), *minSupport)
	if err != nil {
		return err
	}
	if err := organize(st, organized); err != nil {
		return err
	}
	s := st.Stats()
	fmt.Printf("triples    %d\nresources  %d\nliterals   %d\ntables     %d\nirregular  %d\ncoverage   %.1f%%\n",
		s.Triples, s.Resources, s.Literals, s.Tables, s.Irregular, 100*s.Coverage)
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	table := fs.String("table", "", "table name (default: all)")
	limit := fs.Int("limit", 20, "max rows per table")
	minSupport := fs.Int("minsupport", 0, "minimum CS support")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump: need one data file")
	}
	st, organized, err := loadStore(fs.Arg(0), *minSupport)
	if err != nil {
		return err
	}
	if err := organize(st, organized); err != nil {
		return err
	}
	cat := st.Internal().Catalog()
	d := st.Internal().Dict()
	for _, t := range cat.SortedTables() {
		if *table != "" && t.Name != *table {
			continue
		}
		fmt.Printf("-- %s (%d rows)\n%s\n", t.Name, t.LiveCount(), cat.DumpCSV(t, d, *limit))
	}
	return nil
}
