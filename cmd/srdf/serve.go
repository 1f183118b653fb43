package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"srdf"
	"srdf/internal/plan"
	"srdf/internal/server"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7878", "listen address")
	debugAddr := fs.String("debug-addr", "", "separate listener for pprof/expvar/query-log introspection (empty: disabled)")
	mode := fs.String("mode", "rdfscan", "plan family: default or rdfscan")
	zones := fs.Bool("zonemaps", true, "use zone maps")
	maxConcurrent := fs.Int("max-concurrent", 0, "max queries executing at once (0: GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max queries waiting for a slot before 503 (0: 2x max-concurrent, -1: none)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query wall-clock limit, queue wait included (0: none)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain limit for open result streams")
	minSupport := fs.Int("minsupport", 0, "minimum CS support (non-snapshot inputs)")
	maxQueryMem := fs.String("max-query-mem", "", "per-query memory budget for materializing operators, e.g. 64M or 1G (empty: unlimited)")
	poolBytes := fs.String("pool-bytes", "", "buffer pool budget for decoded sealed segments, e.g. 256M (empty: unlimited); past it cold segments evict back to the snapshot")
	maxResultRows := fs.Int64("max-result-rows", 0, "max rows per response; past it the stream is aborted (0: unlimited)")
	slowQuery := fs.Duration("slow-query", 0, "log completed queries slower than this with their text (0: disabled)")
	logFormat := fs.String("log-format", "text", "access-log format: text or json")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: srdf serve [flags] data.nt|data.srdf

Serves the SPARQL 1.1 Protocol over HTTP:
  GET  /sparql?query=...           query via URL parameter
  POST /sparql                     query=... form body, or the bare query
                                   with Content-Type: application/sparql-query
  GET  /sparql?...&explain=analyze run the query, return the plan annotated
                                   with actual rows and per-operator time
  GET  /metrics                    Prometheus text-format metrics
  GET  /healthz                    liveness probe (status, epoch, uptime)
  GET  /debug/queries              structured query log + workload profile

With -debug-addr a second private listener additionally serves
/debug/pprof/* and /debug/vars.

Results content-negotiate between application/sparql-results+json
(default), text/csv, and text/tab-separated-values. Malformed queries
get 400, per-query timeouts 408, admission overflow 503 with
Retry-After. SIGINT/SIGTERM stop accepting and drain open streams.

Flags:`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("serve: need one data file")
	}
	memLimit, err := parseSize(*maxQueryMem)
	if err != nil {
		return fmt.Errorf("serve: -max-query-mem: %w", err)
	}
	poolBudget, err := parseSize(*poolBytes)
	if err != nil {
		return fmt.Errorf("serve: -pool-bytes: %w", err)
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		return fmt.Errorf("serve: -log-format must be text or json, got %q", *logFormat)
	}

	st, organized, err := loadStoreOpts(fs.Arg(0), *minSupport, func(o *srdf.Options) {
		o.PoolBytes = poolBudget
	})
	if err != nil {
		return err
	}
	if err := organize(st, organized); err != nil {
		return err
	}
	st.SetLogger(logger) // one line per refresh that folded writes in

	var m srdf.Mode = plan.ModeRDFScan
	if *mode == "default" {
		m = plan.ModeDefault
	}
	cfg := server.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queue,
		QueryTimeout:  *timeout,
		MaxQueryMem:   memLimit,
		MaxResultRows: *maxResultRows,
		SlowQuery:     *slowQuery,
		Log:           logger,
		Query:         srdf.QueryOptions{Mode: m, ZoneMaps: *zones},
	}
	srv := server.New(st, cfg)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	if *debugAddr != "" {
		go func() {
			dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
			if derr := dbg.ListenAndServe(); derr != nil && derr != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", derr)
			}
		}()
		logger.Info("debug listener", "addr", *debugAddr)
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	logger.Info("listening",
		"addr", *addr, "triples", st.NumTriples(), "epoch", st.Epoch(),
		"config", cfg.String(), "log_format", *logFormat)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("draining open streams", "signal", sig.String(), "limit", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		logger.Info("drained")
		return nil
	}
}

// parseSize parses a human byte size — plain bytes or a K/M/G suffix
// (binary multiples, case-insensitive, optional trailing B). Empty means
// 0 (unlimited).
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.TrimSuffix(strings.ToUpper(s), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, strings.TrimSuffix(u, "K")
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, strings.TrimSuffix(u, "M")
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, strings.TrimSuffix(u, "G")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}
