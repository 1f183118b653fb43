package rdfh

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"srdf/internal/core"
	"srdf/internal/plan"
)

var (
	nodeTimeRe = regexp.MustCompile(`act_rows=\d+ time=(\S+)`)
	totalRe    = regexp.MustCompile(`(?m)^actual: rows=\d+ time=(\S+)$`)
)

// TestQ1ExplainAnalyzeTimes checks EXPLAIN ANALYZE of Q1 on a sealed
// store: no operator's inclusive time exceeds the query's wall time
// (blocking operators — the aggregate, the sort — used to have their one
// expensive Next call extrapolated over the cheap exhausted call after
// it, doubling them), and the shipdate FILTER is gone, enforced row by
// row by the RDFscan's pushed range.
func TestQ1ExplainAnalyzeTimes(t *testing.T) {
	st := loadStore(t, testData())
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	ex, err := st.ExplainAnalyze(context.Background(), Q1(), qo)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex, "Filter") {
		t.Errorf("Q1 on a sealed store re-checks its pushed range:\n%s", ex)
	}
	m := totalRe.FindStringSubmatch(ex)
	if m == nil {
		t.Fatalf("no actual: footer in\n%s", ex)
	}
	total, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	nodes := nodeTimeRe.FindAllStringSubmatch(ex, -1)
	if len(nodes) < 3 {
		t.Fatalf("expected sort, aggregate and scan lines in\n%s", ex)
	}
	for _, n := range nodes {
		d, err := time.ParseDuration(n[1])
		if err != nil {
			t.Fatal(err)
		}
		if d > total+time.Millisecond {
			t.Errorf("operator time %v exceeds the query's %v:\n%s", d, total, ex)
		}
	}
}
