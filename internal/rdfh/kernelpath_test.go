package rdfh

import (
	"context"
	"regexp"
	"strconv"
	"testing"

	"srdf/internal/core"
	"srdf/internal/plan"
)

var (
	groupsRe = regexp.MustCompile(`HashAggregate by .* groups=(\d+) (direct|hash) act_rows=(\d+)`)
	colRe    = regexp.MustCompile(`(?m)^\s+col p=\S+ \?(\w+).* skip=(\d+)$`)
)

// TestExplainAnalyzeKernelPaths checks that EXPLAIN ANALYZE says which
// kernel paths ran: Q1's HashAggregate reports its group count and the
// direct (hash-free) group ids, and every RDFscan column line reports
// how many blocks skipped its kernel. Q1's shipdate bound admits every
// block whole on this data, so its ?sd kernel never runs.
func TestExplainAnalyzeKernelPaths(t *testing.T) {
	st := loadStore(t, testData())
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	ex, err := st.ExplainAnalyze(context.Background(), Q1(), qo)
	if err != nil {
		t.Fatal(err)
	}
	m := groupsRe.FindStringSubmatch(ex)
	if m == nil {
		t.Fatalf("no groups=N direct|hash on Q1's HashAggregate:\n%s", ex)
	}
	if m[1] != m[3] || m[2] != "direct" {
		t.Errorf("Q1 aggregate: groups=%s %s with act_rows=%s, want a direct path with one row per group:\n%s", m[1], m[2], m[3], ex)
	}
	cols := colRe.FindAllStringSubmatch(ex, -1)
	if len(cols) != 7 {
		t.Fatalf("Q1 scan: %d col lines with skip=, want 7:\n%s", len(cols), ex)
	}
	for _, c := range cols {
		if k, _ := strconv.Atoi(c[2]); c[1] == "sd" && k == 0 {
			t.Errorf("Q1's ?sd kernel ran on every block though its bound admits them whole:\n%s", ex)
		}
	}

	ex, err = st.ExplainAnalyze(context.Background(), Q6(), qo)
	if err != nil {
		t.Fatal(err)
	}
	if m := groupsRe.FindStringSubmatch(ex); m == nil || m[1] != "1" || m[2] != "direct" {
		t.Errorf("Q6's ungrouped aggregate is not one direct group:\n%s", ex)
	}
	if cols := colRe.FindAllStringSubmatch(ex, -1); len(cols) != 4 {
		t.Errorf("Q6 scan: %d col lines with skip=, want 4:\n%s", len(cols), ex)
	}
}
