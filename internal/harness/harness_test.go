package harness

import (
	"path/filepath"
	"strings"
	"testing"

	"srdf/internal/core"
)

// TestDifferentialSeeds is the deterministic slice of the property: a
// handful of seeds covering small and mid-size graphs with mixed
// add/delete scripts.
func TestDifferentialSeeds(t *testing.T) {
	cases := []struct {
		seed  int64
		nSubj int
		nOps  int
	}{
		{seed: 1, nSubj: 40, nOps: 30},
		{seed: 2, nSubj: 60, nOps: 50},
		{seed: 3, nSubj: 25, nOps: 60},
		{seed: 7, nSubj: 80, nOps: 20},
		{seed: 11, nSubj: 50, nOps: 45},
	}
	for _, c := range cases {
		c := c
		t.Run("", func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(c.seed, c.nSubj, c.nOps); err != nil {
				t.Fatalf("seed=%d nSubj=%d nOps=%d: %v", c.seed, c.nSubj, c.nOps, err)
			}
		})
	}
}

// TestDifferentialDeleteOnly drives a script that deletes a large
// fraction of the graph, exercising tombstones without new delta rows.
func TestDifferentialDeleteOnly(t *testing.T) {
	sc := GenScript(5, 50, 0)
	// rewrite the op tape: delete every third initial triple
	for i, tr := range dedup(sc.Initial) {
		if i%3 == 0 {
			sc.Ops = append(sc.Ops, Op{Del: true, T: tr})
		}
	}
	mut, fresh, err := BuildStores(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, mut, fresh); err != nil {
		t.Fatalf("pre-compact: %v", err)
	}
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, mut); err != nil {
		t.Fatalf("post-compact: %v", err)
	}
}

// TestAutoCompactEquivalence re-runs a script with a tiny
// CompactThreshold so compaction triggers mid-script, interleaved with
// the updates — results must still match the oracle.
func TestAutoCompactEquivalence(t *testing.T) {
	sc := GenScript(9, 50, 60)
	st := autoStore(8)
	loadAll(st, sc.Initial)
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	for i, op := range sc.Ops {
		if op.Del {
			st.Delete(op.T)
		} else {
			st.Add(op.T)
		}
		if i%7 == 0 {
			// interleave queries so refreshes (and auto-compactions)
			// happen mid-script
			if _, err := st.Query(sc.Queries[0].Text, coreQO()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkLiteralOrder("auto-compacted", st); err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, st); err != nil {
		t.Fatalf("auto-compacted store: %v", err)
	}
	if st.Stats().DeltaRows > 8+16 {
		t.Fatalf("auto-compaction did not bound the delta: %d rows", st.Stats().DeltaRows)
	}
}

// TestDifferentialReopened adds the reopened storage state: a mutated
// store (deltas and tombstones pending) is saved and opened again, and
// must still answer as the oracle does — the mixed-kind range filters
// and aggregates included.
func TestDifferentialReopened(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		sc := GenScript(seed, 50, 40)
		mut, _, err := BuildStores(sc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "store.srdf")
		if err := mut.Save(path); err != nil {
			t.Fatal(err)
		}
		re, err := core.OpenStore(path, storeOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if err := checkLiteralOrder("reopened", re); err != nil {
			t.Fatal(err)
		}
		if err := CheckEquivalence(sc.Final(), sc.Queries, re); err != nil {
			t.Fatalf("seed=%d reopened: %v", seed, err)
		}
	}
}

// TestMintingSeeds runs the minting leg: update scripts whose new
// literals land inside, outside and on the bounds of the queries' range
// FILTERs, checked in the delta, compacted and WAL-replayed states. The
// large case spans several zone-map blocks per table, so compacted
// blocks holding overflow literals sit beside blocks sealed at Organize.
func TestMintingSeeds(t *testing.T) {
	cases := []struct {
		seed  int64
		nSubj int
		nOps  int
	}{
		{seed: 1, nSubj: 40, nOps: 60},
		{seed: 4, nSubj: 90, nOps: 120},
		{seed: 8, nSubj: 3000, nOps: 400},
	}
	for _, c := range cases {
		c := c
		t.Run("", func(t *testing.T) {
			t.Parallel()
			if err := RunMinting(c.seed, c.nSubj, c.nOps, t.TempDir()); err != nil {
				t.Fatalf("seed=%d nSubj=%d nOps=%d: %v", c.seed, c.nSubj, c.nOps, err)
			}
		})
	}
}

// TestMintingOverflowBlocks compacts enough fresh subjects to fill whole
// zone-map blocks with overflow literals only, so zone pruning and the
// range kernels of compacted blocks must honour the overflow members.
func TestMintingOverflowBlocks(t *testing.T) {
	sc := GenMintScript(6, 300, 40)
	sc.AppendFreshSubjects(6, 2200)
	mut, fresh, err := BuildStores(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := checkLiteralOrder("compacted", mut); err != nil {
		t.Fatal(err)
	}
	ex, err := mut.Explain(sc.Queries[0].Text, coreQO())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "+ovf") {
		t.Fatalf("range over minted literals shows no overflow members:\n%s", ex)
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, mut, fresh); err != nil {
		t.Fatal(err)
	}
}
