package harness

import "testing"

// FuzzDifferential explores the seed space of the full differential
// property: random graphs, random update scripts, random queries — a
// mutated store and a fresh re-organization must answer as the oracle
// does, before and after Compact, across plan modes.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30))
	f.Add(int64(42), uint8(20), uint8(60))
	f.Add(int64(7), uint8(70), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, nSubj, nOps uint8) {
		// clamp to keep one case fast; the fuzzer varies structure, not
		// scale
		subjects := 10 + int(nSubj)%90
		ops := int(nOps) % 80
		if err := RunDifferential(seed, subjects, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDeltaCompact stresses the delta lifecycle specifically: a store
// with a tiny auto-compaction threshold absorbs the script with
// compactions firing mid-stream, and must answer every query as the
// oracle does. Each input runs the general script and the minting
// script, whose range FILTERs sit on the predicates its updates mint
// literals for.
func FuzzDeltaCompact(f *testing.F) {
	f.Add(int64(9), uint8(50), uint8(60), uint8(8))
	f.Add(int64(3), uint8(30), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nSubj, nOps, thr uint8) {
		subjects := 10 + int(nSubj)%90
		ops := int(nOps) % 80
		threshold := 1 + int(thr)%16
		for _, sc := range []*Script{GenScript(seed, subjects, ops), GenMintScript(seed, subjects, ops)} {
			checkAutoCompacted(t, sc, threshold)
		}
	})
}

// checkAutoCompacted applies the script to a store auto-compacting past
// threshold, with queries forcing refreshes mid-stream, and checks it
// against the oracle over the final triples.
func checkAutoCompacted(t *testing.T, sc *Script, threshold int) {
	t.Helper()
	st := autoStore(threshold)
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
		if i%5 == 0 {
			// force refreshes so auto-compaction interleaves with
			// the update stream
			if _, err := st.Query(sc.Queries[0].Text, coreQO()); err != nil {
				t.Fatal(err)
			}
			if err := CheckResidence(st, sc.after(i+1), false); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
		}
	}
	if err := checkLiteralOrder("auto-compacted", st); err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, st); err != nil {
		t.Fatalf("auto-compacted store: %v", err)
	}
}
