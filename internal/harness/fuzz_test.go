package harness

import "testing"

// FuzzDifferential explores the seed space of the full differential
// property: random graphs, random update scripts, random queries —
// mutated-store results must match a fresh re-organization, before and
// after Compact, across plan modes and parallelism.
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
// compactions firing mid-stream, and must stay equivalent to the fresh
// store on every deterministic query. Each input runs the general script
// and the minting script, whose range FILTERs sit on the predicates its
// updates mint literals for.
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
// threshold, with queries forcing refreshes mid-stream, and compares it
// with a fresh store organized on the final triples.
func checkAutoCompacted(t *testing.T, sc *Script, threshold int) {
	t.Helper()
	st := autoStore(1, threshold)
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
		}
	}
	fresh := newStore(1)
	loadAll(fresh, sc.Final())
	if _, err := fresh.Organize(); err != nil {
		t.Fatal(err)
	}
	if err := checkLiteralOrder("auto-compacted", st); err != nil {
		t.Fatal(err)
	}
	for _, q := range sc.Queries {
		if !q.CrossStore {
			continue
		}
		a, err := EvalQuery(st, q.Text)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EvalQuery(fresh, q.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range Configs {
			if !eqSeq(sorted(a[cfg]), sorted(b[cfg])) {
				t.Fatalf("%v: auto-compacted store != fresh store\nquery: %s\ngot:  %v\nwant: %v",
					cfg, q.Text, sorted(a[cfg]), sorted(b[cfg]))
			}
		}
	}
}
