// Crash-recovery differentials: the persistence layer must make a
// snapshot + WAL pair equivalent to the in-memory store it mirrors —
// after a clean round-trip, and after a crash at an arbitrary byte of
// the log.
package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"srdf/internal/core"
)

// persistOpts is newStore's configuration plus persistence attachments.
func persistOpts(walPath string) core.Options {
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = -1
	opts.WALPath = walPath
	return opts
}

// RunPersistRoundTrip is the clean-shutdown property: a store carrying
// the script's whole update history in its un-compacted delta layer is
// Saved and re-Opened, and must answer every query row-identically to
// the original in every plan configuration (the physical layout is
// restored exactly, so even LIMIT queries may not drift).
func RunPersistRoundTrip(seed int64, nSubj, nOps int, dir string) error {
	sc := GenScript(seed, nSubj, nOps)
	mut := newStore()
	loadAll(mut, sc.Initial)
	if _, err := mut.Organize(); err != nil {
		return err
	}
	for _, op := range sc.Ops {
		if op.Del {
			mut.Delete(op.T)
		} else {
			mut.Add(op.T)
		}
	}
	path := filepath.Join(dir, "roundtrip.srdf")
	if err := mut.Save(path); err != nil {
		return err
	}
	got, err := core.OpenStore(path, persistOpts(""))
	if err != nil {
		return err
	}
	if err := checkLiteralOrder("opened", mut, got); err != nil {
		return err
	}
	o := NewOracle(sc.Final())
	for _, q := range sc.Queries {
		want, err := o.Eval(q.Text)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		m, err := EvalQuery(mut, q.Text, want)
		if err != nil {
			return fmt.Errorf("original store: %w", err)
		}
		g, err := EvalQuery(got, q.Text, want)
		if err != nil {
			return fmt.Errorf("opened store: %w", err)
		}
		for _, cfg := range Configs {
			if !eqSeq(m[cfg], g[cfg]) {
				return fmt.Errorf("save/open drift: %v\nquery: %s\noriginal: %v\nopened:   %v",
					cfg, q.Text, m[cfg], g[cfg])
			}
		}
	}
	return nil
}

// RunCrashRecovery is the kill-at-a-random-offset property. A persisted
// store checkpoints after Organize, then applies the update script with
// every trickle write logged. The "crash" truncates the WAL at a byte
// offset chosen by cut in [0,1); recovery opens the snapshot and replays
// whatever complete records survived. The recovered store must answer —
// across plan modes — as the oracle does over the initial graph plus
// exactly the surviving operation prefix, and must remain fully live (it
// absorbs the rest of the script, compacts, and re-checks).
func RunCrashRecovery(seed int64, nSubj, nOps int, cut float64, dir string) error {
	sc := GenScript(seed, nSubj, nOps)
	snap := filepath.Join(dir, "crash.srdf")
	wal := filepath.Join(dir, "crash.wal")

	st := core.NewStore(persistOpts(wal))
	loadAll(st, sc.Initial)
	if _, err := st.Organize(); err != nil {
		return err
	}
	if err := st.Save(snap); err != nil {
		return err
	}
	for _, op := range sc.Ops {
		if op.Del {
			st.Delete(op.T)
		} else {
			st.Add(op.T)
		}
	}
	if err := st.Close(); err != nil { // sync the tail, then "crash"
		return err
	}

	// Kill: chop the log at an arbitrary byte. Whatever record the cut
	// lands in is torn; recovery must keep the complete prefix.
	data, err := os.ReadFile(wal)
	if err != nil {
		return err
	}
	cutOff := int(cut * float64(len(data)))
	if cutOff > len(data) {
		cutOff = len(data)
	}
	if err := os.WriteFile(wal, data[:cutOff], 0o644); err != nil {
		return err
	}

	rec, err := core.OpenStore(snap, persistOpts(wal))
	if err != nil {
		return err
	}
	defer rec.Close()
	if err := checkLiteralOrder("recovered", rec); err != nil {
		return err
	}

	// The surviving prefix is what the recovered store itself replayed.
	// The WAL records only effective operations (set-semantics no-ops are
	// suppressed before logging), so find the script index holding that
	// many effective ops by simulating the set.
	applied := rec.Stats().WALRecords
	idx, effective := opIndexOfEffective(sc, applied)
	if effective != applied {
		return fmt.Errorf("cut=%d/%d: recovered %d ops but the script only yields %d effective ops",
			cutOff, len(data), applied, effective)
	}

	if err := CheckEquivalence(sc.after(idx), sc.Queries, rec); err != nil {
		return fmt.Errorf("recovered(cut=%d/%d): %w", cutOff, len(data), err)
	}

	// Liveness after recovery: the store keeps absorbing the rest of the
	// script and compacting; the final state must answer as the oracle
	// does over the script's final triples.
	for _, op := range sc.Ops[idx:] {
		if op.Del {
			rec.Delete(op.T)
		} else {
			rec.Add(op.T)
		}
	}
	if _, err := rec.Compact(); err != nil {
		return err
	}
	if err := checkLiteralOrder("recovered+resumed", rec); err != nil {
		return err
	}
	if err := CheckEquivalence(sc.Final(), sc.Queries, rec); err != nil {
		return fmt.Errorf("recovered+resumed: %w", err)
	}
	return nil
}

// opIndexOfEffective simulates the script's set semantics and returns
// the script index right after the prefix containing `applied` effective
// operations, plus the effective count actually reached (smaller when
// the whole script has fewer). The simulation mirrors the store's WAL
// logging rule exactly: an Add logs iff the triple is absent, a Delete
// logs iff it is present.
func opIndexOfEffective(sc *Script, applied int) (idx, effective int) {
	set := make(map[string]bool)
	key := func(op Op) string { return op.T.S.String() + "|" + op.T.P.String() + "|" + op.T.O.String() }
	for _, t := range sc.Initial {
		set[t.S.String()+"|"+t.P.String()+"|"+t.O.String()] = true
	}
	for i, op := range sc.Ops {
		if effective >= applied {
			return i, effective
		}
		k := key(op)
		if op.Del {
			if set[k] {
				set[k] = false
				effective++
			}
		} else if !set[k] {
			set[k] = true
			effective++
		}
	}
	return len(sc.Ops), effective
}
