package fault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fire hits the point n times and records, per hit, whether it fired.
func fire(name string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = Hit(name) != nil
	}
	return out
}

func pattern(fired []bool) string {
	var b strings.Builder
	for _, f := range fired {
		if f {
			b.WriteByte('x')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

func TestIdleRegistry(t *testing.T) {
	Reset()
	if err := Hit("idle.point"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if Hits("idle.point") != 0 {
		t.Fatal("hits counted while nothing was armed")
	}
	Enable("other.point", Spec{Err: ErrInjected})
	defer Reset()
	if err := Hit("idle.point"); err != nil {
		t.Fatalf("a different armed point fired this one: %v", err)
	}
}

func TestErrWrapsCause(t *testing.T) {
	Reset()
	defer Reset()
	Enable("err.point", Spec{Err: ErrInjected})
	err := Hit("err.point")
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "err.point") {
		t.Fatalf("Hit = %v, want ErrInjected naming the point", err)
	}
	if Fired("err.point") != 1 || Hits("err.point") != 1 {
		t.Fatalf("fired %d, hits %d; want 1, 1", Fired("err.point"), Hits("err.point"))
	}
}

func TestOnHitAndCount(t *testing.T) {
	Reset()
	defer Reset()
	Enable("onhit", Spec{Err: ErrInjected, OnHit: 3})
	if got := pattern(fire("onhit", 6)); got != "..xxxx" {
		t.Fatalf("OnHit 3: %s, want ..xxxx (the 3rd hit and every one after)", got)
	}
	Enable("count", Spec{Err: ErrInjected, Count: 2})
	if got := pattern(fire("count", 5)); got != "xx..." {
		t.Fatalf("Count 2: %s, want xx...", got)
	}
	Enable("both", Spec{Err: ErrInjected, OnHit: 2, Count: 1})
	if got := pattern(fire("both", 4)); got != ".x.." {
		t.Fatalf("OnHit 2 Count 1: %s, want .x..", got)
	}
	if Fired("both") != 1 || Hits("both") != 4 {
		t.Fatalf("fired %d hits %d, want 1 and 4", Fired("both"), Hits("both"))
	}
}

// TestProbDeterministic: a probabilistic point fires on a fraction of
// hits, and re-arming it replays exactly the same sequence — each point
// owns an rng seeded from its name.
func TestProbDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	Enable("prob.point", Spec{Err: ErrInjected, Prob: 0.3})
	first := pattern(fire("prob.point", 400))
	n := strings.Count(first, "x")
	if n < 80 || n > 160 {
		t.Fatalf("Prob 0.3 fired %d of 400 hits", n)
	}
	Enable("prob.point", Spec{Err: ErrInjected, Prob: 0.3}) // re-arm: counters and rng restart
	if again := pattern(fire("prob.point", 400)); again != first {
		t.Fatal("re-armed probabilistic point fired a different sequence")
	}
	if Fired("prob.point") != n {
		t.Fatalf("Fired = %d after re-arm, want %d", Fired("prob.point"), n)
	}
	if Hits("prob.point") != 800 {
		t.Fatalf("lifetime hits = %d, want 800", Hits("prob.point"))
	}
}

func TestDelay(t *testing.T) {
	Reset()
	defer Reset()
	Enable("slow", Spec{Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatalf("delay-only point returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay-only point returned after %v", d)
	}
	if Fired("slow") != 1 {
		t.Fatal("a delay counts as firing")
	}
}

func TestPanic(t *testing.T) {
	Reset()
	defer Reset()
	Enable("boom", Spec{Panic: "disk on fire", Err: ErrInjected})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "disk on fire") {
			t.Fatalf("recovered %v, want the injected panic naming point and message", r)
		}
	}()
	Hit("boom")
	t.Fatal("Panic spec did not panic")
}

// TestDisableAndReset: Disable disarms one point but keeps its lifetime
// hit count; Reset disarms everything and clears the counts.
func TestDisableAndReset(t *testing.T) {
	Reset()
	defer Reset()
	Enable("a", Spec{Err: ErrInjected})
	Enable("b", Spec{Err: ErrInjected})
	fire("a", 3)
	Disable("a")
	Disable("a") // idempotent
	if err := Hit("a"); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
	if Hits("a") != 3 {
		t.Fatalf("Hits after Disable = %d, want 3", Hits("a"))
	}
	if Fired("a") != 0 {
		t.Fatal("Fired reports a disabled point")
	}
	if Hit("b") == nil {
		t.Fatal("disabling a also disarmed b")
	}
	Reset()
	if Hit("b") != nil || Hits("a") != 0 || Hits("b") != 0 {
		t.Fatal("Reset left a point armed or a hit count behind")
	}
	if armed.Load() != 0 {
		t.Fatalf("armed gate = %d after Reset", armed.Load())
	}
}

// TestWrapFSRouting: each syscall class of the wrapped filesystem
// consults its own point, named by operation and by file class (".wal"
// in the base name, else snapshot; directory syncs are "dir").
func TestWrapFSRouting(t *testing.T) {
	Reset()
	defer Reset()
	dir := t.TempDir()
	fs := WrapFS(OS())
	wal := filepath.Join(dir, "store.wal")
	snap := filepath.Join(dir, "store.srdf")
	if err := os.WriteFile(snap, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(point string, op func() error) {
		t.Helper()
		Enable(point, Spec{Err: ErrInjected, Count: 1})
		if err := op(); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: op returned %v, want the injected fault", point, err)
		}
		if Fired(point) != 1 {
			t.Fatalf("%s did not fire", point)
		}
		Disable(point)
	}

	check("fs.open:wal", func() error { _, err := fs.OpenFile(wal, os.O_CREATE|os.O_RDWR, 0o644); return err })
	check("fs.create:snapshot", func() error { _, err := fs.CreateTemp(dir, "store.srdf.tmp*"); return err })
	check("fs.read:snapshot", func() error { _, err := fs.ReadFile(snap); return err })
	check("fs.rename:snapshot", func() error { return fs.Rename(snap, snap) })
	check("fs.remove:wal", func() error { return fs.Remove(wal) })
	check("fs.sync:dir", func() error { return fs.SyncDir(dir) })

	f, err := fs.OpenFile(wal, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	check("fs.write:wal", func() error { _, err := f.Write([]byte("r")); return err })
	check("fs.writeat:wal", func() error { _, err := f.WriteAt([]byte("r"), 0); return err })
	check("fs.truncate:wal", func() error { return f.Truncate(0) })
	check("fs.sync:wal", func() error { return f.Sync() })
	check("fs.seek:wal", func() error { _, err := f.Seek(0, 0); return err })
	check("fs.close:wal", func() error { return f.Close() })
	if err := f.Close(); err != nil { // the injected close left the handle open
		t.Fatal(err)
	}

	// A snapshot-class point never fires on a WAL handle.
	Enable("fs.sync:snapshot", Spec{Err: ErrInjected})
	g, err := fs.OpenFile(wal, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("snapshot point fired on a WAL sync: %v", err)
	}
	g.Close()
	if m, ok := fs.(interface{ MapHit(string) error }); !ok {
		t.Fatal("wrapped FS lacks MapHit")
	} else {
		Enable("fs.map:snapshot", Spec{Err: ErrInjected})
		if !errors.Is(m.MapHit(snap), ErrInjected) {
			t.Fatal("fs.map:snapshot did not fire")
		}
	}
}
