package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/fault"
	"srdf/internal/server"
	"srdf/internal/storage"
)

// This file is the disk-fault chaos harness: it runs the generated
// workload against a WAL+snapshot store whose durability I/O goes
// through the failpoint filesystem, breaks one class of syscall at a
// time (or many at random), and asserts the degradation contract:
//
//   - the process never dies and no write is half-applied,
//   - reads (driven over HTTP through the real server handler) keep
//     serving while the store is latched read-only,
//   - the store un-latches after the fault clears, and
//   - the recovered store — both live and re-opened from its snapshot
//     and log — is row-identical to a never-faulted reference.

// FaultPoints is the deterministic sweep axis: every durability
// syscall class the storage layer performs, by failpoint name.
var FaultPoints = []string{
	"fs.sync:wal",     // EIO on WAL fsync
	"fs.writeat:wal",  // short write flushing the WAL batch
	"fs.truncate:wal", // interrupted post-checkpoint truncate
	"fs.create:snapshot",
	"fs.write:snapshot", // disk full mid-checkpoint
	"fs.sync:snapshot",
	"fs.rename:snapshot", // failed atomic replace
	"fs.sync:dir",        // directory entry never made durable
}

// OpenFaultPoints is the open-path sweep axis: each entry is the set of
// failpoints armed while OpenStore runs against a mapped snapshot. One
// armed map fault must degrade to the whole-file-read fallback and open
// anyway; map and read broken together must fail with the injected
// error — never a SIGBUS or panic from a half-built mapping.
var OpenFaultPoints = [][]string{
	{"fs.map:snapshot"},
	{"fs.map:snapshot", "fs.read:snapshot"},
}

// RunChaosOpen saves a snapshot, arms points, and re-opens it. With the
// fallback still available the open must succeed and answer every
// deterministic query identically to a clean open; with no path left it
// must fail cleanly with the injected error. Panics (the symptom of
// touching a dead mapping) are caught and reported.
func RunChaosOpen(points []string, seed int64) (err error) {
	fault.Reset()
	defer fault.Reset()
	dir, err := os.MkdirTemp("", "srdf-chaos-open-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "open.srdf")

	sc := GenScript(seed, 40, 40)
	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.FS = fault.WrapFS(fault.OS())

	st := core.NewStore(opts)
	loadAll(st, sc.Initial)
	if _, err := st.Organize(); err != nil {
		return err
	}
	if err := st.Save(snapPath); err != nil {
		return err
	}
	st.Close()

	// Reference answers from a clean open.
	qo := coreQO()
	ref, err := core.OpenStore(snapPath, opts)
	if err != nil {
		return fmt.Errorf("clean open: %w", err)
	}
	want := map[string][]string{}
	for _, q := range sc.Queries {
		res, err := ref.Query(q.Text, qo)
		if err != nil {
			return fmt.Errorf("clean open query: %w", err)
		}
		want[q.Text] = sorted(renderRows(res.Rows))
	}
	ref.Close()

	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("open under %v panicked: %v", points, r)
		}
	}()
	for _, p := range points {
		fault.Enable(p, fault.Spec{Err: fault.ErrInjected})
	}
	faulted, openErr := core.OpenStore(snapPath, opts)
	fallbackLeft := len(points) < 2
	if !fallbackLeft {
		if openErr == nil {
			faulted.Close()
			return fmt.Errorf("open under %v succeeded with every read path broken", points)
		}
		if !errors.Is(openErr, fault.ErrInjected) {
			return fmt.Errorf("open under %v failed with a foreign error: %w", points, openErr)
		}
		return nil
	}
	if openErr != nil {
		return fmt.Errorf("open under %v did not fall back: %w", points, openErr)
	}
	defer faulted.Close()
	for _, q := range sc.Queries {
		res, err := faulted.Query(q.Text, qo)
		if err != nil {
			return fmt.Errorf("fallback-opened store: %w\nquery: %s", err, q.Text)
		}
		if got := sorted(renderRows(res.Rows)); !eqSeq(got, want[q.Text]) {
			return fmt.Errorf("fallback-opened store diverged\nquery: %s\ngot:  %v\nwant: %v",
				q.Text, got, want[q.Text])
		}
	}
	return nil
}

// chaosEnv is one chaos run's world: the faulted store behind a real
// server handler, plus a never-faulted reference built from the same
// script.
type chaosEnv struct {
	sc       *Script
	st       *core.Store
	ref      *core.Store
	handler  http.Handler
	dir      string
	walPath  string
	snapPath string
	opts     core.Options
}

func newChaosEnv(seed int64) (*chaosEnv, error) {
	dir, err := os.MkdirTemp("", "srdf-chaos-*")
	if err != nil {
		return nil, err
	}
	e := &chaosEnv{
		sc:       GenScript(seed, 40, 40),
		dir:      dir,
		walPath:  filepath.Join(dir, "chaos.wal"),
		snapPath: filepath.Join(dir, "chaos.srdf"),
	}
	e.opts = core.DefaultOptions()
	e.opts.CS.MinSupport = 3
	e.opts.FS = fault.WrapFS(fault.OS())
	e.opts.WALPath = e.walPath
	e.opts.Retry = storage.RetryPolicy{Attempts: 2, Base: 100 * time.Microsecond, Max: time.Millisecond}
	e.opts.ProbeInterval = 2 * time.Millisecond

	e.st = core.NewStore(e.opts)
	loadAll(e.st, e.sc.Initial)
	if _, err := e.st.Organize(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.st.Save(e.snapPath); err != nil {
		e.close()
		return nil, err
	}

	e.ref = newStore()
	loadAll(e.ref, e.sc.Initial)
	if _, err := e.ref.Organize(); err != nil {
		e.close()
		return nil, err
	}
	for _, op := range e.sc.Ops {
		if op.Del {
			e.ref.Delete(op.T)
		} else {
			e.ref.Add(op.T)
		}
	}

	// Admission overflow is not under test here: size the server so the
	// harness's few readers are never queued or rejected.
	e.handler = server.New(srdf.NewFromCore(e.st), server.Config{MaxConcurrent: 16}).Handler()
	return e, nil
}

func (e *chaosEnv) close() {
	if e.st != nil {
		e.st.Close()
	}
	os.RemoveAll(e.dir)
}

// get drives one request through the real server handler and requires
// the status code — the "reads keep serving" oracle.
func (e *chaosEnv) get(target string, want int) error {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := httptest.NewRecorder()
	e.handler.ServeHTTP(w, req)
	if w.Code != want {
		return fmt.Errorf("GET %s = %d, want %d: %s", target, w.Code, want, w.Body.String())
	}
	return nil
}

func (e *chaosEnv) sparqlTarget(q string) string {
	return "/sparql?query=" + url.QueryEscape(q)
}

// probeReads asserts the handler still answers queries and the
// liveness probe while the disk is broken.
func (e *chaosEnv) probeReads() error {
	if err := e.get(e.sparqlTarget(e.sc.Queries[0].Text), http.StatusOK); err != nil {
		return fmt.Errorf("degraded read: %w", err)
	}
	if err := e.get("/healthz", http.StatusOK); err != nil {
		return fmt.Errorf("degraded healthz: %w", err)
	}
	return nil
}

// applyOp injects one write; while a fault is armed the only
// acceptable failure is a clean ErrReadOnly rejection.
func (e *chaosEnv) applyOp(op Op, faulted bool) error {
	var err error
	if op.Del {
		err = e.st.Delete(op.T)
	} else {
		err = e.st.Add(op.T)
	}
	if err == nil {
		return nil
	}
	if faulted && errors.Is(err, core.ErrReadOnly) {
		return nil
	}
	return fmt.Errorf("write failed unclean (faulted=%v): %w", faulted, err)
}

// waitHealthy polls the store out of read-only mode after the fault is
// cleared.
func (e *chaosEnv) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for e.st.Health().State != core.StateHealthy {
		if time.Now().After(deadline) {
			return fmt.Errorf("store never recovered: %+v", e.st.Health())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// verify compares the faulted store against the reference on every
// deterministic query, then re-opens the durable state (snapshot +
// log) and compares that too.
func (e *chaosEnv) verify() error {
	qo := coreQO()
	for _, q := range e.sc.Queries {
		if !q.CrossStore {
			continue
		}
		want, err := e.ref.Query(q.Text, qo)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		got, err := e.st.Query(q.Text, qo)
		if err != nil {
			return fmt.Errorf("recovered store: %w\nquery: %s", err, q.Text)
		}
		if !eqSeq(sorted(renderRows(got.Rows)), sorted(renderRows(want.Rows))) {
			return fmt.Errorf("recovered store diverged from reference\nquery: %s\ngot:  %v\nwant: %v",
				q.Text, sorted(renderRows(got.Rows)), sorted(renderRows(want.Rows)))
		}
	}

	// Durable equivalence: checkpoint, re-open, re-compare.
	if err := e.st.Save(e.snapPath); err != nil {
		return fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	if err := e.st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	re, err := core.OpenStore(e.snapPath, e.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.st = re // close() handles it
	for _, q := range e.sc.Queries {
		if !q.CrossStore {
			continue
		}
		want, err := e.ref.Query(q.Text, qo)
		if err != nil {
			return err
		}
		got, err := re.Query(q.Text, qo)
		if err != nil {
			return fmt.Errorf("reopened store: %w\nquery: %s", err, q.Text)
		}
		if !eqSeq(sorted(renderRows(got.Rows)), sorted(renderRows(want.Rows))) {
			return fmt.Errorf("reopened store diverged from reference\nquery: %s", q.Text)
		}
	}
	return nil
}

// RunChaosPoint breaks one failpoint for the whole update phase:
// writes either apply or are rejected read-only, reads keep serving
// over HTTP, and after the fault clears the store recovers and ends
// row-identical to the reference (live and re-opened).
func RunChaosPoint(point string, seed int64) error {
	fault.Reset()
	defer fault.Reset()
	e, err := newChaosEnv(seed)
	if err != nil {
		return err
	}
	defer e.close()

	fault.Enable(point, fault.Spec{Err: fault.ErrInjected})
	for i, op := range e.sc.Ops {
		if err := e.applyOp(op, true); err != nil {
			return fmt.Errorf("%s: %w", point, err)
		}
		if i%5 == 4 {
			if err := e.probeReads(); err != nil {
				return fmt.Errorf("%s: %w", point, err)
			}
		}
		if i == len(e.sc.Ops)/2 {
			// a mid-run checkpoint drives the snapshot failpoints; its
			// failure must latch, never corrupt
			if err := e.st.Save(e.snapPath); err != nil &&
				!errors.Is(err, core.ErrReadOnly) && !errors.Is(err, storage.ErrDegraded) {
				return fmt.Errorf("%s: mid-run save failed unclean: %w", point, err)
			}
		}
	}
	fault.Disable(point)

	if err := e.waitHealthy(); err != nil {
		return fmt.Errorf("%s: %w", point, err)
	}
	// Re-apply the whole script — writes rejected while latched land
	// now; set semantics make the replay idempotent and order-exact.
	for _, op := range e.sc.Ops {
		if err := e.applyOp(op, false); err != nil {
			return fmt.Errorf("%s: post-recovery %w", point, err)
		}
	}
	if err := e.verify(); err != nil {
		return fmt.Errorf("%s: %w", point, err)
	}
	return nil
}

// RunChaosRandom is the randomized smoke: concurrent writers and HTTP
// readers race a flipper goroutine that arms and clears random
// failpoints. The invariants are the same — no crash, reads always
// answer, full recovery and equivalence once the storm passes.
func RunChaosRandom(seed int64, d time.Duration) error {
	fault.Reset()
	defer fault.Reset()
	e, err := newChaosEnv(seed)
	if err != nil {
		return err
	}
	defer e.close()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		stop = make(chan struct{})
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	// flipper: arm a random point with probabilistic firing, let it
	// bite, clear it, repeat
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(seed))
		for {
			point := FaultPoints[rnd.Intn(len(FaultPoints))]
			fault.Enable(point, fault.Spec{Err: fault.ErrInjected, Prob: 0.5})
			select {
			case <-stop:
				fault.Disable(point)
				return
			case <-time.After(5 * time.Millisecond):
			}
			fault.Disable(point)
		}
	}()

	// writers: hammer the update script in a loop, tolerating clean
	// read-only rejections
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := e.sc.Ops[(i*2+w)%len(e.sc.Ops)]
				if err := e.applyOp(op, true); err != nil {
					fail(err)
					return
				}
				if i%7 == 6 {
					if err := e.st.Save(e.snapPath); err != nil &&
						!errors.Is(err, core.ErrReadOnly) && !errors.Is(err, storage.ErrDegraded) {
						fail(fmt.Errorf("save failed unclean: %w", err))
						return
					}
				}
			}
		}(w)
	}

	// readers: queries and probes over the real handler must answer
	// throughout
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := e.sc.Queries[(i+r)%len(e.sc.Queries)]
				if err := e.get(e.sparqlTarget(q.Text), http.StatusOK); err != nil {
					fail(err)
					return
				}
				if err := e.get("/healthz", http.StatusOK); err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}

	time.Sleep(d)
	close(stop)
	wg.Wait()
	fault.Reset()
	if len(errs) > 0 {
		return errs[0]
	}

	if err := e.waitHealthy(); err != nil {
		return err
	}
	// serial replay re-establishes the canonical final state (last
	// write per triple wins), then the usual equivalence oracle runs
	for _, op := range e.sc.Ops {
		if err := e.applyOp(op, false); err != nil {
			return fmt.Errorf("post-storm %w", err)
		}
	}
	return e.verify()
}
