package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
)

// updateInstance is a snapshot reopened with a WAL behind the counting
// FS. One cycle adds a batch of new orders with their lineitems, deletes
// the lineitems of the oldest still-complete added orders, reads a COUNT
// that must see the whole batch, then reads Q6 windows over the delta
// layer. Auto-compaction fires on its own as the delta grows.
type updateInstance struct {
	store     *srdf.Store
	fs        *countingFS
	snap, wal string
	dir       string

	baseLineitems int
	baseQ6        map[int]float64 // year -> Q6 over the snapshot's lineitems
	feed          *orderFeed
	added         []rdfh.Lineitem // lineitems added and not yet deleted, oldest first

	userBytes int64 // N-Triples bytes of every triple the cycles wrote or deleted

	// one entry per cycle
	freshMS, freshQueryMS, addUS []float64
	deltaRows, tombstones        []int
	steadyMS                     []float64
}

func setupUpdate(cfg config, dir string) (instance, error) {
	return newUpdate(sfUpdate, cfg.seed, dir)
}

func newUpdate(sf float64, seed int64, dir string) (*updateInstance, error) {
	d, snap, err := buildSnapshot(sf, seed, dir)
	if err != nil {
		return nil, err
	}
	u := &updateInstance{fs: newCountingFS(), snap: snap, wal: filepath.Join(dir, "rdfh.wal"), dir: dir,
		baseLineitems: len(d.Lineitems), baseQ6: make(map[int]float64),
		feed: &orderFeed{sf: sf, seed: seed, baseOrders: len(d.Orders)}}
	for _, y := range q6Years {
		u.baseQ6[y] = refQ6Window(d.Lineitems, y)
	}
	os.Remove(u.wal)              // an earlier set-up of this run may have left one
	opts := core.DefaultOptions() // what srdf.Defaults() maps to
	opts.WALPath, opts.FS = u.wal, u.fs
	inner, err := core.OpenStore(snap, opts)
	if err != nil {
		return nil, err
	}
	u.store = srdf.NewFromCore(inner)
	// warm-up: the first read after Open rebuilds the six projections
	if err := u.read(countLineitems, expectCount(u.baseLineitems)); err != nil {
		return nil, err
	}
	return u, nil
}

func (u *updateInstance) close() error { return u.store.Close() }

// orderFeed hands out new orders with their lineitems, generated from
// seeds after the snapshot's and renumbered past every key handed out
// so far. The foreign keys (customer, part, supplier) stay inside the
// snapshot's ranges because the scale factor is the same.
type orderFeed struct {
	sf         float64
	seed       int64
	baseOrders int

	gen     int // generations consumed
	data    *rdfh.Data
	byOrder []int
	next    int // next order key (1-based) of the current generation
}

func (f *orderFeed) batch(n int) ([]rdfh.Order, []rdfh.Lineitem) {
	var orders []rdfh.Order
	var lis []rdfh.Lineitem
	for len(orders) < n {
		if f.data == nil || f.next > len(f.data.Orders) {
			f.gen++
			f.data = rdfh.Generate(f.sf, f.seed+int64(f.gen))
			f.byOrder = lineitemsByOrder(f.data)
			f.next = 1
		}
		shift := f.gen * f.baseOrders
		o := f.data.Orders[f.next-1]
		o.Key += shift
		orders = append(orders, o)
		for _, l := range f.data.Lineitems[f.byOrder[f.next]:f.byOrder[f.next+1]] {
			l.OrderKey += shift
			lis = append(lis, l)
		}
		f.next++
	}
	return orders, lis
}

// triplesOf emits the triples of orders and their lineitems (lis must
// hold them order by order), keeping those keep accepts.
func triplesOf(orders []rdfh.Order, lis []rdfh.Lineitem, keep func(nt.Triple) bool) []nt.Triple {
	var out []nt.Triple
	(&rdfh.Data{Orders: orders, Lineitems: lis}).Emit(func(t nt.Triple) {
		if keep == nil || keep(t) {
			out = append(out, t)
		}
	})
	return out
}

func isLineitem(t nt.Triple) bool { return strings.HasPrefix(t.S.Value, rdfh.NS+"lineitem/") }

type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) { b.n += int64(len(p)); return len(p), nil }

// ntBytes is the size of the triples as N-Triples text: the user's bytes
// that write_amp divides by.
func ntBytes(ts []nt.Triple) (int64, error) {
	var bc byteCounter
	w := nt.NewWriter(&bc)
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return 0, err
		}
	}
	return bc.n, w.Flush()
}

// read runs q in process and checks the answer.
func (u *updateInstance) read(q string, want expect) error {
	rows, err := drain(u.store, q)
	if err != nil {
		return err
	}
	return want.check(rows)
}

func (u *updateInstance) expectQ6(year int) expect {
	return expect{approx: [][]string{{ftoa(u.baseQ6[year] + refQ6Window(u.added, year))}}}
}

// run makes a fixed number of cycles, updateCyclesPerSecond for each
// second asked for, so every run writes the same batches and its counts
// (compactions, bytes written) repeat exactly.
func (u *updateInstance) run(seconds float64, clients int, tr *tracer, rec *recorder) error {
	start := time.Now()
	for n := fixedCount(seconds, updateCyclesPerSecond); n > 0; n-- {
		if err := u.cycle(tr, rec); err != nil {
			return err
		}
	}
	rec.wallS = time.Since(start).Seconds()
	return nil
}

func (u *updateInstance) cycle(tr *tracer, rec *recorder) error {
	// prepare the batch outside the timed part
	orders, lis := u.feed.batch(updateOrders)
	adds := triplesOf(orders, lis, nil)
	var dels []nt.Triple
	if len(u.freshMS) > 0 { // from the second cycle on, delete the oldest added lineitems
		cut, seen := 0, 0
		for cut < len(u.added) && seen < updateDeletes {
			k := u.added[cut].OrderKey
			for cut < len(u.added) && u.added[cut].OrderKey == k {
				cut++
			}
			seen++
		}
		// Emit walks orders, so hand it stub orders for the doomed lineitems
		var stubs []rdfh.Order
		for i := 0; i < cut; i++ {
			if i == 0 || u.added[i].OrderKey != u.added[i-1].OrderKey {
				stubs = append(stubs, rdfh.Order{Key: u.added[i].OrderKey})
			}
		}
		dels = triplesOf(stubs, u.added[:cut], isLineitem)
		u.added = u.added[cut:]
	}
	u.added = append(u.added, lis...)
	for _, ts := range [][]nt.Triple{adds, dels} {
		n, err := ntBytes(ts)
		if err != nil {
			return err
		}
		u.userBytes += n
	}

	op := tr.beginOp("op.cycle")
	t0 := time.Now()
	add, err := timed(tr, op, "core.Add", func() error {
		for _, t := range adds {
			if err := u.store.Add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := timed(tr, op, "core.Delete", func() error {
		for _, t := range dels {
			if err := u.store.Delete(t); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// the read that must see the whole batch: it pays the WAL fsync and
	// the refresh that folds the batch in
	var rows [][]string
	freshQuery, err := timed(tr, op, "core.Query.fresh", func() (err error) {
		rows, err = drain(u.store, countLineitems)
		return err
	})
	if err != nil {
		return err
	}
	fresh := time.Since(t0)
	if cerr := expectCount(u.baseLineitems + len(u.added)).check(rows); cerr != nil {
		rec.fail("freshness", fmt.Errorf("read-your-writes COUNT: %w", cerr))
	} else {
		rec.op("freshness", fresh)
	}
	for r := 0; r < updateReads; r++ {
		year := q6Years[r%len(q6Years)]
		text := q6Window(year)
		d, err := timed(tr, op, "core.Query.steady", func() (err error) {
			rows, err = drain(u.store, text)
			return err
		})
		if err != nil {
			return err
		}
		if cerr := u.expectQ6(year).check(rows); cerr != nil {
			rec.fail("steady_read", fmt.Errorf("Q6 %d over the delta layer: %w", year, cerr))
		} else {
			rec.op("steady_read", d)
			u.steadyMS = append(u.steadyMS, ms(d))
		}
	}
	st := u.store.Stats()
	fsc := u.fs.counters()
	tr.end(op, map[string]int64{"delta_rows": int64(st.DeltaRows), "tombstones": int64(st.Tombstones),
		"wal_records": int64(st.WALRecords), "epoch": int64(st.Epoch),
		"fs_writes": fsc.writes, "fs_write_bytes": fsc.writeBytes, "fs_fsyncs": fsc.fsyncs})
	u.freshMS = append(u.freshMS, ms(fresh))
	u.freshQueryMS = append(u.freshQueryMS, ms(freshQuery))
	u.addUS = append(u.addUS, float64(add.Microseconds())/float64(len(adds)))
	u.deltaRows = append(u.deltaRows, st.DeltaRows)
	u.tombstones = append(u.tombstones, st.Tombstones)
	return nil
}

// verify is the durability check: copy the snapshot and the WAL cut to
// their last-fsynced lengths — what a crash that lost every unsynced
// byte leaves — without closing the live store, open the copy, and
// require every batch a read acknowledged to be there.
func (u *updateInstance) verify() error {
	crash := filepath.Join(u.dir, "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		return err
	}
	snap, wal := filepath.Join(crash, "rdfh.srdf"), filepath.Join(crash, "rdfh.wal")
	for _, f := range []struct{ src, dst string }{{u.snap, snap}, {u.wal, wal}} {
		n, tracked := u.fs.syncedLen(f.src)
		if !tracked { // never written through the store's FS: the set-up's file, whole
			st, err := os.Stat(f.src)
			if err != nil {
				return err
			}
			n = st.Size()
		}
		if err := copySynced(f.src, f.dst, n); err != nil {
			return err
		}
	}
	opts := core.DefaultOptions()
	opts.WALPath = wal
	inner, err := core.OpenStore(snap, opts)
	if err != nil {
		return fmt.Errorf("durability: open the crash copy: %w", err)
	}
	recovered := &updateInstance{store: srdf.NewFromCore(inner), baseQ6: u.baseQ6, added: u.added}
	defer recovered.store.Close()
	if err := recovered.read(countLineitems, expectCount(u.baseLineitems+len(u.added))); err != nil {
		return fmt.Errorf("durability: COUNT after recovery: %w", err)
	}
	for _, y := range q6Years {
		if err := recovered.read(q6Window(y), recovered.expectQ6(y)); err != nil {
			return fmt.Errorf("durability: Q6 %d after recovery: %w", y, err)
		}
	}
	return nil
}

func (u *updateInstance) layers(tr *tracer, untraced, traced *recorder) (layerReport, error) {
	rep := layerReport{metrics: make(map[string]float64)}
	m := rep.metrics
	// a cycle compacted when it ends with fewer delta rows than the one before
	var compactMS, plainMS []float64
	for i := range u.deltaRows {
		if i > 0 && u.deltaRows[i] < u.deltaRows[i-1] {
			compactMS = append(compactMS, u.freshQueryMS[i])
		} else {
			plainMS = append(plainMS, u.freshQueryMS[i])
		}
	}
	fsc := u.fs.counters()
	m["freshness_p50_ms"] = median(u.freshMS)
	m["core.refresh_ms"] = median(plainMS) - median(u.steadyMS)
	m["core.add_us_per_triple"] = median(u.addUS)
	m["core.compactions"] = float64(len(compactMS))
	if len(compactMS) > 0 {
		m["core.compact_ms"] = median(compactMS) - median(plainMS)
	}
	last := len(u.deltaRows) - 1
	m["core.delta_rows"] = float64(u.deltaRows[last])
	m["core.tombstones"] = float64(u.tombstones[last])
	m["write_amp"] = ratio(float64(fsc.writeBytes), float64(u.userBytes))
	if st, err := os.Stat(u.wal); err == nil {
		m["storage.wal_bytes"] = float64(st.Size())
	}
	m["fs.writes"] = float64(fsc.writes)
	m["fs.write_bytes"] = float64(fsc.writeBytes)
	m["fs.fsyncs"] = float64(fsc.fsyncs)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d cycles, %d of them compacted; %d B of user N-Triples written or deleted; fs.* are totals", len(u.deltaRows), len(compactMS), u.userBytes),
		"fsync lands in the sandbox's page cache, so WAL sync time here is not a device's")
	return rep, nil
}
