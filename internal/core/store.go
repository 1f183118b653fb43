// Package core is the self-organizing RDF store: it ties ingestion,
// characteristic-set discovery, subject clustering, the relational
// catalog, and the two query-plan families into one engine — the system
// Figure 1 of the paper sketches inside the MonetDB kernel.
//
// Lifecycle: load triples (bulk or trickle), call Organize to let the
// store discover and materialize its emergent schema, then query in
// either plan mode. After Organize the store stays live: Add and Delete
// land in a mutable delta layer (per-table delta rows behind the sealed
// segments, tombstone bitmaps, and the irregular leftover store), each
// changed subject is re-assigned to an existing CS table by incremental
// characteristic-set matching, and Compact merges the delta back into
// freshly sealed segments — so the schema keeps fitting the data without
// a full rebuild.
//
// Concurrency: queries execute against an immutable epoch snapshot
// (catalog version + index set) taken under the store mutex at plan
// time, so readers never block writers and a stream started before an
// Add/Delete/Compact keeps a consistent view. Only Organize — which
// renumbers the dictionary — excludes readers, via a reader gate.
package core

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/fault"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/storage"
	"srdf/internal/triples"
)

// DefaultCompactThreshold is the reclaimable tail size (delta rows +
// tombstoned tail rows) past which a refresh triggers an automatic
// Compact.
const DefaultCompactThreshold = 4096

// Options configures a Store.
type Options struct {
	// CS tunes schema discovery.
	CS cs.Options
	// Cluster tunes subject clustering.
	Cluster cluster.Options
	// PoolBytes caps the real memory the buffer pool lets decoded
	// sealed segments occupy (<=0: unlimited). Past the budget, the
	// least-recently-used unpinned segments are evicted back to their
	// on-disk encoded form and fault in again on the next touch.
	PoolBytes int64
	// CompactThreshold is the reclaimable tail size (delta rows +
	// tombstoned tail rows; clustered tombstones stay until Organize)
	// that auto-triggers Compact during a refresh; 0 means
	// DefaultCompactThreshold, negative disables auto-compaction.
	CompactThreshold int
	// WALPath attaches a write-ahead log: every trickle Add/Delete is
	// recorded lexically and fsynced at batch boundaries (before a
	// refresh publishes, at checkpoints, and on Close), so the delta
	// layer survives crashes. Existing records are replayed through the
	// ordinary update path when the store is created or opened. Bulk
	// loads are not logged — checkpoint them with Save.
	WALPath string
	// FS routes every durability syscall (WAL, snapshot) through an
	// injectable filesystem — the fault-injection seam. Nil uses the
	// real one.
	FS fault.FS
	// Retry bounds immediate retries of failed durability writes
	// before the store latches read-only. Zero uses
	// storage.DefaultRetry.
	Retry storage.RetryPolicy
	// ProbeInterval is the base backoff between recovery probes while
	// read-only (doubles per failure, capped at 32×). 0 uses
	// DefaultProbeInterval.
	ProbeInterval time.Duration
}

// DefaultPlanCacheSize is the prepared-plan cache capacity (entries).
const DefaultPlanCacheSize = 256

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		CS:      cs.DefaultOptions(),
		Cluster: cluster.DefaultOptions(),
	}
}

// QueryOptions selects the plan family per query, mirroring Table I's
// configuration axes.
type QueryOptions struct {
	// Mode selects the plan family: per-property index scans with
	// self-joins (ModeDefault) or RDFscan/RDFjoin over the emergent
	// tables (ModeRDFScan).
	Mode plan.Mode
	// ZoneMaps lets RDFscan skip blocks by their min/max summaries.
	ZoneMaps bool
	// ForceAlgo pins the physical join algorithm ("hash" or "fk")
	// wherever the optimizer could have applied it; joins the pinned
	// algorithm cannot serve keep the cost-based choice, and any other
	// non-empty value fails the query. Meant for testing and plan
	// comparison, not production use.
	ForceAlgo string
	// NoBloom disables runtime bloom filters on hash-join probe sides.
	NoBloom bool
	// ForceOrder fixes the left-deep star join order by subject
	// variable name (without the leading '?').
	ForceOrder []string
	// MemLimit bounds the bytes the query's materializing operators
	// (hash-join builds, aggregation state, sort rows, DISTINCT keys)
	// may retain; 0 is unlimited. An exceeded budget fails the one query
	// with exec.ErrMemBudget — concurrent queries and the store itself
	// are unaffected. Not part of the plan-cache key: it changes
	// admission, not the plan.
	MemLimit int64
}

// snapshot is the immutable state one query executes against: once
// published it is never mutated — writers build replacements (the next
// index set is merged into fresh arrays, the catalog is cloned
// copy-on-write), so concurrent readers keep a consistent epoch. The one
// thing a reader may add to a published snapshot is a triple projection
// nobody needed before: the index set sorts it on first use, from its
// own SPO arrays, under its own lock.
type snapshot struct {
	epoch     uint64
	dict      *dict.Dictionary
	idx       *triples.IndexSet
	schema    *cs.Schema
	cat       *relational.Catalog
	organized bool
	// lits is the literal order as of this epoch: the watermark and an
	// immutable overflow index, which plans read instead of the live
	// dictionary the writers keep minting into.
	lits *dict.LiteralOrder
	ctx  *exec.Ctx
}

func (sn *snapshot) view() *plan.StoreView {
	return &plan.StoreView{
		Dict:      sn.dict,
		Idx:       sn.idx,
		Schema:    sn.schema,
		Cat:       sn.cat,
		Organized: sn.organized,
		Lits:      sn.lits,
	}
}

// Store is the self-organizing RDF store.
type Store struct {
	// mu guards all organizational state. Writers hold it briefly;
	// queries hold it only through refresh + planning, then execute
	// against the published snapshot without any store lock.
	mu sync.Mutex
	// gate holds queries (read side, for their full lifetime) apart from
	// Organize (write side): Organize renumbers the shared dictionary in
	// place, the one mutation snapshots cannot hide.
	gate sync.RWMutex

	opts Options

	dict *dict.Dictionary
	// idx is the only store of the triples: its SPO projection is the
	// row store, a set, as of the last fold of the pending writes below.
	idx  *triples.IndexSet
	pool *colstore.BufferPool
	// blob is the mapped (or heap-fallback) snapshot backing the lazy
	// segments of an opened store; nil for stores built in memory. It
	// must stay open while any reader can still fault a segment in, so
	// it is released only on Close.
	blob *storage.Blob

	schema    *cs.Schema
	clusterIn *cluster.Info
	cat       *relational.Catalog
	organized bool

	// addPending holds the adds not yet folded into idx, in arrival
	// order (a bulk load before Organize is one long batch of them);
	// delPending holds the requested deletions. An add cancels a pending
	// delete of its triple, so a triple in both was deleted after its
	// last add.
	addPending *triples.Table
	delPending map[triples.Triple]struct{}
	// touched collects subjects whose residence must be re-resolved by
	// the next refresh (post-Organize adds and deletes).
	touched map[dict.OID]struct{}
	// deltaSet tracks post-Organize adds not yet folded into idx, for
	// duplicate suppression (RDF graphs are sets).
	deltaSet map[triples.Triple]struct{}

	epoch uint64
	snap  *snapshot

	// snapshotPath is the checkpoint target: once set (by Save or
	// OpenStore), Organize and Compact write a fresh snapshot there and
	// truncate the WAL. wal is nil when no log is attached. walErr
	// records the last sync/truncate failure (the pending batch stays
	// buffered for the retry); walLost records an operation that could
	// not be logged at all, which only a successful snapshot checkpoint
	// — capturing the in-memory state the log missed — repairs. Either
	// one past the retry budget latches the explicit read-only mode
	// below instead of fail-stopping queries.
	snapshotPath string
	wal          *storage.WAL
	walErr       error
	walLost      error
	// fs is the injectable filesystem all durability I/O goes through.
	fs fault.FS

	// Read-only latch (graceful degradation): when durability writes
	// fail past the retry budget the store rejects writes with
	// ErrReadOnly and keeps serving reads from the last published
	// epoch; a background prober (probeC non-nil while running)
	// re-attempts the failed operation with exponential backoff and
	// un-latches when the disk recovers. ckptPending marks a failed
	// checkpoint that recovery must re-run.
	ro          bool
	roCause     error
	roSince     time.Time
	roProbes    int
	roNext      time.Time
	probeC      chan struct{}
	ckptPending bool

	// ckptMu serializes checkpoint file I/O, which happens with mu
	// RELEASED so a multi-second snapshot write never stalls concurrent
	// queries or trickle writes. Lock order is strictly mu → unlock mu →
	// ckptMu (never ckptMu while holding mu). ckptSeq numbers checkpoint
	// attempts (under mu); ckptWritten (under ckptMu) is the highest
	// attempt whose bytes reached disk, so an attempt overtaken while
	// waiting for ckptMu skips its stale write instead of clobbering a
	// newer snapshot.
	ckptMu      sync.Mutex
	ckptSeq     uint64
	ckptWritten uint64

	// plans is the prepared-plan cache, guarded by mu like the rest of
	// the planning state.
	plans *planCache

	// qlog is the structured query log: a ring of completed
	// QueryRecords plus cumulative workload counters, self-locked (one
	// short hold per completed query). Its filter counts are the
	// workload signal the next Organize chooses subject-clustering sort
	// keys from (research question iii / the §II-D acknowledgment that
	// sort-key choice needs workload analysis).
	qlog *queryLog

	// born marks store creation, for uptime reporting.
	born time.Time

	// log receives one line per refresh that folded writes in (nil:
	// none); see SetLogger.
	log *slog.Logger
}

// SetLogger directs the store's operational log — one line per refresh
// that published new state: epoch, batch size, which projections were
// merged, duration — to l; nil (the default) turns it off.
func (s *Store) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = l
}

// NewStore creates an empty store. With Options.WALPath set, an existing
// log is replayed into the new store and subsequent trickle writes are
// recorded; a log that cannot be opened latches an error surfaced by the
// first Save, Close, or checkpoint.
func NewStore(opts Options) *Store {
	s := newBareStore(opts)
	if opts.WALPath != "" {
		s.attachWALLocked(opts.WALPath)
	}
	return s
}

func newBareStore(opts Options) *Store {
	fs := opts.FS
	if fs == nil {
		fs = fault.OS()
	}
	return &Store{
		opts:       opts,
		fs:         fs,
		dict:       dict.New(),
		idx:        triples.NewIndexSet(triples.NewTable(0)),
		pool:       newPool(opts),
		addPending: triples.NewTable(0),
		delPending: make(map[triples.Triple]struct{}),
		touched:    make(map[dict.OID]struct{}),
		deltaSet:   make(map[triples.Triple]struct{}),
		plans:      newPlanCache(DefaultPlanCacheSize),
		qlog:       newQueryLog(DefaultQueryLogSize),
		born:       time.Now(),
	}
}

// newPool builds the store's buffer pool: an unbounded page simulation
// and the real decoded-byte budget from Options.PoolBytes.
func newPool(opts Options) *colstore.BufferPool {
	p := colstore.NewPool(0)
	p.SetBudget(opts.PoolBytes)
	return p
}

// OpenStore loads a snapshot written by Save and attaches it as the
// store's checkpoint target. Opening is cheap and out-of-core: the
// file is mapped read-only where the platform allows (whole-file read
// fallback otherwise), sealed segment payloads are checksummed but not
// decoded (they fault in on first scan, visible in
// PoolStats.SegmentsLazy/SegmentsDecoded, and under Options.PoolBytes
// pressure are evicted back to the mapping), and the triples section,
// written in SPO order, is adopted as the store's SPO projection without
// a sort — so neither Open, nor the first query, nor the presence check
// of the first write sorts anything (a file whose rows are out of order
// is sorted once here). Other projections are sorted when a plan first
// reads them. With Options.WALPath set, the log's surviving records are
// replayed through the ordinary delta path before the store is
// returned — crash recovery is exactly "load latest snapshot, re-apply
// the logged tail".
func OpenStore(path string, opts Options) (*Store, error) {
	s := newBareStore(opts)
	snap, blob, err := storage.OpenFileFS(s.fs, path, s.pool)
	if err != nil {
		return nil, err
	}
	s.blob = blob
	s.dict = snap.Dict
	s.idx = triples.NewIndexSet(snap.Triples)
	s.schema = snap.Schema
	s.cat = snap.Catalog
	s.organized = snap.Organized
	s.snapshotPath = path
	if opts.WALPath != "" {
		s.attachWALLocked(opts.WALPath)
		if s.walErr != nil {
			s.stopProbeLocked()
			return nil, s.walErr
		}
	}
	return s, nil
}

// attachWALLocked opens (or creates) the log, replays its records
// through the ordinary update path, and starts recording. A log that
// cannot be opened latches the store read-only — writes without a
// durable record are rejected, not silently accepted — and the
// background probe keeps re-trying the attach.
func (s *Store) attachWALLocked(path string) {
	w, ops, err := storage.OpenWALFS(s.fs, path)
	if err != nil {
		s.walErr = fmt.Errorf("core: wal: %w", err)
		s.latchLocked(s.walErr)
		return
	}
	// s.wal is still nil during replay, so the replayed operations are
	// not re-appended to the log they came from.
	for _, op := range ops {
		if op.Del {
			s.deleteLocked(op.T)
		} else {
			s.addLocked(op.T)
		}
	}
	s.wal = w
}

// logLocked records one applied trickle operation. An operation the
// log cannot hold (the write path screens sizes up front, so this is a
// should-not-happen guard) latches walLost and read-only mode: the
// write is live in memory but has no durable copy until a snapshot
// checkpoint captures it.
func (s *Store) logLocked(del bool, t nt.Triple) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(storage.Op{Del: del, T: t}); err != nil {
		if s.walLost == nil {
			s.walLost = fmt.Errorf("core: wal append: %w", err)
		}
		s.latchLocked(s.walLost)
	}
}

// syncWALLocked flushes the pending batch with the bounded immediate
// retry budget. Exhausting it latches the store read-only: the pending
// records stay buffered, recovery probes keep retrying them, and a
// successful sync un-latches.
func (s *Store) syncWALLocked() {
	if s.wal == nil {
		return
	}
	if err := storage.Retry(s.retryPolicy(), s.wal.Sync); err != nil {
		s.walErr = fmt.Errorf("core: wal sync: %w", err)
		s.latchLocked(s.walErr)
		return
	}
	s.walErr = nil
}

// checkpointLocked makes the current state durable: with a snapshot path
// attached it serializes a fresh snapshot under the store mutex, then
// RELEASES the mutex for the slow part — file write, fsync, atomic
// rename — so checkpoint I/O never stalls concurrent queries or trickle
// writes. The logged operations are folded into the snapshot, and
// replaying any tail that survives a badly timed crash is idempotent
// because the graph is a set. The WAL is truncated only if no records
// were appended while the mutex was released (appended records are not
// in the written snapshot; they stay logged and replay idempotently over
// it). With only a WAL attached it syncs the pending batch. A successful
// checkpoint clears a latched sync failure (the records the failed sync
// owed are in the snapshot now), so transient disk trouble never wedges
// the store permanently.
//
// Called with s.mu held; returns with s.mu held.
func (s *Store) checkpointLocked() error {
	if s.wal == nil && s.walErr != nil {
		// the WAL never attached; Close clears this to proceed without one
		return s.walErr
	}
	if s.snapshotPath == "" {
		if s.wal != nil {
			s.syncWALLocked()
			return s.walErr
		}
		return nil
	}
	// Serialize under mu: the byte slice is an immutable copy of this
	// instant's state, so the file write needs no lock at all. Writes a
	// refresh has not folded yet (a recovery probe checkpoints while
	// refreshes are held back) are folded into the triples first.
	s.foldLocked()
	data, err := storage.Marshal(&storage.Snapshot{
		Organized: s.organized,
		Dict:      s.dict,
		Triples:   s.idx.Triples(),
		Schema:    s.schema,
		Catalog:   s.cat,
	})
	if err != nil {
		return err
	}
	path := s.snapshotPath
	recs0 := -1
	if s.wal != nil {
		recs0 = s.wal.Records()
	}
	lost0 := s.walLost
	s.ckptSeq++
	seq := s.ckptSeq

	retry := s.retryPolicy()
	s.mu.Unlock()
	s.ckptMu.Lock()
	var werr error
	if s.ckptWritten < seq {
		werr = storage.Retry(retry, func() error {
			return storage.WriteFileBytesFS(s.fs, path, data)
		})
		if werr == nil {
			s.ckptWritten = seq
		}
	}
	// else: a later checkpoint already wrote a newer snapshot to this
	// path while we waited; ours is stale, and skipping it is success.
	s.ckptMu.Unlock()
	s.mu.Lock()

	if werr != nil {
		// Disk full (or worse) mid-checkpoint: the previous snapshot is
		// intact (the write is temp+rename atomic), the WAL still holds
		// its records, but durability maintenance has failed past the
		// retry budget — latch, and let recovery re-run the checkpoint.
		s.ckptPending = true
		s.latchLocked(fmt.Errorf("core: checkpoint: %w", werr))
		return werr
	}
	if s.wal != nil {
		if s.wal.Records() == recs0 {
			if err := storage.Retry(retry, s.wal.Truncate); err != nil {
				// A half-finished truncate leaves the log headerless;
				// Sync refuses until the Truncate retry completes, so
				// latch and let recovery finish the job.
				s.walErr = fmt.Errorf("core: wal truncate: %w", err)
				s.latchLocked(s.walErr)
				return s.walErr
			}
			s.walErr = nil
		} else {
			// Records landed after the snapshot was serialized: keep the
			// whole log (its pre-snapshot prefix replays as no-ops) and
			// make the new tail durable.
			s.syncWALLocked()
			if s.walErr != nil {
				return s.walErr
			}
		}
	}
	// The snapshot holds everything the log failed to before it was
	// serialized, un-logged records included; a loss latched during the
	// unlocked write is NOT covered and must stay latched.
	if s.walLost == lost0 {
		s.walLost = nil
	}
	s.ckptPending = false
	walOK := s.wal != nil && !s.wal.Dirty() || s.wal == nil && s.opts.WALPath == ""
	if s.ro && s.walErr == nil && s.walLost == nil && walOK {
		// a full checkpoint restored durability end to end
		s.unlatchLocked()
	}
	return nil
}

// Save checkpoints the store to path: pending writes are folded in, the
// whole state is written as an atomic snapshot, and the WAL (if any) is
// truncated. path becomes the target for future Organize/Compact
// checkpoints.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	s.snapshotPath = path
	return s.checkpointLocked()
}

// Close flushes and closes the WAL, stops the background recovery
// prober, and unmaps the snapshot an opened store was reading from.
// A store built in memory remains usable afterwards (just unlogged);
// an opened store must not be queried after Close — its sealed
// segments referenced the now-released mapping.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.walLost
	if err == nil {
		err = s.walErr
	}
	if err == nil && s.ro {
		err = s.roCause
	}
	if s.wal != nil {
		if e := s.wal.Close(); e != nil && err == nil {
			err = e
		}
		s.wal = nil
	}
	// the latched durability failures have been reported; the store
	// continues as a purely in-memory one
	s.walErr = nil
	s.walLost = nil
	s.ckptPending = false
	s.stopProbeLocked()
	s.unlatchLocked()
	if s.blob != nil {
		if e := s.blob.Close(); e != nil && err == nil {
			err = e
		}
		s.blob = nil
	}
	return err
}

// Dict exposes the dictionary (internally synchronized; shared with
// results).
func (s *Store) Dict() *dict.Dictionary { return s.dict }

// Pool exposes the simulated buffer pool for cold/hot control.
func (s *Store) Pool() *colstore.BufferPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// Schema returns the discovered schema (nil before Organize).
func (s *Store) Schema() *cs.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// Catalog returns the materialized catalog (nil before Organize). The
// catalog is copy-on-write: the returned value is a consistent snapshot.
func (s *Store) Catalog() *relational.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat
}

// Organized reports whether the store has a materialized schema —
// either from Organize or from an opened snapshot. Unlike Stats it does
// not refresh, so it is safe on the snapshot fast path.
func (s *Store) Organized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.organized
}

// Epoch returns the snapshot version: it advances whenever a refresh
// publishes new state (applied writes, Compact, Organize).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// OverflowLiterals returns the number of literals minted since the last
// Organize, which sit past the value-ordered prefix of literal OIDs.
func (s *Store) OverflowLiterals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n := s.dict.LiteralOrderCounts()
	return n
}

// NumTriples returns the number of distinct triples, pending writes
// included: they are folded into the index set first (the next refresh
// publishes it).
func (s *Store) NumTriples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	return s.idx.Len()
}

// Add appends one triple (trickle load). Before Organize it is ordinary
// bulk data; after, it lands in the delta layer — assigned to an
// existing CS table when its subject's property set matches one, or to
// the irregular leftover store — and is answered exactly by the next
// query without any rebuild. It returns ErrReadOnly while the store is
// latched after durability failures, and rejects (without applying) a
// triple whose lexical form cannot fit one WAL record — degrading the
// one write instead of the store.
func (s *Store) Add(t nt.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.CanLog(storage.Op{T: t}); err != nil {
			return fmt.Errorf("core: add: %w", err)
		}
	}
	if s.addLocked(t) {
		s.logLocked(false, t)
	}
	return nil
}

// addLocked applies one insertion and reports whether it changed state
// (false for set-semantics no-ops) — the signal for WAL logging. Before
// Organize it is a plain append: the fold collapses duplicates.
func (s *Store) addLocked(t nt.Triple) bool {
	so := s.dict.Intern(t.S)
	po := s.dict.Intern(t.P)
	oo := s.dict.Intern(t.O)
	tr := triples.Triple{S: so, P: po, O: oo}
	_, undo := s.delPending[tr]
	delete(s.delPending, tr) // re-adding cancels a pending deletion
	if s.organized {
		if undo {
			s.touched[so] = struct{}{}
			return true // only present triples are queued for deletion
		}
		if _, dup := s.deltaSet[tr]; dup || s.idx.Get(triples.SPO).Contains(tr) {
			return false // RDF graphs are sets; the live path enforces it
		}
		s.deltaSet[tr] = struct{}{}
		s.touched[so] = struct{}{}
	}
	s.addPending.Append(so, po, oo)
	return true
}

// Delete removes one triple. The deletion is queued and applied in a
// batch at the next refresh: the subject's sealed row (if any) is
// tombstoned and its surviving triples are re-routed through the delta
// layer. Deleting an absent triple is a no-op. Returns ErrReadOnly
// while the store is latched after durability failures.
func (s *Store) Delete(t nt.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.CanLog(storage.Op{Del: true, T: t}); err != nil {
			return fmt.Errorf("core: delete: %w", err)
		}
	}
	if s.deleteLocked(t) {
		s.logLocked(true, t)
	}
	return nil
}

// deleteLocked queues one deletion and reports whether it changed state
// (false when the triple is absent) — the signal for WAL logging.
func (s *Store) deleteLocked(t nt.Triple) bool {
	so, ok := s.dict.Lookup(t.S)
	if !ok {
		return false
	}
	po, ok := s.dict.Lookup(t.P)
	if !ok {
		return false
	}
	oo, ok := s.dict.Lookup(t.O)
	if !ok {
		return false
	}
	tr := triples.Triple{S: so, P: po, O: oo}
	if _, pending := s.delPending[tr]; pending {
		return false // already queued: a repeat delete is a no-op
	}
	if s.organized {
		if _, added := s.deltaSet[tr]; !added && !s.idx.Get(triples.SPO).Contains(tr) {
			return false // absent: nothing to delete
		}
		s.touched[so] = struct{}{}
	}
	// Pre-Organize the pending adds are not searched, so a delete of an
	// absent (but interned) triple still reports applied — and may be
	// WAL-logged; replaying it stays a no-op.
	s.delPending[tr] = struct{}{}
	return true
}

// foldLocked merges the pending writes into the index set — the one
// place they reach it — and reports the batch sizes. The existing rows
// are never re-sorted: Merge sorts the batch and merges it into every
// order the current set has, in fresh arrays, so a published set is
// never written. A pending add whose triple is also pending deletion
// was deleted after it was added, and is dropped.
func (s *Store) foldLocked() (added, deleted int) {
	add := s.addPending
	added, deleted = add.Len(), len(s.delPending)
	if added == 0 && deleted == 0 {
		return 0, 0
	}
	del := triples.NewTable(deleted)
	for tr := range s.delPending {
		del.AppendTriple(tr)
	}
	if deleted > 0 {
		w := 0
		for i := 0; i < add.Len(); i++ {
			if _, dead := s.delPending[add.At(i)]; !dead {
				add.S[w], add.P[w], add.O[w] = add.S[i], add.P[i], add.O[i]
				w++
			}
		}
		add.S, add.P, add.O = add.S[:w], add.P[:w], add.O[:w]
	}
	s.idx = s.idx.Merge(add, del)
	s.addPending = triples.NewTable(0)
	s.delPending = make(map[triples.Triple]struct{})
	s.deltaSet = make(map[triples.Triple]struct{})
	return added, deleted
}

// LoadNTriples bulk-loads N-Triples. When lenient, malformed lines are
// skipped and reported in the returned error slice.
func (s *Store) LoadNTriples(r io.Reader, lenient bool) (int, []error, error) {
	var rd *nt.Reader
	if lenient {
		rd = nt.NewLenientReader(r)
	} else {
		rd = nt.NewReader(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, nil, err
	}
	n := 0
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return n, rd.Errs(), nil
		}
		if err != nil {
			return n, rd.Errs(), err
		}
		s.addLocked(t)
		n++
	}
}

// LoadTurtle bulk-loads the Turtle subset.
func (s *Store) LoadTurtle(r io.Reader) (int, error) {
	ts, err := nt.ParseTurtle(r)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	for _, t := range ts {
		s.addLocked(t)
	}
	return len(ts), nil
}

// OrganizeReport summarizes what Organize did.
type OrganizeReport struct {
	Triples          int
	RawCSs           int
	CSs              int
	Tables           int
	LinkTables       int
	FKs              int
	Coverage         float64
	IrregularTriples int
}

func (r OrganizeReport) String() string {
	return fmt.Sprintf("organized %d triples: %d raw CS -> %d tables (+%d link), %d FKs, coverage %.1f%%, %d irregular",
		r.Triples, r.RawCSs, r.Tables, r.LinkTables, r.FKs, 100*r.Coverage, r.IrregularTriples)
}

// Organize runs the self-organization pipeline: discover characteristic
// sets, cluster subjects (renumbering the whole OID space), materialize
// the relational catalog with zone maps, and index the renumbered
// triples. Pending writes are folded in first, so discovery and
// clustering read the store's own SPO projection, which is a set. The
// renumbering rewrites a copy of it — the published arrays are never
// written — and that copy is sorted once into the SPO projection the
// catalog is filled from and the store's new index set holds. The other
// five orders are sorted only if a plan ever reads them. It can be
// called again after live updates to fold the delta layer into a fresh
// clustering; because it renumbers the shared dictionary it waits for
// all in-flight queries to finish (close every Rows iterator first —
// calling Organize with a stream open on the same goroutine deadlocks).
func (s *Store) Organize() (OrganizeReport, error) {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep OrganizeReport
	s.foldLocked()
	spo := s.idx.Get(triples.SPO)
	rep.Triples = spo.Len()

	schema := cs.DiscoverSPO(spo, s.dict, s.opts.CS)
	clOpts := s.opts.Cluster
	clOpts.SortKeys = s.workloadSortKeysLocked(schema, clOpts.SortKeys)
	tb := s.idx.Triples().Clone()
	inf, err := cluster.ReorganizeSPO(spo, tb, s.dict, schema, clOpts)
	if err != nil {
		return rep, fmt.Errorf("core: organize: %w", err)
	}
	s.schema = schema
	s.clusterIn = inf
	// The rebuilt segments live on the heap (the clustering just
	// rewrote them), so the fresh pool carries the byte budget but no
	// mapping releasers; the old blob stays open but its resident pages
	// are dropped below.
	s.pool = newPool(s.opts)
	s.idx = triples.NewIndexSet(tb)
	s.cat = relational.BuildCatalogSPO(s.idx.Get(triples.SPO), s.schema, inf, s.pool)
	s.organized = true
	s.touched = make(map[dict.OID]struct{})
	s.epoch++
	s.publishSnapshotLocked()
	if s.blob != nil {
		// nothing references the mapped encoded segments any more;
		// release their resident pages (they fault back if ever touched)
		s.blob.Drop()
	}

	rep.RawCSs = s.schema.RawCSCount
	rep.CSs = len(s.schema.CSs)
	st := s.cat.Stats()
	rep.Tables = st.Tables
	rep.LinkTables = st.LinkTables
	rep.FKs = len(s.schema.FKs)
	rep.Coverage = s.schema.Coverage
	rep.IrregularTriples = st.IrregularTriples
	// With persistence attached, an Organize is a checkpoint: the freshly
	// clustered state is snapshotted and the log truncated. The in-memory
	// reorganization above is complete either way; a checkpoint failure
	// only means durability lagged, and Save can retry it.
	if err := s.checkpointLocked(); err != nil {
		return rep, fmt.Errorf("core: organize checkpoint: %w", err)
	}
	return rep, nil
}

// CompactReport summarizes a Compact run.
type CompactReport struct {
	// Tables is the number of CS tables whose segments were rebuilt.
	Tables int
	// MergedRows is the number of delta rows merged into sealed
	// segments.
	MergedRows int
	// DroppedTombstones counts the tombstoned tail rows dropped.
	DroppedTombstones int
	// Epoch is the snapshot version after the compaction.
	Epoch uint64
}

func (r CompactReport) String() string {
	return fmt.Sprintf("compacted %d tables: %d delta rows merged, %d tombstones dropped (epoch %d)",
		r.Tables, r.MergedRows, r.DroppedTombstones, r.Epoch)
}

// Compact seals each table's tail into fresh segments: delta rows are
// sealed behind the live tail rows, tombstoned tail rows are dropped, and
// CS statistics are refreshed for the affected tables only — equivalent
// to, but much cheaper than, a full re-Organize (which it does not
// replace: only Organize re-clusters subject OIDs, folds the tail back
// into the clustered run and drops clustered tombstones). The clustered
// run is copied unchanged, so its encodings, zone maps and sort-key
// pushdown survive; a table with nothing to reclaim is not rewritten.
// It is also triggered automatically when delta rows plus dead tail
// rows grow past Options.CompactThreshold.
// Readers are unaffected: compaction happens on a catalog clone and
// in-flight snapshots keep scanning the old segments.
func (s *Store) Compact() (CompactReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	st := s.compactLocked()
	if st.Tables > 0 {
		s.epoch++
		s.publishSnapshotLocked()
	}
	rep := CompactReport{
		Tables:            st.Tables,
		MergedRows:        st.MergedRows,
		DroppedTombstones: st.DroppedTombstones,
		Epoch:             s.epoch,
	}
	// Like Organize, an explicit Compact checkpoints when persistence is
	// attached (query-path auto-compaction does not — checkpoint I/O
	// never rides a read). The compaction itself is already published.
	if st.Tables > 0 {
		if err := s.checkpointLocked(); err != nil {
			return rep, fmt.Errorf("core: compact checkpoint: %w", err)
		}
	}
	return rep, nil
}

// compactLocked compacts on a catalog clone; the caller publishes.
func (s *Store) compactLocked() relational.CompactStats {
	if s.cat == nil || s.cat.Reclaimable() == 0 {
		return relational.CompactStats{}
	}
	cat := s.cat.CloneForWrite()
	st := cat.Compact(s.pool)
	s.cat = cat
	return st
}

// workloadSortKeysLocked derives per-table sort keys from the query
// log's filter counts: for each retained CS, the most-filtered predicate
// among its properties wins. Explicit user keys take precedence; tables
// without a workload signal fall back to AutoSortKey.
func (s *Store) workloadSortKeysLocked(schema *cs.Schema, explicit map[string]string) map[string]string {
	filtered := s.qlog.profile().FilterColumns
	if len(filtered) == 0 {
		return explicit
	}
	out := make(map[string]string, len(explicit))
	for k, v := range explicit {
		out[k] = v
	}
	for _, c := range schema.CSs {
		if !c.Retained {
			continue
		}
		if _, ok := out[c.Name]; ok {
			continue
		}
		best, bestN := "", uint64(0)
		for i := range c.Props {
			tm, ok := s.dict.Term(c.Props[i].Pred)
			if !ok {
				continue
			}
			if n := filtered[tm.Value]; n > bestN {
				best, bestN = tm.Value, n
			}
		}
		if best != "" {
			out[c.Name] = best
		}
	}
	return out
}

// publishSnapshotLocked builds and publishes the immutable epoch
// snapshot queries execute against.
func (s *Store) publishSnapshotLocked() {
	ctx := &exec.Ctx{
		Dict: s.dict,
		Idx:  s.idx,
		Cat:  s.cat,
		Pool: s.pool,
	}
	ctx.TrackProjections()
	s.snap = &snapshot{
		epoch:     s.epoch,
		dict:      s.dict,
		idx:       s.idx,
		schema:    s.schema,
		cat:       s.cat,
		organized: s.organized,
		lits:      s.dict.LiteralOrder(),
		ctx:       ctx,
	}
}

// refreshLocked folds pending writes into a fresh snapshot: derive the
// next epoch's index set from the previous one (foldLocked: the batch is
// sorted and merged in, the deleted triples merged out, in every
// projection the previous epoch had sorted — the existing rows are
// never re-sorted), incrementally re-assign every touched subject
// through the delta layer, auto-compact past the threshold, and publish
// the next epoch when anything differs from the published one.
func (s *Store) refreshLocked() {
	start := time.Now()
	// Durability precedes visibility: the batch of trickle writes this
	// refresh folds in is fsynced before any query can observe it.
	// While latched read-only the refresh is skipped entirely — reads
	// keep serving the last published (fully durable) epoch, and the
	// in-memory writes that failed to sync stay invisible until a
	// recovery probe restores durability. The only in-refresh recovery
	// attempt is cheap (re-attach/truncate/sync, never checkpoint I/O)
	// and time-gated, so degraded queries never stall on a dead disk.
	if s.ro {
		if time.Now().Before(s.roNext) || !s.recoverLocked(false) {
			if s.snap == nil && (s.wal == nil || !s.wal.Dirty()) && s.walLost == nil {
				// nothing was ever published and nothing undurable is
				// in memory (writes while latched were rejected):
				// publish what the store holds so reads can serve
				s.epoch++
				s.publishSnapshotLocked()
			}
			return
		}
	}
	s.syncWALLocked()
	if s.ro {
		// the sync just latched: keep the previous epoch visible
		return
	}
	added, deleted := s.foldLocked()
	subjects := len(s.touched)
	if s.organized && len(s.touched) > 0 {
		subs := make([]dict.OID, 0, len(s.touched))
		for o := range s.touched {
			subs = append(subs, o)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		cat := s.cat.CloneForWrite()
		cat.ReassignSubjects(subs, s.idx.Get(triples.SPO), s.schema)
		s.cat = cat
		s.touched = make(map[dict.OID]struct{})
		thr := s.opts.CompactThreshold
		if thr == 0 {
			thr = DefaultCompactThreshold
		}
		if thr > 0 && cat.Reclaimable() >= thr {
			// cat is this refresh's private clone (unpublished until
			// below), so compact it in place — no second deep copy
			cat.Compact(s.pool)
		}
	}
	// a fold outside a refresh (NumTriples, a checkpoint) left s.idx
	// ahead of the published set: that counts as a change too
	changed := s.snap == nil || s.snap.idx != s.idx || s.snap.cat != s.cat
	if !changed {
		return
	}
	s.epoch++
	s.publishSnapshotLocked()
	if s.log != nil {
		var merged []triples.Perm
		if added+deleted > 0 {
			merged = s.idx.Materialized()
		}
		s.log.Info("refresh", "epoch", s.epoch, "added", added, "deleted", deleted,
			"subjects", subjects, "merged", fmt.Sprint(merged), "duration", time.Since(start))
	}
}

// BadQueryError marks a query the client got wrong — a parse failure or
// an unplannable shape — as opposed to a store-side failure (WAL sync
// loss). Protocol front ends map it to 400.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// prepare is the one planning path: refresh, then resolve (src, qopts)
// at the published epoch — through the prepared-plan cache when cached
// is set, parsing and building only on a miss. Parse and build failures
// come back wrapped in BadQueryError; WAL failures do not (they are the
// store's fault, not the query's).
func (s *Store) prepare(src string, qopts QueryOptions, cached bool) (_ *plan.Plan, _ *snapshot, hit bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	if s.snap == nil {
		// Read-only latched before anything could be published (the
		// very first refresh hit the durability failure): there is no
		// durable epoch to serve, so the query reports the latch.
		return nil, nil, false, s.roErrLocked()
	}
	snap := s.snap
	var key string
	if cached {
		key = planCacheKey(src, qopts)
		if p, ok := s.plans.get(snap.epoch, key); ok {
			return p, snap, true, nil
		}
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, false, &BadQueryError{Err: err}
	}
	p, err := plan.Build(q, snap.view(), plan.Options{
		Mode:       qopts.Mode,
		ZoneMaps:   qopts.ZoneMaps,
		ForceAlgo:  qopts.ForceAlgo,
		NoBloom:    qopts.NoBloom,
		ForceOrder: qopts.ForceOrder,
	})
	if err != nil {
		return nil, nil, false, &BadQueryError{Err: err}
	}
	if cached {
		s.plans.put(snap.epoch, key, p)
	}
	return p, snap, false, nil
}

// PlanCacheStats reports the prepared-plan cache counters.
func (s *Store) PlanCacheStats() PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans.stats()
}

// run is the one query lifecycle: it takes the reader gate, plans
// through the cache, forks the snapshot's shared Ctx for this query, and
// starts the pipeline. The returned Rows holds the gate and records the
// query in the log when it closes. With analyze set the execution
// carries a per-operator stats tree.
//
// The fork gives the query its own cancellation signal, failure slot,
// and memory budget — the failure slot is what lets a worker panic or
// budget overrun fail one query instead of the process.
func (s *Store) run(ctx context.Context, src string, qopts QueryOptions, analyze bool) (*Rows, error) {
	s.gate.RLock()
	p, snap, hit, err := s.prepare(src, qopts, true)
	if err != nil {
		s.gate.RUnlock()
		return nil, err
	}
	ectx := snap.ctx.WithQueryContext(ctx)
	ectx.ReqID = RequestIDFrom(ctx)
	if qopts.MemLimit > 0 {
		ectx.Mem = exec.NewMemAccountant(qopts.MemLimit)
	}
	if analyze {
		ectx.Stats = exec.NewQueryStats(p.NumStatNodes())
	}
	r := &Rows{s: s, p: p, stats: ectx.Stats, rec: newQueryRecord(src, p, hit), start: time.Now()}
	r.it = p.Stream(ectx)
	return r, nil
}

// Query parses, plans and executes a SPARQL query against the current
// epoch snapshot. Concurrent Add/Delete/Compact calls do not affect a
// query once planned. A stream that ends on a failure (recovered panic,
// memory budget) returns the error, never a silently short result.
func (s *Store) Query(src string, qopts QueryOptions) (*exec.Result, error) {
	r, err := s.run(context.Background(), src, qopts, false)
	if err != nil {
		return nil, err
	}
	res := r.it.Collect()
	if r.Err() == nil {
		r.n = int64(len(res.Rows)) // a failed query delivers no rows
	}
	r.Close()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Rows is a streaming query result: rows are produced by the vectorized
// pipeline as the consumer pulls, so LIMIT queries stop scanning early
// and large results never materialize. The iterator reads an immutable
// epoch snapshot: concurrent Add/Delete/Compact (and other queries) are
// safe while it is open and never affect its rows. Only Organize waits
// for open iterators — close (or drain) them before calling it.
type Rows struct {
	s    *Store
	p    *plan.Plan
	it   *exec.RowIter
	done bool
	// stats is the per-operator stats tree of an analyzed execution
	// (nil otherwise).
	stats *exec.QueryStats
	// rec is the query-log record prototype; Close fills the runtime
	// half (duration, rows, outcome) and records it.
	rec   QueryRecord
	start time.Time
	n     int64
}

// Vars lists the output column names.
func (r *Rows) Vars() []string { return r.it.Vars() }

// Next advances to the next row, closing the iterator at the end of the
// stream.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if r.it.Next() {
		r.n++
		return true
	}
	r.Close()
	return false
}

// Row returns the current row decoded to typed values. The slice is
// reused by the next call to Next; copy values to retain them.
func (r *Rows) Row() []dict.Value { return r.it.Row() }

// Cells returns the current row undecoded, for result serializers: a
// cell with an OID names a dictionary term (resolve it with Term or, a
// batch at a time, Terms) and its typed fields may be unset; a cell
// without one is a computed value; the zero Value is unbound. The slice
// is reused by the next call to Next.
func (r *Rows) Cells() []dict.Value { return r.it.Cells() }

// Err reports why the stream ended early: the query context's error
// after a cancellation or timeout, or nil for plain exhaustion. Valid
// after Next returns false (and after Close).
func (r *Rows) Err() error { return r.it.Err() }

// Term resolves a result value back to its exact RDF term — IRI vs
// literal, datatype, language tag — via the OID it was decoded from.
// It reports false for computed values (arithmetic, aggregates), which
// carry no OID; serializers synthesize a typed literal from the value's
// kind instead.
func (r *Rows) Term(v dict.Value) (dict.Term, bool) {
	if v.OID == dict.Nil {
		return dict.Term{}, false
	}
	return r.it.Dict().Term(v.OID)
}

// Terms resolves a batch of result OIDs to their RDF terms under one
// dictionary read lock; see dict.Dictionary.Terms.
func (r *Rows) Terms(oids []dict.OID, fn func(i int, t dict.Term, ok bool)) {
	r.it.Dict().Terms(oids, fn)
}

// Close stops the pipeline and releases the reader gate; idempotent.
func (r *Rows) Close() {
	if r.done {
		return
	}
	r.done = true
	r.it.Close()
	r.rec.DurationNS = time.Since(r.start).Nanoseconds()
	r.rec.Rows = r.n
	r.rec.Outcome = outcomeOf(r.it.Err())
	r.s.qlog.record(r.rec)
	r.s.gate.RUnlock()
}

// QueryStream parses, plans and starts a SPARQL query, returning a
// streaming row iterator over the current epoch snapshot instead of a
// materialized result. When ctx fires — per-query timeout, client
// disconnect — the pipeline's scans and joins stop at the next batch
// boundary, Next returns false, and Rows.Err reports the cause.
// Planning resolves through the prepared-plan cache; parse/plan
// failures are BadQueryError.
func (s *Store) QueryStream(ctx context.Context, src string, qopts QueryOptions) (*Rows, error) {
	return s.run(ctx, src, qopts, false)
}

// Explain returns the plan tree for a query without executing it. It
// plans afresh — bypassing the plan cache — and is not recorded in the
// query log, so it neither counts as workload nor moves cache counters.
func (s *Store) Explain(src string, qopts QueryOptions) (string, error) {
	p, _, _, err := s.prepare(src, qopts, false)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// ExplainAnalyze executes the query to exhaustion with a per-operator
// stats tree attached and renders the plan with actual row counts,
// per-node time, and the worst est/act mis-estimation beside the
// estimates — the runtime truth the cost model is validated against.
// The execution is a real query: it goes through the plan cache, counts
// in the query log, and honors ctx cancellation and the memory budget.
func (s *Store) ExplainAnalyze(ctx context.Context, src string, qopts QueryOptions) (string, error) {
	r, err := s.run(ctx, src, qopts, true)
	if err != nil {
		return "", err
	}
	defer r.Close() // after rendering: the gate keeps Organize off the plan's OIDs
	for r.it.Next() {
		r.n++
	}
	if err := r.Err(); err != nil {
		return "", err
	}
	return r.p.ExplainAnalyze(r.stats, r.n, time.Since(r.start)), nil
}

// Uptime reports the time since the store was created or opened.
func (s *Store) Uptime() time.Duration { return time.Since(s.born) }

// SQLSchema renders the emergent relational schema as DDL — the SQL view
// of the regular part of the data.
func (s *Store) SQLSchema() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat == nil {
		return "-- store not organized yet; call Organize()\n"
	}
	s.refreshLocked()
	return s.cat.DDL(s.dict)
}

// Stats summarizes the store.
type Stats struct {
	Triples   int
	Resources int
	Literals  int
	Organized bool
	Tables    int
	Irregular int
	Coverage  float64
	Pool      colstore.PoolStats
	// Epoch is the published snapshot version; DeltaRows and Tombstones
	// size the live-update delta layer awaiting Compact.
	Epoch      uint64
	DeltaRows  int
	Tombstones int
	// WALRecords counts operations in the attached write-ahead log since
	// the last checkpoint (0 when no WAL is attached).
	WALRecords int
	// OrderedLiterals is the literal-order watermark: literal payloads
	// 1..OrderedLiterals are in value order (0 before Organize, or when
	// it keeps parse order). OverflowLiterals counts the literals minted
	// since, which range pushdown matches through a value index instead
	// of the OID interval.
	OrderedLiterals  int
	OverflowLiterals int
}

// Stats returns store-level counters, folding pending writes in first.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	st := Stats{
		Triples:   s.idx.Len(),
		Resources: s.dict.NumResources(),
		Literals:  s.dict.NumLiterals(),
		Organized: s.organized,
		Pool:      s.pool.Stats(),
		Epoch:     s.epoch,
	}
	st.OrderedLiterals, st.OverflowLiterals = s.dict.LiteralOrderCounts()
	if s.wal != nil {
		st.WALRecords = s.wal.Records()
	}
	if s.cat != nil {
		cst := s.cat.Stats()
		st.Tables = cst.Tables
		st.Irregular = cst.IrregularTriples
		st.DeltaRows = cst.DeltaRows
		st.Tombstones = cst.Tombstones
	}
	if s.schema != nil {
		st.Coverage = s.schema.Coverage
	}
	return st
}
