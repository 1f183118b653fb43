package exec

import (
	"sync"
	"sync/atomic"

	"srdf/internal/fault"
)

// morselBlocks is the morsel granularity of the parallel scan: workers
// claim runs of this many zone-map blocks at a time — large enough to
// amortize dispatch, small enough to balance skew from zone pruning.
const morselBlocks = 4

// morselResult is one completed morsel, keyed for the ordered merge.
type morselResult struct {
	idx int
	rel *Rel
}

// morselScan runs a ScanOp's block range on a worker pool,
// morsel-driven: workers claim morsel indexes from a shared atomic
// counter, scan their blocks into a private relation (reusing a
// per-worker row scratch across morsels), and hand results to a merger
// that re-emits them in morsel order — so the parallel scan is
// row-for-row identical to the sequential one. Close stops the pool
// early, which is what makes LIMIT early-termination compose with
// parallelism.
type morselScan struct {
	scan    *ScanOp
	morsels int
	claim   atomic.Int64
	results chan morselResult
	done    chan struct{}
	wg      sync.WaitGroup

	// merger state
	emit    int
	buffer  map[int]*Rel
	pending relCursor
	stopped bool
}

// startMorselScan launches workers over the scan's block range.
func startMorselScan(ctx *Ctx, s *ScanOp, workers int) *morselScan {
	blocks := s.last - s.block + 1
	m := &morselScan{
		scan:    s,
		morsels: (blocks + morselBlocks - 1) / morselBlocks,
		results: make(chan morselResult, workers),
		done:    make(chan struct{}),
		buffer:  make(map[int]*Rel),
	}
	if workers > m.morsels {
		workers = m.morsels
	}
	first := s.block
	vars := s.Star.Vars()
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer m.wg.Done()
			var sc scanScratch // per-worker selection + decode scratch
			sc.init(&s.Star)
			defer sc.release() // results are copies: nothing lent outlives the worker
			for {
				idx := int(m.claim.Add(1)) - 1
				if idx >= m.morsels {
					return
				}
				select {
				case <-m.done:
					return
				default:
				}
				if ctx.Cancelled() {
					// The claim already happened: deliver the slot empty,
					// or the ordered merge blocks forever on a bailing
					// worker. The remaining morsels drain as fast empties
					// and the per-batch polls surface the cancellation.
					select {
					case m.results <- morselResult{idx: idx, rel: NewRel(vars...)}:
					case <-m.done:
						return
					}
					continue
				}
				lo := first + idx*morselBlocks
				hi := lo + morselBlocks - 1
				if hi > s.last {
					hi = s.last
				}
				rel := NewRel(vars...)
				if err := func() (err error) {
					// A panic while scanning fails the one query, not the
					// process: record it, deliver the morsel slot empty so
					// the ordered merge never waits on a dead worker, and
					// let the per-batch polls unwind the pipeline.
					defer func() {
						if r := recover(); r != nil {
							err = NewPanicError("morsel worker", r)
						}
					}()
					if ferr := fault.Point("exec.morsel"); ferr != nil {
						panic(ferr)
					}
					for b := lo; b <= hi; b++ {
						s.appendBlock(b, rel, &sc)
					}
					return nil
				}(); err != nil {
					if !ctx.Fail(err) {
						panic(err) // no per-query failure slot: fail loud
					}
					rel = NewRel(vars...)
				}
				select {
				case m.results <- morselResult{idx: idx, rel: rel}:
				case <-m.done:
					return
				}
			}
		}()
	}
	return m
}

// next fills b with the next in-order rows, pulling worker results as
// needed.
func (m *morselScan) next(b *Batch) bool {
	for {
		if m.pending.rel != nil && m.pending.fill(b) {
			return true
		}
		if m.emit >= m.morsels {
			return false
		}
		// in-order merge: wait for the next morsel index
		for m.buffer[m.emit] == nil {
			r, ok := <-m.results
			if !ok {
				return false
			}
			m.buffer[r.idx] = r.rel
		}
		rel := m.buffer[m.emit]
		delete(m.buffer, m.emit)
		m.emit++
		if rel.Len() > 0 {
			m.pending = relCursor{rel: rel}
		}
	}
}

// stop terminates the pool; safe to call whether or not the scan was
// drained.
func (m *morselScan) stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	close(m.done)
	// drain so workers blocked on send can exit
	go func() {
		for range m.results {
		}
	}()
	m.wg.Wait()
	close(m.results)
}
