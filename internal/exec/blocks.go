package exec

import (
	"sync"

	"srdf/internal/colstore"
	"srdf/internal/dict"
)

// Vector sizing and ownership.
//
// Batches (Batch, VBatch) start with no backing storage: their columns
// grow by append to what the producer actually writes, and producers stop
// at Full()/room, so growth never passes BatchRows. A one-row lookup
// therefore pays for one row per operator, not BatchRows.
//
// The buffers that really are block-sized — a scan's subject, decode and
// selection scratch, and the query head's value vectors — come from one
// free list per element type and go back when their owner closes:
//
//   - ScanOp takes its scanScratch blocks in Open and returns them in
//     Close.
//   - RowIter takes its VBatch columns when the pipeline opens and
//     returns them in RowIter.Close.
//   - A compiled expression program (Filter, Project, HashAggregate)
//     takes one value vector per instruction on its first batch and
//     returns them when its operator closes (HashAggregate: as soon as
//     its input is drained, and again after the per-group results).
//
// The invariant is one owner, one release point. A block returns only in
// the Close of the operator that took it, and releasing clears the
// owner's reference, so a second Close cannot hand a block out twice.
// Views an owner lends (Batch.SetViews) are read only before the
// consumer's next pull and never after the owner's Close; every
// materialization point (Drain, hash build, aggregation, RowIter.Row)
// copies.
var (
	oidBlocks blockPool[dict.OID]
	selBlocks blockPool[int32]
	valBlocks blockPool[dict.Value]
	numBlocks blockPool[num]
)

// A block is one colstore block of rows, which is also one batch.
var _ = [1]struct{}{}[BatchRows-colstore.BlockRows]

// blockPool is a free list of BatchRows-element blocks of one element
// type.
type blockPool[T any] struct{ p sync.Pool }

// get takes a block of length BatchRows; its contents are unspecified.
func (bp *blockPool[T]) get() []T {
	if b, ok := bp.p.Get().(*[BatchRows]T); ok {
		return b[:]
	}
	return new([BatchRows]T)[:]
}

// put returns a block taken by get; any re-slice of it that starts at
// its first element will do. Slices of any other capacity (never taken
// from the pool, or re-allocated by an append past BatchRows) are left
// to the garbage collector.
func (bp *blockPool[T]) put(b []T) {
	if cap(b) == BatchRows {
		bp.p.Put((*[BatchRows]T)(b[:BatchRows]))
	}
}
