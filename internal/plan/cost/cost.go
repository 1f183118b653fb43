// Package cost is the planner's calibrated cost model. All costs are in
// abstract row-work units: one unit is roughly "touch one value in one
// sealed compressed segment". The constants were calibrated against the
// RDF-H benchmark harness so that relative costs — hash build vs merge
// stream, positional fetch vs scan — order plans the same way wall-clock
// time does; absolute values are meaningless.
package cost

import "math"

const (
	// ScanRow is the cost of scanning one value of one column out of a
	// sealed segment (decode amortized across the block, zone pruning
	// already applied by the caller via a selectivity factor).
	ScanRow = 1.0
	// HashBuild is the per-row cost of materializing a build side into
	// the OID-keyed hash table.
	HashBuild = 5.0
	// HashProbe is the per-row cost of probing it.
	HashProbe = 3.0
	// SortKey is the per-key, per-log2(n) cost of sorting a drained
	// outer side for a merge join.
	SortKey = 0.15
	// MergeRow is the per-row cost of advancing a merge join cursor.
	MergeRow = 0.8
	// LookupRow is the per-row, per-property cost of a positional
	// RDFjoin fetch (or its full-index fallback, amortized).
	LookupRow = 6.0
	// OutRow is the per-row cost of emitting a join result.
	OutRow = 0.2
)

// JoinCard is the textbook equi-join cardinality estimate: the product
// of the input cardinalities divided by the larger distinct count of the
// join key on either side.
func JoinCard(l, r, ld, rd float64) float64 {
	return l * r / math.Max(math.Max(ld, rd), 1)
}

// Sort is the comparison-sort cost of n keys (zero-safe).
func Sort(n float64) float64 {
	if n < 2 {
		return SortKey * n
	}
	return SortKey * n * math.Log2(n)
}

// Scan is the cost of a star scan of rows rows (sealed rows surviving
// zone pruning plus unsealed tail rows, which the scan reads through the
// same block kernels), each touching cols columns.
func Scan(rows float64, cols int) float64 {
	c := float64(cols)
	if c < 1 {
		c = 1
	}
	return rows * ScanRow * c
}

// HashJoin is the cost of building on build rows and probing with probe
// rows, emitting out rows. Input costs are the caller's to add.
func HashJoin(build, probe, out float64) float64 {
	return build*HashBuild + probe*HashProbe + out*OutRow
}

// MergeJoin is the cost of sorting outer keys (unless already sorted),
// scanning the inner table window (innerScan, in Scan units) and merging
// both streams. Input costs are the caller's to add. The Sort term
// prices a comparison sort, though the operator counting-sorts its keys
// in linear time; repricing it would change which plans win.
func MergeJoin(outer, innerRows, innerScan, out float64, sorted bool) float64 {
	c := innerScan + (outer+innerRows)*MergeRow + out*OutRow
	if !sorted {
		c += Sort(outer)
	}
	return c
}

// RDFJoin is the cost of positionally fetching props properties for each
// of outer candidate subjects.
func RDFJoin(outer float64, props int, out float64) float64 {
	p := float64(props)
	if p < 1 {
		p = 1
	}
	return outer*LookupRow*p + out*OutRow
}
