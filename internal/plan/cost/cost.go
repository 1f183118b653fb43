// Package cost is the planner's calibrated cost model. All costs are in
// abstract row-work units: one unit is roughly "touch one value in one
// sealed compressed segment". The constants were calibrated against the
// RDF-H benchmark harness so that relative costs — hash build vs
// positional fetch, fetch vs scan — order plans the same way wall-clock
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
	// MergeRow is the per-row cost of grouping an FK join's outer key
	// by block.
	MergeRow = 0.8
	// LookupRow is the per-row, per-property cost of a positional
	// fetch of one inner row (or its full-index fallback, amortized).
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

// FKJoin is the cost of joining outer candidate subjects positionally
// with a star of props properties: reading the inner rows costs at most
// the zone-pruned star scan (scan, in Scan units) and at most one fetch
// per outer row and property. Every outer key is then resolved to its
// row, a random access priced as a hash probe, and grouped by block;
// emitting out rows comes on top. Input costs are the caller's to add.
func FKJoin(outer, scan float64, props int, out float64) float64 {
	p := math.Max(float64(props), 1)
	return math.Min(scan, outer*LookupRow*p) + outer*(HashProbe+MergeRow) + out*OutRow
}
