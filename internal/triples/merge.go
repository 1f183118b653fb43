package triples

import "srdf/internal/dict"

// MergeJoinS intersects two sorted OID lists (ascending, possibly with
// duplicates collapsed by the caller) and returns the common values.
// This is the primitive behind the Default plan's subject-subject merge
// joins between per-property index scans.
func MergeJoinS(a, b []dict.OID) []dict.OID {
	out := make([]dict.OID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
			// skip duplicates on both sides
			for i < len(a) && a[i] == a[i-1] {
				i++
			}
			for j < len(b) && b[j] == b[j-1] {
				j++
			}
		}
	}
	return out
}

// MergeJoinPairs joins two sorted (key, payload) column pairs on key,
// emitting one output row per matching key combination (full cross
// product per duplicate group). Keys must be ascending.
func MergeJoinPairs(ka []dict.OID, va []dict.OID, kb []dict.OID, vb []dict.OID,
	emit func(key, a, b dict.OID)) {
	i, j := 0, 0
	for i < len(ka) && j < len(kb) {
		switch {
		case ka[i] < kb[j]:
			i++
		case ka[i] > kb[j]:
			j++
		default:
			k := ka[i]
			iEnd := i
			for iEnd < len(ka) && ka[iEnd] == k {
				iEnd++
			}
			jEnd := j
			for jEnd < len(kb) && kb[jEnd] == k {
				jEnd++
			}
			for x := i; x < iEnd; x++ {
				for y := j; y < jEnd; y++ {
					emit(k, va[x], vb[y])
				}
			}
			i, j = iEnd, jEnd
		}
	}
}

// Uniq collapses consecutive duplicates of a sorted slice in place and
// returns the shortened slice.
func Uniq(a []dict.OID) []dict.OID {
	if len(a) == 0 {
		return a
	}
	w := 1
	for i := 1; i < len(a); i++ {
		if a[i] != a[w-1] {
			a[w] = a[i]
			w++
		}
	}
	return a[:w]
}
