package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample; 0 for an empty one.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentiles are the candidates of pickTail, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75}

// pickTail returns the highest of p99/p95/p90/p75 that still has at
// least ten samples beyond it (the choosing-metrics rule), with the
// percentile it picked; below 40 samples none qualifies and the maximum
// is returned as percentile 1.
func pickTail(asc []float64) (value, percentile float64) {
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= 10 {
			return asc[rank-1], p
		}
	}
	return asc[n-1], 1
}

// geomean is the geometric mean of positive values; 0 when xs is empty
// or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
