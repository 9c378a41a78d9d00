package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of sorted: the value at rank
// ⌈p·n⌉, so exactly n−⌈p·n⌉ samples lie beyond it. It is the ledger's only
// quantile function; every percentile it reports goes through it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps p·n from rounding up past an exact integer rank
	// (0.07·100 evaluates to 7.000000000000001 in floating point).
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (the lower middle for even n).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// geomean is the geometric mean of the positive values of xs (0 if none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
