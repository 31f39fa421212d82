package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimate resting on fewer is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs. It refuses (with an
// error naming the shortfall) any quantile that fewer than minBeyond
// samples lie beyond, so a median needs 20 samples, a p90 100 and a p99
// 1000.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %g of %d samples is undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, beyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
