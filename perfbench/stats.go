package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile. With fewer, one or two outliers set it and it moves from
// run to run.
const minTail = 10

// minClassMargin is the closest a reported percentile may sit to a
// boundary between two op classes, as a share of all ops.
const minClassMargin = 0.1

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses a percentile with fewer than minTail samples above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// boundaryMargin returns how close any quantile in qs comes to a boundary
// between op classes with the given shares, over every order in which the
// classes' latencies could sort. A percentile that sits on such a
// boundary jumps from one class to the other when the classes shift.
func boundaryMargin(shares, qs []float64) float64 {
	margin := math.Inf(1)
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	permute(order, 0, func(order []int) {
		cum := 0.0
		for _, c := range order[:len(order)-1] {
			cum += shares[c]
			for _, q := range qs {
				margin = math.Min(margin, math.Abs(q-cum))
			}
		}
	})
	return margin
}

// permute calls visit with every ordering of a[k:] (a[:k] fixed).
func permute(a []int, k int, visit func([]int)) {
	if k == len(a) {
		visit(a)
		return
	}
	for i := k; i < len(a); i++ {
		a[k], a[i] = a[i], a[k]
		permute(a, k+1, visit)
		a[k], a[i] = a[i], a[k]
	}
}
