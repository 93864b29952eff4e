package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer would make the "tail" a handful of samples.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile reports quantile q of xs by nearest rank, but only when at
// least minBeyond samples lie strictly beyond that rank; otherwise ok is
// false and the caller reports the median alone. It sorts xs in place.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	i := rank(q, n)
	if n-1-i < minBeyond {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	return xs[i], true
}

// latencySummary is the median and the tail of one latency sample set,
// following the percentile rule: tail falls back to the median when the
// set is too small to have a tail at q.
type latencySummary struct {
	n            int
	p50, tail    float64
	tailIsMedian bool
}

func summarize(xs []float64, q float64) latencySummary {
	s := latencySummary{n: len(xs), p50: median(xs)}
	if v, ok := percentile(xs, q); ok {
		s.tail = v
	} else {
		s.tail, s.tailIsMedian = s.p50, true
	}
	return s
}

// spreadOf describes xs for a diagnostic line: minimum, quartiles and
// maximum. It sorts a copy.
func spreadOf(xs []float64) string {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return "(none)"
	}
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g (n=%d)",
		ys[0], ys[n/4], median(ys), ys[3*n/4], ys[n-1], n)
}
