package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles latency_tail_ms may report. A
// fixed ladder keeps the reported percentile a function of the sample
// count alone, and the sample count is fixed by the op list, so two
// runs of a workload always compare the same percentile.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// tailBeyond is the minimum number of samples a tail percentile must
// have strictly above its rank to be reported.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples ranked beyond it. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// tail applies the tail rule: the highest ladder percentile with at
// least tailBeyond samples beyond it. With too few samples for any
// ladder step it falls back to the median, reporting how few samples
// lie beyond.
func tail(sorted []float64) (p, value float64, beyond int) {
	p = tailLadder[0]
	value, beyond = percentile(sorted, p)
	for _, q := range tailLadder[1:] {
		v, b := percentile(sorted, q)
		if b < tailBeyond {
			break
		}
		p, value, beyond = q, v, b
	}
	return p, value, beyond
}

// mean returns the average of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value of xs (the mean of the two middle
// values for even counts). xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
