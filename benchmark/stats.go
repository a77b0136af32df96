package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile; with fewer the value is one or two outliers, not a tail.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count); NaN when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile (0.5 < p < 1) of xs, and
// refuses when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0.5 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0.5, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance rule for run-to-run spread uses.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3), nil
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values (nothing to spread).
func spread(xs []float64) float64 {
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailRow reports the highest of p99, p95, p90 and p75 that xs supports
// as a detail row named after it ("gap_p99_ms").
func tailRow(out *outcome, prefix string, xs []float64) {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if v, err := percentile(xs, p); err == nil {
			out.add(fmt.Sprintf("%s_p%.0f_ms", prefix, p*100), v, "ms", len(xs))
			return
		}
	}
}
