package main

import (
	"math"
	"sort"
)

// summary is a timing distribution as the benchmark reports it: the
// median, the quartiles and the sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns xs's median and quartiles by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the spread rule the benchmark
// is judged by. Empty input gives the zero summary; a single sample is
// its own median and quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	if len(s) == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	var q [3]float64
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return summary{Median: median(s), Q1: q[0], Q3: q[2], N: len(s)}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly between the closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
