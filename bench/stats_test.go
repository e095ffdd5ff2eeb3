package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be Python's statistics.quantiles(xs, n=4): the
// benchmark's spread is judged by that function.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.median) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g n %d", tc.xs, s, tc.q1, tc.median, tc.q3, len(tc.xs))
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeKeepsInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	median(xs)
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 101; i++ {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 51}, {99, 100}, {100, 101}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(1..101, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); !near(got, 2.5) {
		t.Errorf("percentile([1 2 3 4], 50) = %g, want 2.5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestWindowGrowth(t *testing.T) {
	w := make([]float64, 20)
	for i := range w {
		w[i] = 1 + float64(i)/10
	}
	// First decile {1.0, 1.1}, last {2.8, 2.9}.
	if got := windowGrowth(w); !near(got, 2.85/1.05) {
		t.Errorf("windowGrowth = %g, want %g", got, 2.85/1.05)
	}
	if got := windowGrowth(w[:9]); got != 0 {
		t.Errorf("windowGrowth of 9 windows = %g, want 0 (no deciles)", got)
	}
}
