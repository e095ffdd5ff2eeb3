package main

import "testing"

// TestNsRegressed pins the ns/op gate on both sides of nsCheckFloor:
// a microsecond-scale benchmark passes run-to-run noise but not the
// return of an algorithmic cost it prices, and a longer one keeps the
// catastrophic-slowdown threshold.
func TestNsRegressed(t *testing.T) {
	for _, c := range []struct {
		base, fresh float64
		want        bool
	}{
		{6635, 523152, true}, // the windowed percentile's per-window sort
		{6635, 13270, false}, // 2x: shared-runner noise
		{6635, 66350, false}, // at the collapse bound
		{20e3, 49e3, false},  // within 2.5x
		{20e3, 51e3, true},
		{nsCheckFloor, nsCheckFloor * 3, true},
	} {
		if got := nsRegressed(c.base, c.fresh); got != c.want {
			t.Errorf("nsRegressed(%v, %v) = %v, want %v", c.base, c.fresh, got, c.want)
		}
	}
}
