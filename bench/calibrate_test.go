package main

import "testing"

func TestCalibrate(t *testing.T) {
	if d := calibrate(); d <= 0 {
		t.Fatalf("calibrate() = %v", d)
	}
	if got := scaled(300, 2*calRef); got != 150 {
		t.Errorf("a time measured where the kernel takes 2×calRef scales to %g, want 150", got)
	}
}
