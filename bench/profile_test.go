package main

import (
	"os"
	"testing"
	"time"
)

// testdata/traces.txt is real `go tool pprof -traces` output from traced
// runs of the workloads, cut down to one stack per attribution case.
func TestProfileAttribution(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		bucket string
		value  time.Duration
		frames int
	}{
		{"nic", 10 * time.Millisecond, 15},
		{"mempool", 10 * time.Millisecond, 17},
		{"wire", 10 * time.Millisecond, 13},
		{"ring", 10 * time.Millisecond, 18}, // a generic type name with spaces
		{"sim", 10 * time.Millisecond, 12},
		{"core", 10 * time.Millisecond, 6},
		{"flow", 10 * time.Millisecond, 5},
		{"stats", 10 * time.Millisecond, 6},
		{"rate", 10 * time.Millisecond, 4},
		{"dut", 10 * time.Millisecond, 15},
		{bucketHandoff, 10 * time.Millisecond, 15}, // channel send under Engine.dispatch
		{bucketHandoff, 10 * time.Millisecond, 11}, // channel send under Proc.park
		{"nic", 20 * time.Millisecond, 17},         // runtime leaf charged to its layer
		{bucketHandoff, 50 * time.Millisecond, 9},  // scheduler only
		{bucketGC, 10 * time.Millisecond, 19},      // allocation under a layer
		{bucketGC, 10 * time.Millisecond, 6},       // mark worker
		{bucketHandoff, 10 * time.Millisecond, 6},  // runtime-internal leaf in the scheduler
		{bucketGC, 10 * time.Millisecond, 8},       // background sweep
		{bucketHandoff, 10 * time.Millisecond, 2},  // assembly frame without a package
		{"stats", 10 * time.Millisecond, 19},       // standard-library leaf under a layer
		{"wire", 10 * time.Millisecond, 19},
		{"proto", 10 * time.Millisecond, 6}, // inline frames
	}
	if len(stacks) != len(want) {
		t.Fatalf("parsed %d stacks, want %d", len(stacks), len(want))
	}
	for i, w := range want {
		s := stacks[i]
		if got := attribute(s.Frames); got != w.bucket || s.Value != w.value || len(s.Frames) != w.frames {
			t.Errorf("stack %d (%s): %s %v %d frames, want %s %v %d", i, s.Frames[0], got, s.Value, len(s.Frames), w.bucket, w.value, w.frames)
		}
	}
	if got := stacks[21].Frames[0]; got != "repro/internal/proto.(*Template).ipWord" {
		t.Errorf("inline marker kept: %q", got)
	}
	var total time.Duration
	for _, d := range profileCost(stacks) {
		total += d
	}
	if total != 270*time.Millisecond {
		t.Errorf("attributed %v, want the listing's 270ms", total)
	}
}

func TestAttributeOther(t *testing.T) {
	for _, frames := range [][]string{
		{"encoding/json.Marshal", "main.runAll", "main.main", "runtime.main"},
		{"repro/internal/experiments.Run", "main.main"}, // off the user path
		nil,
	} {
		if got := attribute(frames); got != bucketOther {
			t.Errorf("attribute(%v) = %s, want %s", frames, got, bucketOther)
		}
	}
}
