package flow

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkFlowTrackerMillion measures the steady-state Record cost
// with one million tracked flows resident: the working set is inserted
// before the timer, then each op attributes one packet to a
// pseudo-randomly selected existing flow. The acceptance bar is 0
// allocs/op — at steady state neither the table, the arena nor the
// sequence window allocates. The flows metric pins the tracked
// population; B/flow is the table's resident footprint per flow.
func BenchmarkFlowTrackerMillion(b *testing.B) {
	const F = 1 << 20
	tr := NewTracker(Config{SeqWindow: 64})
	buf := benchFrame()
	next := make([]uint64, F)
	var at sim.Time
	for fid := uint64(0); fid < F; fid++ {
		at += 100
		patchFlow(buf, fid)
		Stamp(buf[framePayloadOff:], 0, at-70)
		tr.Record(buf, at)
		next[fid] = 1
	}

	lcg := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		fid := (lcg >> 32) % F
		at += 100
		patchFlow(buf, fid)
		Stamp(buf[framePayloadOff:], next[fid], at-70)
		next[fid]++
		tr.Record(buf, at)
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.NumFlows()), "flows")
	b.ReportMetric(float64(tr.FootprintBytes())/F, "B/flow")
}

// BenchmarkFlowTrackerChurn measures the insert-heavy regime: each op
// runs one generation step of the churn pattern — a window of fresh
// flows arrives (first sight: table insert, possibly a grow) and a
// window of old flows sends its last packet. Unlike the steady-state
// benchmark this one legitimately allocates (arena chunks, table
// doubling); the bench gate bounds those allocations against the
// baseline.
func BenchmarkFlowTrackerChurn(b *testing.B) {
	const W = 1024 // flows per generation step
	tr := NewTracker(Config{SeqWindow: 64})
	buf := benchFrame()
	var fid uint64
	var at sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < W; j++ {
			at += 100
			patchFlow(buf, fid)
			Stamp(buf[framePayloadOff:], 0, at-70)
			tr.Record(buf, at)
			at += 100
			Stamp(buf[framePayloadOff:], 1, at-70)
			tr.Record(buf, at)
			fid++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.NumFlows()), "flows")
}
