package sim

import (
	"container/heap"
	"testing"
)

// BenchmarkEngineSchedule measures the schedule/fire hot path of the
// engine's timing-wheel scheduler on a clustered-time burst (64 events
// within a few picoseconds — one wheel tick). Compare against
// BenchmarkEngineScheduleHeapEngine (the reference binary heap of
// heapref_test.go) and BenchmarkEngineScheduleContainerHeap (the
// original container/heap implementation, which paid one *event
// allocation plus an interface{} box per Push). Both engine paths
// schedule with zero allocations: the wheel pools its slot nodes.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(e.now.Add(Duration(j%7)), fn)
		}
		for e.Step() {
		}
	}
}

// BenchmarkEngineScheduleHeapEngine is the identical workload on the
// reference heap — the wheel's control group.
func BenchmarkEngineScheduleHeapEngine(b *testing.B) {
	e := &heapEngine{}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(e.now.Add(Duration(j%7)), fn)
		}
		for e.Step() {
		}
	}
}

// BenchmarkEngineScheduleSpread is the wheel's home turf: event times
// spread over microseconds (a packet train's departures, deliveries and
// completions), where the heap pays O(log n) sifts per event and the
// wheel pays O(1) slot pushes.
func BenchmarkEngineScheduleSpread(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(e.now.Add(Duration(j)*67*Nanosecond), fn)
		}
		for e.Step() {
		}
	}
}

// --- container/heap baseline (the replaced implementation) -----------

type boxedEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type boxedHeap []*boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(*boxedEvent)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func BenchmarkEngineScheduleContainerHeap(b *testing.B) {
	var h boxedHeap
	var seq uint64
	var now Time
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			seq++
			heap.Push(&h, &boxedEvent{at: now.Add(Duration(j % 7)), seq: seq, fn: fn})
		}
		for h.Len() > 0 {
			ev := heap.Pop(&h).(*boxedEvent)
			now = ev.at
			ev.fn()
		}
	}
}
