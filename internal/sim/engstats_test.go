package sim

import "testing"

// TestSchedStatsCounters pins the scheduler's diagnostic counters:
// every fired event counts exactly once (Step and the Run fast loop
// alike), overflow promotions count each far-future event once, and
// MaxSlotDepth tracks the largest materialized tick buffer.
func TestSchedStatsCounters(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	for i := 0; i < 10; i++ {
		eng.Schedule(Time(0).Add(Duration(i)*Microsecond), func() { fired++ })
	}
	eng.Run(Time(0).Add(4 * Microsecond))
	if got := eng.EventsProcessed(); got != 5 || fired != 5 {
		t.Fatalf("EventsProcessed=%d fired=%d, want 5", got, fired)
	}
	for eng.Step() {
	}
	if got := eng.EventsProcessed(); got != 10 || fired != 10 {
		t.Fatalf("EventsProcessed=%d fired=%d, want 10", got, fired)
	}
	if st := eng.SchedStats(); st.EventsProcessed != 10 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSchedStatsWheelInternals(t *testing.T) {
	eng := NewEngine(2)
	// Far beyond the wheel horizon (~67 us): lands in the overflow heap
	// and must be promoted exactly once as the cursor approaches.
	for i := 0; i < 3; i++ {
		eng.Schedule(Time(0).Add(Millisecond+Duration(i)*Microsecond), func() {})
	}
	// A crowded tick: several events within one wheel tick (65.536 ns)
	// forces a materialized, sorted slot buffer.
	for i := 0; i < 5; i++ {
		eng.Schedule(Time(0).Add(Duration(i)*Nanosecond), func() {})
	}
	eng.RunAll()
	st := eng.SchedStats()
	// The first far event pops straight off the overflow head (the
	// wheel was empty); the cursor jump brings the other two into the
	// horizon and they promote into slots.
	if st.WheelPromotions != 2 {
		t.Fatalf("WheelPromotions=%d, want 2", st.WheelPromotions)
	}
	if st.MaxSlotDepth < 5 {
		t.Fatalf("MaxSlotDepth=%d, want >= 5", st.MaxSlotDepth)
	}
	if st.EventsProcessed != 8 {
		t.Fatalf("EventsProcessed=%d, want 8", st.EventsProcessed)
	}
}
