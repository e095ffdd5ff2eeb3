package sim

import (
	"math/rand"
	"testing"
)

// wheelTickDur is one wheel tick as a Duration (white-box: the edge
// tests below pin behavior exactly on tick boundaries).
const wheelTickDur = Duration(1) << wheelTickShift

// horizonDur is the wheel's covered future; times beyond it overflow.
const horizonDur = Duration(wheelSlots) << wheelTickShift

// orderRecorder pairs a scheduler with its fire log so the Engine and
// the reference heap can be compared event for event.
type orderRecorder struct {
	eng schedulerUnderTest
	log []int
}

// bothSchedulers returns the real Engine and the reference heap
// (heapref_test.go), keyed by a label for failure messages.
func bothSchedulers() map[string]schedulerUnderTest {
	return map[string]schedulerUnderTest{"wheel": NewEngine(1), "heap": &heapEngine{}}
}

// TestWheelMatchesHeapOrder is the scheduler's equivalence pin: over
// randomized schedules — clustered times, exact ties, far-future
// overflow, re-entrant scheduling from callbacks — the Engine's timing
// wheel fires events in exactly the order the reference binary heap
// does, including the equal-time FIFO tiebreak.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		wheel := &orderRecorder{eng: NewEngine(1)}
		heap := &orderRecorder{eng: &heapEngine{}}

		// A deterministic schedule plan shared by both engines: each
		// entry is (delay-from-now, number of re-entrant children).
		type plan struct {
			d        Duration
			children int
		}
		plans := make([]plan, 300)
		for i := range plans {
			var d Duration
			switch rng.Intn(5) {
			case 0:
				d = 0 // exact tie with now
			case 1:
				d = Duration(rng.Int63n(100)) // intra-tick cluster
			case 2:
				d = Duration(rng.Int63n(int64(10 * wheelTickDur)))
			case 3:
				d = Duration(rng.Int63n(int64(horizonDur)))
			case 4:
				// Far future: exercised the overflow heap + promotion.
				d = horizonDur + Duration(rng.Int63n(int64(4*horizonDur)))
			}
			plans[i] = plan{d: d, children: rng.Intn(3)}
		}

		run := func(r *orderRecorder) {
			id := 0
			var sched func(p plan)
			sched = func(p plan) {
				myID := id
				id++
				children := make([]plan, p.children)
				for c := range children {
					// Child delays derive deterministically from the
					// parent's id, including same-instant re-entrancy.
					children[c] = plan{d: Duration((myID * 37 * (c + 1)) % int(2*wheelTickDur)), children: 0}
				}
				r.eng.Schedule(r.eng.Now().Add(p.d), func() {
					r.log = append(r.log, myID)
					for _, cp := range children {
						sched(cp)
					}
				})
			}
			for _, p := range plans {
				sched(p)
			}
			r.eng.Run(Never)
		}
		run(wheel)
		run(heap)

		if len(wheel.log) != len(heap.log) {
			t.Fatalf("trial %d: wheel fired %d events, heap %d", trial, len(wheel.log), len(heap.log))
		}
		for i := range wheel.log {
			if wheel.log[i] != heap.log[i] {
				t.Fatalf("trial %d: order diverges at event %d: wheel id %d, heap id %d",
					trial, i, wheel.log[i], heap.log[i])
			}
		}
		if wheel.eng.Now() != heap.eng.Now() {
			t.Fatalf("trial %d: final times diverge: wheel %v, heap %v", trial, wheel.eng.Now(), heap.eng.Now())
		}
	}
}

// TestNextAtMatchesHeap pins the engine's next-event query against the
// reference heap: over random schedule/pop runs — exact ties, intra-tick
// clusters, far-future overflow that must be promoted, and re-entrant
// inserts at the firing instant and in the firing tick — NextAt
// reports the reference's earliest pending time before every step and
// from inside every callback.
func TestNextAtMatchesHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		logs := map[string][]Time{}
		for name, e := range bothSchedulers() {
			rng := rand.New(rand.NewSource(int64(trial)))
			var log []Time
			var sched func(d Duration, depth int)
			sched = func(d Duration, depth int) {
				e.Schedule(e.Now().Add(d), func() {
					log = append(log, e.NextAt())
					if depth < 2 {
						sched(0, depth+1)                                         // re-entrant, same instant
						sched(Duration(rng.Int63n(int64(wheelTickDur))), depth+1) // same or next tick
					}
					log = append(log, e.NextAt())
				})
			}
			for i := 0; i < 200; i++ {
				var d Duration
				switch rng.Intn(4) {
				case 0:
					d = Duration(rng.Int63n(100))
				case 1:
					d = Duration(rng.Int63n(int64(10 * wheelTickDur)))
				case 2:
					d = Duration(rng.Int63n(int64(horizonDur)))
				case 3:
					d = horizonDur + Duration(rng.Int63n(int64(4*horizonDur)))
				}
				sched(d, rng.Intn(3))
			}
			for {
				log = append(log, e.NextAt())
				if !e.Step() {
					break
				}
			}
			logs[name] = log
			if eng, ok := e.(*Engine); ok && eng.wheel.promotions == 0 {
				t.Fatalf("trial %d: no overflow event was promoted", trial)
			}
		}
		w, h := logs["wheel"], logs["heap"]
		if len(w) != len(h) {
			t.Fatalf("trial %d: %d NextAt samples on the wheel, %d on the heap", trial, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("trial %d: sample %d: wheel NextAt %v, heap %v", trial, i, w[i], h[i])
			}
		}
		if w[len(w)-1] != Never {
			t.Fatalf("trial %d: NextAt on an empty queue is %v, want Never", trial, w[len(w)-1])
		}
	}
}

// TestWheelSameTickReentrancy pins the same-instant re-entrancy rule:
// an event scheduling at now fires in the same pass, after every event
// already pending at that instant — on the Engine and the reference.
func TestWheelSameTickReentrancy(t *testing.T) {
	for name, e := range bothSchedulers() {
		var log []string
		at := Time(3 * wheelTickDur).Add(123) // mid-tick instant
		e.Schedule(at, func() {
			log = append(log, "first")
			// Re-entrant: same instant as the currently firing event.
			e.Schedule(e.Now(), func() { log = append(log, "reentrant") })
			// And one later within the same tick.
			e.Schedule(e.Now().Add(1), func() { log = append(log, "same-tick+1ps") })
		})
		e.Schedule(at, func() { log = append(log, "second") })
		e.Schedule(at.Add(2), func() { log = append(log, "pre-existing+2ps") })
		e.Run(Never)
		want := []string{"first", "second", "reentrant", "same-tick+1ps", "pre-existing+2ps"}
		if len(log) != len(want) {
			t.Fatalf("%s: fired %v, want %v", name, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("%s: order %v, want %v", name, log, want)
			}
		}
	}
}

// TestWheelOverflowPromotion pins the far-future path: events beyond
// the wheel horizon are parked in the overflow heap and promoted into
// the wheel as the cursor approaches, interleaving exactly with
// near-future events — including an exact time tie across the
// overflow/wheel boundary, where the earlier-scheduled (overflow)
// event must fire first.
func TestWheelOverflowPromotion(t *testing.T) {
	e := NewEngine(1)
	far := Time(2 * horizonDur)
	var log []int
	e.Schedule(far, func() { log = append(log, 0) })        // overflows
	e.Schedule(far.Add(1), func() { log = append(log, 1) }) // overflows
	if e.wheel.over.len() != 2 {
		t.Fatalf("far events in overflow: %d, want 2", e.wheel.over.len())
	}
	// A chain of near events walks the cursor toward the far ones.
	var step func()
	hops := 0
	step = func() {
		hops++
		if e.Now() < far.Add(-horizonDur/2) {
			e.ScheduleAfter(horizonDur/16, step)
		} else {
			// Schedule a tie with the overflowed event: scheduled later,
			// so it must fire after it.
			e.Schedule(far, func() { log = append(log, 2) })
		}
	}
	e.Schedule(0, step)
	e.RunAll()
	if e.wheel.over.len() != 0 {
		t.Fatalf("overflow not drained: %d nodes left", e.wheel.over.len())
	}
	want := []int{0, 2, 1}
	if len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
		t.Fatalf("far events fired as %v, want %v", log, want)
	}
	if hops < 8 {
		t.Fatalf("cursor walk too short (%d hops) to exercise promotion", hops)
	}
}

// TestRunStopsOnSlotBoundary pins Run(until) behavior when until is
// exactly a wheel-slot boundary: events at the boundary fire, events
// one picosecond later (same slot) do not, and now lands exactly on
// the boundary — on the Engine and the reference.
func TestRunStopsOnSlotBoundary(t *testing.T) {
	for name, e := range bothSchedulers() {
		boundary := Time(5) * Time(wheelTickDur) // first instant of slot 5
		var fired []string
		e.Schedule(boundary.Add(-1), func() { fired = append(fired, "before") })
		e.Schedule(boundary, func() { fired = append(fired, "on") })
		e.Schedule(boundary.Add(1), func() { fired = append(fired, "after") })
		n := e.Run(boundary)
		if n != 2 || len(fired) != 2 || fired[0] != "before" || fired[1] != "on" {
			t.Fatalf("%s: Run(boundary) fired %v (n=%d), want [before on]", name, fired, n)
		}
		if e.Now() != boundary {
			t.Fatalf("%s: now = %v, want boundary %v", name, e.Now(), boundary)
		}
		// The rest of the slot still fires on the next run.
		e.Run(boundary.Add(1))
		if len(fired) != 3 || fired[2] != "after" {
			t.Fatalf("%s: continuation fired %v", name, fired)
		}
	}
}

// TestWheelScheduleAfterIdleRun pins the between-runs unload path:
// Run(until) materializes a future multi-event tick (a singleton slot
// would take the in-place fast path, so two events are needed) and
// stops before it; a subsequent Schedule into an earlier tick must
// push the materialized remainder back into its slot and still fire
// everything in global order.
func TestWheelScheduleAfterIdleRun(t *testing.T) {
	e := NewEngine(1)
	var log []int
	// Two events in tick 10 force the slot to materialize when Run
	// looks for the next event.
	e.Schedule(Time(10*wheelTickDur), func() { log = append(log, 10) })
	e.Schedule(Time(10*wheelTickDur).Add(3), func() { log = append(log, 11) })
	e.Run(Time(2 * wheelTickDur))
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if !e.wheel.loaded {
		t.Fatal("tick-10 slot not materialized; the unload path is not being exercised")
	}
	// Now insert events into earlier ticks than the materialized one.
	e.Schedule(Time(5*wheelTickDur).Add(7), func() { log = append(log, 5) })
	if e.wheel.loaded {
		t.Fatal("earlier-tick schedule did not unload the materialized slot")
	}
	e.Schedule(Time(3*wheelTickDur).Add(9), func() { log = append(log, 3) })
	e.RunAll()
	want := []int{3, 5, 10, 11}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

// TestWheelNodePoolRecycles checks the slot-node pool: a steady
// schedule/fire loop reuses nodes instead of allocating.
func TestWheelNodePoolRecycles(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(e.Now().Add(Duration(i%200)*Nanosecond), fn)
		if i%4 == 3 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
	if e.wheel.freeN == 0 {
		t.Fatal("node pool empty after drain; nodes are not recycled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now().Add(50*Nanosecond), fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per run, want 0", allocs)
	}
}
