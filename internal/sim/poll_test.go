package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// pollObs is one observer firing: who, and the engine state it saw.
type pollObs struct {
	id  int
	now Time
	seq uint64
}

// pollTrace is what one run of the poll differential shows.
type pollTrace struct {
	obs       []pollObs // every observer firing, in order
	resume    Time      // the instant the wait returned at
	resumeSeq uint64    // LastSeq there
	checks    int       // ready calls
	wakes     int       // resumes of the waiting body
	procWakes uint64    // SchedStats.ProcWakes after the run
	events    uint64
	// Observers that fired at a poll instant during the wait, before
	// and after that instant's poll event.
	onGridBefore, onGridAfter int
}

// runPollMix waits on a condition that a seeded observer sets, among a
// seeded mix of other observers, with either a Sleep(step) loop or
// Poll. The observers draw their follow-ups from the run's random
// source, so both loops see the same draws only while the events fire
// in the same order.
func runPollMix(seed int64, usePoll bool) pollTrace {
	const step = 100 * Nanosecond
	e := NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	var tr pollTrace

	start := Time(rng.Int63n(int64(3 * step)))
	if rng.Intn(3) == 0 {
		start = 0
	}
	grid := func(k int64) Time { return start.Add(Duration(k) * step) }
	n := int64(1 + rng.Intn(30)) // the poll the setter aims at
	cond, waiting := false, false
	var lastCheck Time = -1

	var observe func(id int) func()
	observe = func(id int) func() {
		return func() {
			now := e.Now()
			tr.obs = append(tr.obs, pollObs{id, now, e.LastSeq()})
			if waiting && now > start && (now-start)%Time(step) == 0 {
				if lastCheck == now {
					tr.onGridAfter++
				} else {
					tr.onGridBefore++
				}
			}
			if id == 0 {
				cond = true
			}
			if id > 0 && rng.Intn(2) == 0 {
				// A follow-up on the poll grid (scheduled after the
				// poll event there when that was already scheduled)
				// or off it.
				at := now.Add(Duration(rng.Int63n(int64(2 * step))))
				if now >= start && rng.Intn(2) == 0 {
					k := int64((now-start)/Time(step)) + 1 + rng.Int63n(3)
					at = grid(k)
				}
				e.Schedule(at, observe(id+1000))
			}
		}
	}

	// The setter: on a poll instant before its poll event, between two
	// polls, or on a poll instant after its poll event (scheduled by an
	// observer just after the previous poll).
	switch rng.Intn(3) {
	case 0:
		e.Schedule(grid(n), observe(0))
	case 1:
		e.Schedule(grid(n-1).Add(1+Duration(rng.Int63n(int64(step)-1))), observe(0))
	case 2:
		e.Schedule(grid(n-1).Add(Picosecond), func() { e.Schedule(grid(n), observe(0)) })
	}
	for i := 1; i <= 20; i++ {
		at := Time(rng.Int63n(int64(grid(n + 5))))
		if rng.Intn(2) == 0 {
			at = grid(rng.Int63n(n + 5))
		}
		e.Schedule(at, observe(i))
	}

	ready := func() bool {
		tr.checks++
		lastCheck = e.Now()
		if tr.checks%3 == 0 {
			e.ScheduleAfter(Duration(rng.Int63n(int64(2*step))), observe(-tr.checks))
		}
		return cond
	}
	e.Spawn("waiter", func(p *Proc) {
		p.SleepUntil(start)
		waiting = true
		if usePoll {
			p.Poll(step, ready)
			tr.wakes++
		} else {
			for {
				p.Sleep(step)
				tr.wakes++
				if ready() {
					break
				}
			}
		}
		waiting = false
		tr.resume, tr.resumeSeq = e.Now(), e.LastSeq()
		p.Sleep(step / 2)
		tr.obs = append(tr.obs, pollObs{-1, e.Now(), e.LastSeq()})
	})
	e.RunAll()
	tr.events = e.EventsProcessed()
	tr.procWakes = e.SchedStats().ProcWakes
	return tr
}

// TestPollMatchesSleepLoop pins Poll to the Sleep(step) loop it
// replaces: over seeded mixes of observer events, some of them on the
// poll instants before and after the poll event there, every observer
// sees the same (Now, LastSeq), the wait returns at the same instant
// and the engine fires the same events. The Poll body resumes once
// where the loop's body resumes at every poll.
func TestPollMatchesSleepLoop(t *testing.T) {
	var before, after, multi int
	for seed := int64(1); seed <= 300; seed++ {
		slp, pol := runPollMix(seed, false), runPollMix(seed, true)
		if !slices.Equal(slp.obs, pol.obs) {
			t.Fatalf("seed %d: observers saw\n%v\nunder Sleep, but\n%v\nunder Poll", seed, slp.obs, pol.obs)
		}
		if slp.resume != pol.resume || slp.resumeSeq != pol.resumeSeq {
			t.Fatalf("seed %d: wait returned at %v (seq %d) under Sleep, %v (seq %d) under Poll",
				seed, slp.resume, slp.resumeSeq, pol.resume, pol.resumeSeq)
		}
		if slp.events != pol.events || slp.checks != pol.checks {
			t.Fatalf("seed %d: %d events and %d checks under Sleep, %d and %d under Poll",
				seed, slp.events, slp.checks, pol.events, pol.checks)
		}
		if slp.wakes != slp.checks || pol.wakes != 1 {
			t.Fatalf("seed %d: body resumed %d times under Sleep and %d under Poll for %d checks, want %d and 1",
				seed, slp.wakes, pol.wakes, pol.checks, pol.checks)
		}
		if got, want := slp.procWakes-pol.procWakes, uint64(slp.checks-1); got != want {
			t.Fatalf("seed %d: Poll saved %d process wakes, want %d", seed, got, want)
		}
		before += pol.onGridBefore
		after += pol.onGridAfter
		if pol.checks > 1 {
			multi++
		}
	}
	t.Logf("%d observers on a poll instant before its poll event, %d after; %d of 300 waits over one poll", before, after, multi)
	if before == 0 || after == 0 || multi < 200 {
		t.Fatalf("mix too thin: %d observers before a poll at its instant, %d after, %d of 300 waits over one poll",
			before, after, multi)
	}
}

// TestPollNegativeStepPanics mirrors Sleep's guard.
func TestPollNegativeStepPanics(t *testing.T) {
	e := NewEngine(1)
	var got any
	e.Spawn("p", func(p *Proc) {
		defer func() { got = recover() }()
		p.Poll(-1, func() bool { return true })
	})
	e.RunAll()
	if got == nil {
		t.Fatal("Poll(-1) did not panic")
	}
}
