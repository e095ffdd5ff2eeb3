package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperatively scheduled simulation process.
//
// A process is a coroutine that the engine resumes directly: the engine
// wakes it, the process executes until it blocks in Sleep or Poll (or
// returns), and only then does the engine resume the event loop. Control
// passes by a coroutine switch, not through the Go scheduler. At most one
// process (or event callback) executes at a time, so the simulation
// stays deterministic even though processes are written as ordinary
// sequential Go code with loops — the direct analogue of a MoonGen slave
// task's transmit or receive loop.
type Proc struct {
	eng  *Engine
	name string
	dead bool

	// next resumes the process until it parks (true) or returns
	// (false); yield, called from inside the process, parks it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// dispatchFn is the prebound wake-up callback: Sleep/SleepUntil on
	// the hot path schedule it without allocating a closure per park.
	dispatchFn func()

	// pollFn is the prebound poll event of a parked Poll, which checks
	// pollReady every pollStep.
	pollFn    func()
	pollStep  Duration
	pollReady func() bool
}

// Spawn starts fn as a new simulation process at the current simulated
// time. fn runs as a coroutine that the engine resumes directly, so it
// is serialized with all other simulation activity. A panic in fn
// surfaces at the caller of the engine's Run.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	p.dispatchFn = func() { e.dispatch(p) }
	p.pollFn = func() { e.poll(p) }
	e.procs++
	// First wake-up happens as a normal event at the current time, so
	// Spawn itself never runs user code.
	e.ScheduleProc(e.now, p)
	return p
}

// ScheduleProc arms a wake-up for p at time at through the process's
// prebound dispatch function — the zero-allocation event path of the
// hot loops. Sleep and SleepUntil go through it; model code that
// wants to wake a process at an explicit instant should too, instead
// of capturing the process in a fresh closure.
func (e *Engine) ScheduleProc(at Time, p *Proc) { e.Schedule(at, p.dispatchFn) }

// dispatch resumes the process until it parks or returns. Must be called
// from engine (event) context.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	e.wakes++
	if _, ok := p.next(); !ok {
		p.dead = true
		e.procs--
	}
}

// poll is one poll event of a parked Poll: it resumes the process when
// its check passes, else schedules the next poll a step later, exactly
// where the process's own Sleep would have.
func (e *Engine) poll(p *Proc) {
	if p.pollReady() {
		p.pollReady = nil
		e.dispatch(p)
		return
	}
	e.Schedule(e.now.Add(p.pollStep), p.pollFn)
}

// park returns control to the engine and blocks until the engine
// dispatches this process again.
func (p *Proc) park() { p.yield(struct{}{}) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Running reports whether the simulation run time is still in progress;
// the usual main-loop condition (see Engine.Running).
func (p *Proc) Running() bool { return p.eng.Running() }

// Sleep suspends the process for d of simulated time. Other events and
// processes run in the meantime. Sleep(0) is a pure yield: it reinserts
// the process at the back of the current instant's event queue.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	e := p.eng
	e.ScheduleProc(e.now.Add(d), p)
	p.park()
}

// SleepUntil suspends the process until the absolute simulated time t.
// If t is in the past it degenerates to a yield.
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		t = p.eng.now
	}
	e := p.eng
	e.ScheduleProc(t, p)
	p.park()
}

// Poll suspends the process until ready reports true, checking it every
// step of simulated time from now. It is the busy-wait loop
//
//	for {
//		p.Sleep(step)
//		if ready() {
//			break
//		}
//	}
//
// with the check run by the engine in the event where the process would
// have woken: the events, their times and their Schedule sequence
// numbers are those of the loop, and the process resumes once, in the
// first event whose check passes, instead of at every step. ready runs
// in engine context while the process is parked, so it must not block;
// it should be prebound (a field or method value), not a fresh closure
// per call, to keep the hot path free of allocations.
func (p *Proc) Poll(step Duration, ready func() bool) {
	if step < 0 {
		panic(fmt.Sprintf("sim: %s: negative poll step %v", p.name, step))
	}
	e := p.eng
	p.pollStep, p.pollReady = step, ready
	e.Schedule(e.now.Add(step), p.pollFn)
	p.park()
}
