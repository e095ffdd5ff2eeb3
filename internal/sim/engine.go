package sim

import (
	"fmt"
	"math/rand"
)

// Engine is a single-threaded discrete-event scheduler. All simulated
// activity — including cooperatively scheduled processes (see Proc) —
// runs under the engine's Run loop; at any instant at most one piece of
// simulation code executes, which makes every run reproducible for a
// given seed. The ready queue is the timing wheel in wheel.go; events
// fire in time order, equal times in schedule order.
type Engine struct {
	now     Time
	wheel   timingWheel
	seq     uint64
	seed    int64
	rng     *rand.Rand
	streams uint64
	stopped bool
	procs   int    // live processes, for diagnostics
	events  uint64 // total events fired, for diagnostics

	// stopAt, when non-zero, is the simulated time at which Running()
	// starts returning false. It is the simulation's equivalent of
	// MoonGen's dpdk.running() runtime limit.
	stopAt Time
	// sampleAt is the next instant an observer samples the model at
	// (SetSampleAt); Never when nothing samples.
	sampleAt Time
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always produces the same event trace.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		stopAt:   Never,
		sampleAt: Never,
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (event callbacks and processes).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SplitMix64 derives a decorrelated seed for sub-stream `stream` of a
// base seed — one splitmix64 mixing step. It is the single seed
// derivation of the simulation: engine sub-streams (NewRand) and the
// multicore shard seeds both use it, so base+1/stream-0 collisions of
// naive seed+i schemes cannot occur anywhere.
func SplitMix64(base int64, stream uint64) int64 {
	z := uint64(base) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewRand returns a fresh deterministic random stream derived from the
// engine seed and the stream's creation order (SplitMix64, the same
// derivation the multicore shard seeds use). Model components with
// per-item randomness — e.g. a link's per-frame PHY jitter — draw from
// their own stream so the values depend only on the item index, not on
// how work was grouped into events. That invariance is what makes
// batched and per-packet processing bit-identical.
func (e *Engine) NewRand() *rand.Rand {
	e.streams++
	return rand.New(rand.NewSource(SplitMix64(e.seed, e.streams)))
}

// Schedule runs fn at time at. Scheduling in the past panics: it would
// silently corrupt causality.
//
// The zero-allocation contract of the hot path: Schedule itself never
// allocates in steady state (wheel slot nodes are pooled), so a caller
// that passes a prebound fn — a port's pump/completion callback, a
// link's delivery callback, a process's dispatch function — schedules
// with zero allocations. Model code should hoist its closures into
// reusable fields exactly like those callers do.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.wheel.schedule(at, e.seq, fn)
}

// ScheduleAfter runs fn d after the current time.
func (e *Engine) ScheduleAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now.Add(d), fn)
}

// SetStopTime arranges for Running() to become false at t. Processes that
// loop on Running (the dpdk.running() idiom) terminate shortly after.
func (e *Engine) SetStopTime(t Time) { e.stopAt = t }

// SetRunFor is SetStopTime relative to the current simulated time.
func (e *Engine) SetRunFor(d Duration) { e.stopAt = e.now.Add(d) }

// Horizon returns the instant before which a process may act ahead of
// time, such as a transmit loop filling future slots: the earlier of
// the stop time and the next sample instant (SetSampleAt). No sample
// falls between now and an instant before the horizon, so work done
// ahead for that instant is counted in the same window as work done
// at it.
func (e *Engine) Horizon() Time { return min(e.stopAt, e.sampleAt) }

// SetSampleAt records the next instant an observer reads the model at.
// The telemetry recorder sets it to its next snapshot, which lowers
// Horizon to the window edge.
func (e *Engine) SetSampleAt(t Time) { e.sampleAt = t }

// Running reports whether the simulated run time is still in progress.
// It mirrors MoonGen's dpdk.running() main-loop condition.
func (e *Engine) Running() bool { return !e.stopped && e.now < e.stopAt }

// Stop makes Running return false immediately. Pending events still fire
// when Run continues, which lets processes observe the stop and finalize
// their counters, exactly like MoonGen tasks draining after Ctrl-C.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty or the next event is after
// until. It returns the number of events fired.
func (e *Engine) Run(until Time) int {
	n := 0
	for {
		at, fn, ok := e.wheel.popAtMost(until)
		if !ok {
			break
		}
		if at < e.now {
			panic("sim: time went backwards")
		}
		e.now = at
		e.events++
		fn()
		n++
	}
	if e.now < until && until != Never {
		e.now = until
	}
	return n
}

// RunAll fires every event until the queue drains. Processes must
// terminate (e.g. via SetStopTime) or RunAll never returns.
func (e *Engine) RunAll() int { return e.Run(Never) }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.wheel.len() }

// Procs returns the number of live processes.
func (e *Engine) Procs() int { return e.procs }

// EventsProcessed returns the total number of events fired since the
// engine was created. The counter is monotonic and engine-owned (plain
// field, no atomics): it must only be read from simulation context,
// which is exactly how the telemetry recorder samples it.
func (e *Engine) EventsProcessed() uint64 { return e.events }

// SchedStats is a snapshot of the scheduler's internal counters —
// cheap diagnostics for the telemetry layer and for perf debugging.
// All values are monotonic except Pending and MaxSlotDepth (a running
// maximum).
type SchedStats struct {
	// EventsProcessed is the total number of events fired.
	EventsProcessed uint64
	// WheelPromotions counts overflow-heap events promoted into wheel
	// slots as the cursor approached them (each event promotes at most
	// once).
	WheelPromotions uint64
	// MaxSlotDepth is the largest materialized tick buffer seen —
	// crowding beyond the singleton fast path. Singleton slot fires
	// never materialize a buffer and so do not register here.
	MaxSlotDepth int
	// Pending is the current number of scheduled events.
	Pending int
}

// SchedStats returns the scheduler counters. Simulation context only,
// like EventsProcessed.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		EventsProcessed: e.events,
		WheelPromotions: e.wheel.promotions,
		MaxSlotDepth:    e.wheel.maxDepth,
		Pending:         e.Pending(),
	}
}
