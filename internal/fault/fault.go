// Package fault is the deterministic fault-injection layer: typed
// fault events on the engine's sim-time grid, executed by an Injector
// registered on the engine. Faults are part of the modeled experiment,
// not test scaffolding — a fault plan is data (seed-reproducible,
// pinnable in goldens), every event fires at an exact simulated
// instant, and the per-fault counters surface through a telemetry
// probe so recovery behaviour is gateable like any other model output.
//
// Determinism contract: a plan is stated in global sim time, so in a
// sharded run every shard applies the identical plan to its private
// testbed at the identical instants. Counters that describe the plan
// itself (events fired, recovery latency) are therefore equal across
// shards and merge under RuleMax; counters that describe dropped
// traffic are per-shard quantities and merge under RuleSum — see
// telemetry.FaultProbe.
package fault

import (
	"fmt"
	"math"

	"repro/internal/dut"
	"repro/internal/nic"
	"repro/internal/ptpclk"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Kind names a fault type. The strings are the spec-file vocabulary
// (docs/spec-reference.md, `faults:` block).
type Kind string

const (
	// LinkFlap takes the wire down for the event's duration: in-flight
	// frames are dropped (and counted) at the moment the link dies,
	// frames transmitted while it is down drop at the wire, and the TX
	// serialization grid is unaffected (see wire.Link.SetDown).
	LinkFlap Kind = "linkflap"
	// DuTStall pauses the DuT forwarder's service core: the poll chain
	// abandons, the driver backlog keeps filling (and tail-dropping),
	// and the restart optionally flushes the stale backlog.
	DuTStall Kind = "dut-stall"
	// QueuePause gates the NIC's TX pump (PFC-style backpressure):
	// frames wait in the descriptor rings, nothing is dropped, and the
	// resume re-evaluates the queues at the exact resume instant.
	QueuePause Kind = "queue-pause"
	// ClockStep steps the receive port's PTP clock phase and/or drift
	// rate at one instant (a time-sync upset). It has no duration.
	ClockStep Kind = "clock-step"
)

// Event is one typed fault in a Plan. At is the offset from the run
// start; periodic events repeat every Period until Count occurrences
// (0 = until the run horizon).
type Event struct {
	Kind Kind
	// At is the onset offset from the run start.
	At sim.Duration
	// Duration is the fault's active window (ignored by ClockStep).
	Duration sim.Duration
	// Period, when > 0, repeats the event every Period.
	Period sim.Duration
	// Count caps the number of occurrences of a periodic event
	// (0 = no cap; the run horizon bounds it).
	Count int
	// Flush makes a DuTStall restart discard the stale backlog.
	Flush bool
	// Offset is the ClockStep phase step.
	Offset sim.Duration
	// DriftPPM, when non-zero, is the ClockStep's new drift rate.
	DriftPPM float64
}

// Plan is a fault schedule: events sorted by onset. Validate before
// running; scenario.Execute does this for spec-carried plans.
type Plan []Event

// Validate checks the plan's internal consistency (kinds, windows,
// periods). Target availability (a DuTStall needs a forwarder in the
// testbed) is checked where the testbed is known.
func (p Plan) Validate() error {
	last := sim.Duration(-1)
	for i, ev := range p {
		at := func(format string, args ...any) error {
			return fmt.Errorf("fault plan event %d (%s): %s", i, ev.Kind, fmt.Sprintf(format, args...))
		}
		switch ev.Kind {
		case LinkFlap, DuTStall, QueuePause:
			if ev.Duration <= 0 {
				return at("duration must be positive, got %v", ev.Duration)
			}
			if ev.Offset != 0 || ev.DriftPPM != 0 {
				return at("offset/drift apply only to clock-step events")
			}
		case ClockStep:
			if ev.Offset == 0 && ev.DriftPPM == 0 {
				return at("a clock step needs an offset or a drift rate")
			}
			if ev.Duration != 0 {
				return at("a clock step is instantaneous; it cannot carry a duration")
			}
		default:
			return at("unknown fault kind (one of: linkflap, dut-stall, queue-pause, clock-step)")
		}
		if ev.At < 0 {
			return at("onset must be ≥ 0, got %v", ev.At)
		}
		if ev.At < last {
			return fmt.Errorf("fault plan event %d (%s): onsets must be sorted (%v after %v)", i, ev.Kind, ev.At, last)
		}
		last = ev.At
		if ev.Period < 0 {
			return at("period must be ≥ 0, got %v", ev.Period)
		}
		if ev.Period > 0 && ev.Period <= ev.Duration {
			return at("period (%v) must exceed the duration (%v), or the fault never recovers", ev.Period, ev.Duration)
		}
		if ev.Count < 0 {
			return at("count must be ≥ 0, got %d", ev.Count)
		}
		if ev.Count > 0 && ev.Period == 0 {
			return at("count needs a period (a one-shot event fires once)")
		}
		if ev.Flush && ev.Kind != DuTStall {
			return at("flush applies only to dut-stall events")
		}
	}
	return nil
}

// CheckClockSteps rejects a plan whose clock steps, summed as absolute
// values over every occurrence that fires within horizon, exceed limit.
// The sum runs in float64, so no plan overflows it.
func (p Plan) CheckClockSteps(horizon, limit sim.Duration) error {
	var sum float64
	for _, ev := range p {
		if ev.Kind != ClockStep || ev.At >= horizon {
			continue
		}
		n := 1.0
		if ev.Period > 0 {
			n = math.Floor(float64(horizon-ev.At-1)/float64(ev.Period)) + 1
			if ev.Count > 0 {
				n = min(n, float64(ev.Count))
			}
		}
		sum += n * math.Abs(float64(ev.Offset))
	}
	if sum > float64(limit) {
		return fmt.Errorf("the clock steps within the run add up to %.6gs, more than the %v a clock can be stepped", sum/float64(sim.Second), limit)
	}
	return nil
}

// RequiresDuT reports whether the plan contains events that need a DuT
// forwarder in the testbed.
func (p Plan) RequiresDuT() bool {
	for _, ev := range p {
		if ev.Kind == DuTStall {
			return true
		}
	}
	return false
}

// Targets binds a plan to the testbed objects it acts on. Only the
// targets the plan's kinds touch need to be non-nil.
type Targets struct {
	// Link is the flapped wire (the generator's transmit direction).
	Link *wire.Link
	// Port is the pause-gated transmit port.
	Port *nic.Port
	// Fwd is the stalled DuT forwarder.
	Fwd *dut.Forwarder
	// Clock is the stepped PTP clock (the receive port's, by
	// convention: the clock latency measurements read).
	Clock *ptpclk.Clock
}

// State is the injector's lifecycle position.
type State int

const (
	// Armed: installed, no fault has fired yet.
	Armed State = iota
	// Active: at least one fault window is currently open.
	Active
	// Recovered: faults fired and every window has closed.
	Recovered
)

func (s State) String() string {
	switch s {
	case Armed:
		return "armed"
	case Active:
		return "active"
	case Recovered:
		return "recovered"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Injector executes a Plan against Targets on an engine. Install
// unrolls the plan onto the event wheel up front: every occurrence
// within the run horizon becomes a pair of prescheduled events
// (onset/clear), so an armed injector contributes nothing — no events,
// no allocations, no branches — to the datapath until a fault actually
// fires. Occurrences beyond the horizon are not scheduled at all,
// which keeps the post-stop drain free of stray fault actions.
type Injector struct {
	eng       *sim.Engine
	t         Targets
	plan      Plan
	installed bool

	fired     uint64
	active    uint64
	scheduled int
	maxRecNS  uint64
	lastRecNS uint64
}

// New binds a validated plan to its targets. The plan is not executed
// until Install.
func New(eng *sim.Engine, t Targets, plan Plan) *Injector {
	return &Injector{eng: eng, t: t, plan: plan}
}

// Install schedules every occurrence of the plan within [start,
// start+horizon) on the engine. Windows are clamped to the horizon so
// a fault never outlives the measured run. Install must be called once,
// before the run starts; it panics on a plan whose targets are missing
// (spec-driven plans are validated against the topology upstream).
func (in *Injector) Install(start sim.Time, horizon sim.Duration) {
	if in.installed {
		panic("fault: Install called twice")
	}
	in.installed = true
	end := start.Add(horizon)
	for _, ev := range in.plan {
		in.requireTargets(ev)
		in.scheduleEvent(ev, start.Add(ev.At), end)
	}
}

// requireTargets panics when an event's target is missing from the
// testbed — a wiring bug, not a runtime condition (spec compilation
// rejects e.g. dut-stall without a DuT topology before this point).
func (in *Injector) requireTargets(ev Event) {
	missing := func(what string) {
		panic(fmt.Sprintf("fault: %s event without a %s target", ev.Kind, what))
	}
	switch ev.Kind {
	case LinkFlap:
		if in.t.Link == nil {
			missing("link")
		}
	case DuTStall:
		if in.t.Fwd == nil {
			missing("forwarder")
		}
	case QueuePause:
		if in.t.Port == nil {
			missing("port")
		}
	case ClockStep:
		if in.t.Clock == nil {
			missing("clock")
		}
	}
}

// scheduleEvent schedules every occurrence of ev from first on: its
// onset and, for windowed kinds, the matching clear, clamped to the run
// horizon. The occurrences share one onset and one clear callback, so
// a plan allocates per event, not per occurrence. Clears fire in onset
// order (every window lasts ev.Duration, ties at the horizon fire in
// scheduling order), so the k-th clear closes the k-th occurrence.
func (in *Injector) scheduleEvent(ev Event, first, end sim.Time) {
	var onsetFn, clearFn func()
	if ev.Kind == ClockStep {
		onsetFn = func() {
			in.fired++
			in.t.Clock.Adjust(ev.Offset)
			if ev.DriftPPM != 0 {
				in.t.Clock.SetDriftPPM(ev.DriftPPM)
			}
		}
	} else {
		onsetFn = func() {
			in.fired++
			in.active++
			switch ev.Kind {
			case LinkFlap:
				in.t.Link.SetDown()
			case DuTStall:
				in.t.Fwd.Stall()
			case QueuePause:
				in.t.Port.PauseTx()
			}
		}
		closed := 0
		clearFn = func() {
			onset := first.Add(sim.Duration(closed) * ev.Period)
			closed++
			in.active--
			rec := uint64(in.eng.Now().Sub(onset).Nanoseconds())
			in.lastRecNS = rec
			if rec > in.maxRecNS {
				in.maxRecNS = rec
			}
			switch ev.Kind {
			case LinkFlap:
				in.t.Link.SetUp()
			case DuTStall:
				in.t.Fwd.Restart(ev.Flush)
			case QueuePause:
				in.t.Port.ResumeTx()
			}
		}
	}
	occ := first
	for n := 0; occ < end; n++ {
		if ev.Count > 0 && n >= ev.Count {
			break
		}
		in.scheduled++
		in.eng.Schedule(occ, onsetFn)
		if clearFn != nil {
			clear := occ.Add(ev.Duration)
			if clear > end {
				clear = end
			}
			in.eng.Schedule(clear, clearFn)
		}
		if ev.Period <= 0 {
			break
		}
		occ = occ.Add(ev.Period)
	}
}

// State returns the lifecycle position: Armed until the first onset,
// Active while any window is open, Recovered after.
func (in *Injector) State() State {
	if in.active > 0 {
		return Active
	}
	if in.fired > 0 {
		return Recovered
	}
	return Armed
}

// Fired returns the number of fault onsets executed so far. Every
// shard of a sharded run executes the identical plan, so this is a
// per-plan quantity (RuleMax under merge), not an additive one.
func (in *Injector) Fired() uint64 { return in.fired }

// ActiveFaults returns the number of currently open fault windows.
func (in *Injector) ActiveFaults() uint64 { return in.active }

// Scheduled returns the number of occurrences Install placed on the
// wheel (plan events × repetitions within the horizon).
func (in *Injector) Scheduled() int { return in.scheduled }

// FramesDropped returns the frames lost at fault boundaries: frames
// dropped by the down wire (in-flight drains plus dead-wire
// transmissions) and stale DuT backlog frames discarded by a flushing
// restart. Both counters advance only under fault action, so the sum
// is exactly the fault-attributed loss. Per-shard traffic quantity:
// RuleSum under merge.
func (in *Injector) FramesDropped() uint64 {
	var n uint64
	if in.t.Link != nil {
		n += in.t.Link.DroppedFrames
	}
	if in.t.Fwd != nil {
		n += in.t.Fwd.Flushed
	}
	return n
}

// MaxRecoveryNS returns the longest fault window executed so far, in
// sim-time nanoseconds (onset to clear, clamped to the run horizon) —
// the injector-level recovery latency.
func (in *Injector) MaxRecoveryNS() uint64 { return in.maxRecNS }

// LastRecoveryNS returns the most recently closed window's length in
// sim-time nanoseconds.
func (in *Injector) LastRecoveryNS() uint64 { return in.lastRecNS }
