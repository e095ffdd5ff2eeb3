// Package dut models the paper's device under test: a Linux server
// running Open vSwitch with a static forwarding rule on a single CPU
// core (§9), receiving on one port and forwarding out another.
//
// The model reproduces the mechanisms the paper's DuT-side effects come
// from:
//
//   - NAPI: an interrupt schedules a poll run; the poll processes
//     packets (fixed per-packet service cost) until the backlog is
//     empty or the budget is spent, then re-enables interrupts. The
//     ingress ring is read only at an RX interrupt (nic.Port.ArmRx) or
//     a poll step: an arrival costs no event of its own.
//   - Interrupt throttling (ixgbe ITR, §7.4): the driver adapts the
//     minimum interrupt spacing to the observed batch size, so bursty
//     traffic (micro-bursts) yields a low interrupt rate — Figure 7's
//     contrast between MoonGen CBR and zsend.
//   - Finite buffering: at overload the backlog caps out, latency
//     saturates around 2 ms and packets drop (§8.3).
//
// Invalid (bad FCS) frames never reach this model: the NIC drops them
// before queue assignment (nic.Port), which is exactly the property the
// paper's CRC-gap rate control relies on (§8.2).
package dut

import (
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config tunes the forwarder. The defaults are calibrated so the
// overload point, base latency and interrupt-rate plateau land where
// the paper's Open vSwitch DuT (3.3 GHz Xeon E3-1230 v2, one queue)
// measured them.
type Config struct {
	// ServiceTime is the per-packet forwarding cost. 510 ns puts the
	// overload point just below 2 Mpps (the paper: "the system becomes
	// overloaded at about 1.9 Mpps").
	ServiceTime sim.Duration
	// IntDelay is interrupt-to-poll latency (hardirq + softirq entry).
	IntDelay sim.Duration
	// Budget is the NAPI poll budget (Linux default 64).
	Budget int
	// BacklogLimit is the total buffering in packets (NIC ring +
	// driver backlog). 3800 × 510 ns ≈ 2 ms of buffer, matching the
	// paper's "very large latency (about 2 ms in this test setup)".
	BacklogLimit int
	// ITR levels: minimum interrupt spacing by traffic class
	// (lowest-latency / low-latency / bulk), following the ixgbe
	// dynamic ITR scheme the paper cites ([10]).
	ITRLow  sim.Duration
	ITRMid  sim.Duration
	ITRBulk sim.Duration
	// TxPoolSize is the forwarder's transmit buffer pool.
	TxPoolSize int
	// ServiceJitterPct is the relative half-width of the uniform
	// per-packet service-time variation (cache misses, branch
	// mispredictions): 0.15 means ±15% around ServiceTime. Real
	// forwarders are never perfectly periodic; without this noise the
	// simulation phase-locks to the generator's arrival grid.
	ServiceJitterPct float64
	// IntDelayJitterPct is the same for the interrupt-to-poll delay
	// (scheduler noise).
	IntDelayJitterPct float64
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		ServiceTime:  510 * sim.Nanosecond,
		IntDelay:     5 * sim.Microsecond,
		Budget:       64,
		BacklogLimit: 3800,
		ITRLow:       6 * sim.Microsecond,  // ~166 kHz ceiling
		ITRMid:       20 * sim.Microsecond, // ~50 kHz
		ITRBulk:      40 * sim.Microsecond, // ~25 kHz
		TxPoolSize:   8192,

		ServiceJitterPct:  0.15,
		IntDelayJitterPct: 0.20,
	}
}

// Forwarder is the software forwarder. Attach it between two ports with
// New; it consumes valid frames arriving on the in port and retransmits
// them on the out port.
type Forwarder struct {
	eng *sim.Engine
	cfg Config
	in  *nic.Port
	out *nic.Port

	pool *mempool.Pool

	backlog ring.FIFO[queued]

	polling      bool // interrupts are disabled while the poll runs
	stalled      bool // fault injection: servicing paused (Stall/Restart)
	lastInt      sim.Time
	itrInterval  sim.Duration
	intScheduled bool

	// Prebound event callbacks: the poll loop schedules one event per
	// serviced packet, so capturing closures here would dominate the
	// forwarder's allocation profile at Mpps rates. The NAPI model is
	// strictly serial (one poll chain at a time), so a single staged
	// service slot (svcQ/svcDone) suffices.
	rearmFn     func()
	irqFn       func()
	pollStartFn func()
	serviceFn   func()
	svcQ        queued
	svcDone     int

	// Adaptive ITR state: the driver's moderation reacts to traffic
	// burstiness. We classify on the fraction of packets arriving
	// (nearly) back-to-back — the signal that makes micro-bursts
	// "trigger the interrupt rate moderation feature of the driver
	// earlier than expected" (§7.4).
	lastArrival sim.Time
	burstEWMA   float64

	// Counters.
	Interrupts   uint64
	Forwarded    uint64
	Dropped      uint64 // tail drops, counted as arrivals are pulled (Backlog syncs)
	TxRingDrops  uint64
	Flushed      uint64 // backlog frames discarded by Restart(flush)
	totalLatency sim.Duration
}

// queued is one backlog entry: a retained ingress frame, released back
// to its link once its payload is copied out or discarded.
type queued struct {
	fr      *wire.Frame
	arrived sim.Time
}

// New attaches a forwarder between in and out. It installs a deliver
// hook on in; the hook replaces the generic driver path (the backlog
// models NIC ring plus driver queue together) and runs when the
// forwarder pulls its arrivals. in must be connected already.
func New(eng *sim.Engine, in, out *nic.Port, cfg Config) *Forwarder {
	if cfg.ServiceTime == 0 {
		cfg = DefaultConfig()
	}
	f := &Forwarder{
		eng:         eng,
		cfg:         cfg,
		in:          in,
		out:         out,
		pool:        mempool.New(mempool.Config{Count: cfg.TxPoolSize}),
		itrInterval: cfg.ITRLow,
		lastInt:     -sim.Time(sim.Second),
		lastArrival: -sim.Time(sim.Second), // the first arrival is no burst
	}
	f.rearmFn = func() {
		f.intScheduled = false
		f.interrupt()
	}
	f.irqFn = f.interrupt
	f.pollStartFn = func() { f.pollRun(0) }
	f.serviceFn = func() {
		q := f.svcQ
		f.svcQ = queued{}
		f.forward(q)
		f.pollRun(f.svcDone + 1)
	}
	in.SetDeliverHook(f.onFrame)
	f.listen()
	return f
}

// onFrame is the NIC-to-driver boundary: one pulled arrival joins the
// backlog, or is tail-dropped, as of its receive instant.
func (f *Forwarder) onFrame(fr *wire.Frame, rxTime sim.Time) bool {
	burst := 0.0
	if rxTime.Sub(f.lastArrival) < 500*sim.Nanosecond {
		burst = 1.0
	}
	f.burstEWMA = 0.995*f.burstEWMA + 0.005*burst
	f.lastArrival = rxTime

	if f.backlog.Len() >= f.cfg.BacklogLimit {
		f.Dropped++
		return true
	}
	// The driver backlog keeps the frame past the deliver callback, so
	// it must escape the link's recycling until forward or a flushing
	// Restart releases it.
	fr.Retain()
	f.backlog.Push(queued{fr: fr, arrived: rxTime})
	return true
}

// interrupt pulls the due arrivals and, when the forwarder could take
// an interrupt and has work, fires one or defers it respecting the
// throttle; then it re-arms the RX line.
func (f *Forwarder) interrupt() {
	f.in.PullRx()
	now := f.eng.Now()
	eligible := f.lastInt.Add(f.itrInterval)
	switch {
	case f.stalled || f.polling || f.backlog.Len() == 0:
	case now >= eligible:
		f.Interrupts++
		f.lastInt = now
		f.polling = true
		f.eng.ScheduleAfter(f.jittered(f.cfg.IntDelay, f.cfg.IntDelayJitterPct), f.pollStartFn)
	case !f.intScheduled:
		f.intScheduled = true
		// The throttle timer is not cycle-exact on a real system: the
		// re-arm fires with scheduler noise after the eligibility
		// boundary. Without this jitter the model resonates with
		// periodic arrival grids.
		late := sim.Duration(f.eng.Rand().Int63n(int64(f.itrInterval) / 4))
		f.eng.Schedule(eligible.Add(late), f.rearmFn)
	}
	f.listen()
}

// listen arms the RX interrupt line while the forwarder could take an
// interrupt: at the next valid arrival, or at the first from the
// throttle's eligibility on while a throttled re-arm is pending.
func (f *Forwarder) listen() {
	if f.stalled || f.polling {
		return
	}
	notBefore := f.eng.Now()
	if f.intScheduled {
		notBefore = f.lastInt.Add(f.itrInterval)
	}
	f.in.ArmRx(notBefore, f.irqFn)
}

// pollRun processes packets NAPI-style, pulling the due arrivals
// first. done counts packets handled in the current budget slice.
func (f *Forwarder) pollRun(done int) {
	f.in.PullRx()
	if f.stalled {
		// The core stopped servicing mid-poll: abandon the chain. The
		// backlog keeps filling (and tail-dropping) until Restart.
		f.polling = false
		return
	}
	if f.backlog.Len() == 0 {
		f.exitPoll()
		return
	}
	if done >= f.cfg.Budget {
		// Budget exhausted: yield to the scheduler, then poll again
		// (softirq re-raise). A small overhead models the round trip.
		f.eng.ScheduleAfter(2*sim.Microsecond, f.pollStartFn)
		return
	}
	q, _ := f.backlog.Pop()
	f.svcQ, f.svcDone = q, done
	f.eng.ScheduleAfter(f.jittered(f.cfg.ServiceTime, f.cfg.ServiceJitterPct), f.serviceFn)
}

func (f *Forwarder) exitPoll() {
	f.polling = false
	// Adaptive ITR: classify by arrival burstiness. Smooth CBR stays
	// in the low-latency class (high interrupt ceiling); micro-bursty
	// traffic moves to the bulk class (heavy moderation).
	switch {
	case f.burstEWMA <= 0.05:
		f.itrInterval = f.cfg.ITRLow
	case f.burstEWMA <= 0.15:
		f.itrInterval = f.cfg.ITRMid
	default:
		f.itrInterval = f.cfg.ITRBulk
	}
	f.listen()
}

// jittered draws d ± pct uniform noise (mean preserved).
func (f *Forwarder) jittered(d sim.Duration, pct float64) sim.Duration {
	if pct <= 0 {
		return d
	}
	u := f.eng.Rand().Float64()*2 - 1
	return d + sim.Duration(float64(d)*pct*u)
}

// forward retransmits one packet out the egress port and releases the
// ingress frame.
func (f *Forwarder) forward(q queued) {
	m := f.pool.Alloc(len(q.fr.Data))
	if m == nil {
		q.fr.Release()
		f.TxRingDrops++
		return
	}
	copy(m.Data, q.fr.Data)
	q.fr.Release()
	if !f.out.GetTxQueue(0).SendOne(m) {
		m.Free()
		f.TxRingDrops++
		return
	}
	f.Forwarded++
	f.totalLatency += f.eng.Now().Sub(q.arrived)
}

// Stall pauses servicing (fault injection: the DuT core stops
// scheduling the forwarder). Arriving frames keep accumulating in the
// backlog and tail-drop at BacklogLimit; no interrupt fires and any
// in-flight poll chain abandons at its next step. Idempotent.
func (f *Forwarder) Stall() {
	f.in.PullRx()
	f.stalled = true
}

// Restart resumes servicing after a Stall. With flush set the backlog
// is discarded first (a crashed process loses its queues; each frame
// is counted in Flushed and released to its link); without it the
// accumulated backlog is serviced normally. An interrupt is raised
// immediately if work is pending. Idempotent when not stalled.
func (f *Forwarder) Restart(flush bool) {
	f.in.PullRx()
	f.stalled = false
	if flush {
		for {
			q, ok := f.backlog.Pop()
			if !ok {
				break
			}
			q.fr.Release()
			f.Flushed++
		}
	}
	f.interrupt()
}

// Backlog pulls the due arrivals and returns the queue depth; Dropped
// is exact after it.
func (f *Forwarder) Backlog() int {
	f.in.PullRx()
	return f.backlog.Len()
}

// MeanInternalLatency returns the average ingress-to-egress latency of
// forwarded packets (excluding wire times).
func (f *Forwarder) MeanInternalLatency() sim.Duration {
	if f.Forwarded == 0 {
		return 0
	}
	return f.totalLatency / sim.Duration(f.Forwarded)
}
