package core

import (
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
)

// PollRx is the poll-mode receive kernel, the RX counterpart of
// BurstTx and the paper's Listing 3 counter slave (§4.2): receive a
// burst, inspect it, free it. Every receiver runs on it; what a
// receiver does with its traffic is its hook, of one of two kinds. A
// payload hook (Burst) sees the burst's buffers, received into a
// BufArray over the port's receive pool. A count hook (Count), or no
// hook at all, makes the receiver count-only: its queue holds frame
// lengths and takes no buffer (nic.RxQueue.SetCountOnly), as MoonGen's
// device counters count traffic without receiving it in software. The
// steady-state loop performs no allocations.
type PollRx struct {
	Queue *nic.RxQueue
	// Batch is the receive burst size (default DefaultTxBatch, so one
	// RX burst matches one TX burst; 1 reproduces per-packet drains).
	Batch int
	// Poll is the idle backoff after an empty receive attempt
	// (default 20 µs, the drain cadence the examples use).
	Poll sim.Duration
	// Drain is the grace period after the run ends during which the
	// kernel keeps polling, so frames in flight on the wire at the stop
	// boundary are still received. At 0 (the default) it stops at its
	// first empty poll at or after the run end.
	Drain sim.Duration
	// Burst inspects one received burst at the instant now. Received
	// and Bytes already count the burst; the kernel frees the buffers
	// when Burst returns.
	Burst func(bufs []*mempool.Mbuf, now sim.Time)
	// Count sees one received burst of n frames and bytes bytes at
	// the instant now, for a receiver that reads no payload. Received
	// and Bytes already count the burst. At most one of Burst and
	// Count may be set.
	Count func(n int, bytes uint64, now sim.Time)

	// Received / Bytes count every frame the kernel received.
	Received uint64
	Bytes    uint64
}

// Run receives until its first empty poll at or after the run end,
// once Drain has passed since then. It must run as its own task,
// started before the first frame reaches its queue.
func (r *PollRx) Run(t *Task) {
	batch := txBatch(r.Batch)
	poll := r.Poll
	if poll <= 0 {
		poll = 20 * sim.Microsecond
	}
	var ba *mempool.BufArray // nil: count-only
	if r.Burst != nil {
		if r.Count != nil {
			panic("core: PollRx with both a Burst and a Count hook")
		}
		ba = r.Queue.Port().RxBufArray(batch)
	} else {
		r.Queue.SetCountOnly()
	}
	deadline := sim.Never
	for {
		var n int
		var bytes uint64
		if ba != nil {
			n = r.Queue.RecvBurst(ba.Bufs)
			for _, m := range ba.Slice(n) {
				bytes += uint64(m.Len)
			}
		} else {
			n, bytes = r.Queue.RecvCount(batch)
		}
		if n > 0 {
			r.Received += uint64(n)
			r.Bytes += bytes
			if ba != nil {
				r.Burst(ba.Slice(n), t.Now())
				ba.FreeAll()
			} else if r.Count != nil {
				r.Count(n, bytes, t.Now())
			}
			continue
		}
		if !t.Running() {
			if deadline == sim.Never {
				deadline = t.Now().Add(r.Drain)
			}
			if t.Now() >= deadline {
				return
			}
		}
		t.Sleep(poll)
	}
}

// FlowDrain is the Drain of a PollRx that tracks flows: far beyond any
// modeled path latency, so frames in flight on the wire at the stop
// boundary are still attributed. Complete attribution is what makes
// the per-flow counts exactly invariant across core and batch
// configurations.
const FlowDrain = 50 * sim.Microsecond

// TrackFlows returns a PollRx hook that attributes every frame of a
// burst to its flow in tr at its exact descriptor arrival instant, one
// Tracker.Record per frame.
func TrackFlows(tr *flow.Tracker) func(bufs []*mempool.Mbuf, now sim.Time) {
	return func(bufs []*mempool.Mbuf, _ sim.Time) {
		for _, m := range bufs {
			tr.Record(m.Payload(), sim.Time(m.RxMeta.Arrival))
		}
	}
}
