package core

import (
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
)

// PollRx is the poll-mode receive kernel, the RX counterpart of
// BurstTx and the paper's Listing 3 counter slave (§4.2): receive a
// burst into a BufArray over the port's receive pool, inspect it, free
// it. Every receiver runs on it; what a receiver does with its traffic
// is its Burst hook. The steady-state loop performs no allocations.
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
	// Burst inspects one received burst at the instant now (may be
	// nil). Received and Bytes already count the burst; the kernel
	// frees the buffers when Burst returns.
	Burst func(bufs []*mempool.Mbuf, now sim.Time)

	// Received / Bytes count every frame the kernel received.
	Received uint64
	Bytes    uint64
}

// Run receives until its first empty poll at or after the run end,
// once Drain has passed since then. It must run as its own task.
func (r *PollRx) Run(t *Task) {
	batch := txBatch(r.Batch)
	poll := r.Poll
	if poll <= 0 {
		poll = 20 * sim.Microsecond
	}
	ba := r.Queue.Port().RxBufArray(batch)
	deadline := sim.Never
	for {
		if n := r.Queue.RecvBurst(ba.Bufs); n > 0 {
			bufs := ba.Slice(n)
			var bytes uint64
			for _, m := range bufs {
				bytes += uint64(m.Len)
			}
			r.Received += uint64(n)
			r.Bytes += bytes
			if r.Burst != nil {
				r.Burst(bufs, t.Now())
			}
			ba.FreeAll()
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
