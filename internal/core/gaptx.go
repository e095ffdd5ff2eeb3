package core

import (
	"math/rand"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// DefaultTxBatch is the default burst size of the batched TX loops,
// defined as the MAC scheduler's train size so one task burst drains
// in one scheduler event.
const DefaultTxBatch = nic.DefaultTxTrain

// GapTx is the paper's novel software rate control (§8): the wire is
// kept completely saturated; gaps between real packets are filled with
// invalid frames (bad FCS, sometimes sub-minimum length) whose lengths
// define the inter-departure times exactly. Because the transmit queue
// never runs dry, DMA timing is irrelevant — precision is the line's
// byte granularity, 0.8 ns at 10 GbE.
type GapTx struct {
	Queue   *nic.TxQueue
	Pattern rate.Pattern
	// PktSize is the real frame size without FCS.
	PktSize int
	// Fill crafts each real packet (sequence number i).
	Fill func(m *mempool.Mbuf, i uint64)
	// Batch is the reusable burst size (default DefaultTxBatch; 1
	// reproduces per-packet sends). The emission schedule — every
	// departure byte on the wire — is invariant in Batch: batching
	// only groups how frames are handed to the descriptor ring.
	Batch int

	// Sent counts real packets, Fillers invalid ones.
	Sent    uint64
	Fillers uint64
	// SkippedGaps counts gaps below the representable minimum that
	// were folded into later gaps (§8.4).
	SkippedGaps uint64
}

// Run transmits until the run ends. It must run as its own task. Each
// BurstTx frame is either the real packet or the next filler of the gap
// after it. A gap is drawn when the frame after its real packet is
// written, so every Pattern.NextGap draw keeps its place relative to
// the kernel's sends at any batch size.
func (g *GapTx) Run(t *Task) {
	port := g.Queue.Port()
	filler := rate.NewGapFiller(wire.ByteTime(port.Speed()))
	batch := txBatch(g.Batch)
	rng := t.Engine().Rand()
	realWire := int64(proto.WireLen(g.PktSize))

	// Per burst slot: whether it holds a real frame, and the §8.4 skip
	// delta of the gap drawn after it — what a run-end short send rolls
	// back, so the report counts exactly the handed-over frames.
	real := make([]bool, batch)
	skips := make([]uint64, batch)
	var (
		seq    uint64 // real frames written
		slot   int    // position in the current burst
		gapDue bool   // the last frame was real: draw its gap next
		fills  []int  // wire lengths of the current gap's pending fillers
	)
	frame := func(m *mempool.Mbuf, _ uint64) {
		if gapDue {
			gapDue = false
			before := filler.Skipped
			fills = filler.FillGap(filler.GapToWireBytes(g.Pattern.NextGap(rng)) - realWire)
			if delta := filler.Skipped - before; delta > 0 {
				g.SkippedGaps += delta
				if slot > 0 {
					// The gap's real frame is in this burst: a rollback
					// of that frame takes the delta with it.
					skips[slot-1] = delta
				}
			}
		}
		real[slot], skips[slot] = len(fills) == 0, 0
		slot++
		if len(fills) == 0 {
			if g.Fill != nil {
				g.Fill(m, seq)
			}
			seq++
			g.Sent++
			gapDue = true
			return
		}
		m.Reset(fills[0] - proto.FCSLen - proto.WireOverhead)
		fills = fills[1:]
		// Filler frames carry a broken FCS so the DuT's NIC drops them
		// in hardware without any software activity.
		proto.EthHdr(m.Payload()[:proto.EthHdrLen]).Fill(proto.EthFill{
			Src: port.MAC(), Dst: proto.BroadcastMAC, EtherType: 0x0000,
		})
		m.TxMeta.InvalidCRC = true
		g.Fillers++
	}
	rollback := func(n, sent int) {
		for j := sent; j < n; j++ {
			if real[j] {
				g.Sent--
				g.SkippedGaps -= skips[j]
			} else {
				g.Fillers--
			}
		}
		slot = 0
	}
	b := &BurstTx{Queue: g.Queue, Bufs: t.app.TxPool().BufArray(batch), Size: g.PktSize,
		Frame: frame, AfterSend: rollback}
	b.Run(t)
}

// txBatch resolves a TX loop's Batch option: <= 0 selects
// DefaultTxBatch.
func txBatch(batch int) int {
	if batch <= 0 {
		return DefaultTxBatch
	}
	return batch
}

// BurstTx is the batched transmit kernel, the paper's Listing 2 loop
// (§4.2): allocate a bufArray, write each packet, send the burst, reuse
// the array. UDPFlood, HWRateTx and GapTx are hooks on it. A burst takes
// as many frames as the pool has, up to the array's length, and backs
// off while the pool is dry. SendAll blocks while the descriptor ring
// is full and sends short only when the run ends, which stops the
// kernel.
type BurstTx struct {
	Queue *nic.TxQueue
	// Bufs is the reusable burst; its length is the batch size.
	Bufs *mempool.BufArray
	// Size is the length frames are allocated with; Frame may set
	// another with m.Reset.
	Size int
	// Frame writes frame i, counting every frame handed out (may be
	// nil).
	Frame func(m *mempool.Mbuf, i uint64)
	// BeforeSend, if set, runs once the burst's n frames are written,
	// just before they are sent.
	BeforeSend func(n int)
	// AfterSend, if set, learns how many of the burst's n frames the
	// queue accepted. sent < n only on the run's last burst: per-frame
	// tallies roll back the frames from index sent on.
	AfterSend func(n, sent int)

	// Sent counts frames handed to the queue.
	Sent uint64
}

// Run transmits until the run ends. It must run as its own task.
func (b *BurstTx) Run(t *Task) {
	var i uint64
	for t.Running() {
		n := b.Bufs.Alloc(b.Size)
		if n == 0 {
			t.Sleep(backoff)
			continue
		}
		burst := b.Bufs.Slice(n)
		if b.Frame != nil {
			for _, m := range burst {
				b.Frame(m, i)
				i++
			}
		}
		if b.BeforeSend != nil {
			b.BeforeSend(n)
		}
		sent := t.SendAll(b.Queue, burst)
		b.Sent += uint64(sent)
		if b.AfterSend != nil {
			b.AfterSend(n, sent)
		}
		b.Bufs.Clear(n)
		if sent < n {
			return
		}
	}
}

// PushTx is the slot-paced software transmit loop. It models the
// classic software rate control of existing packet generators (§7.1):
// push one packet at a time at explicitly chosen times and hope the
// NIC's DMA engine mirrors them onto the wire. The same loop drives
// every exact software grid: slot n's deadline is the task start plus
// Schedule(n); once the task wakes there with the run still live, the
// Slot hook decides what the slot carries. On an unshaped queue with at
// most one packet in flight, the wire departure tracks the push time.
//
// With Batch > 1 one wake also fills the next Batch-1 slots ahead of
// their time, the way §7.2 keeps the queue full and lets the NIC own
// the timing: each such frame carries its slot time as
// TxMeta.LaunchAt, and the NIC holds it until then. A slot runs ahead
// only if its time is before the engine's horizon, the earlier of the
// stop time and the next telemetry snapshot, so no frame is filled
// ahead across a window edge. A Send that finds the ring full or the
// pool dry ahead of time sleeps to the slot time and tries there, so
// Slot sees the outcome it would see at its time. The departures,
// counts, stamped times and telemetry windows are those of Batch 1 as
// long as the queue is unshaped (a shaper starts its grid when it
// first sees a frame, which for a held one is later than its push
// time), the queue and the pools Slot allocates from are the task's
// alone (a frame filled ahead takes its buffer and its descriptor at
// the wake, not at its slot), and the run ends at the engine's stop
// time (not by Stop). The NIC adds no condition: the ring room and
// the pool level a wake sees are exact, because the port commits held
// frames and reclaims sent buffers only up to the next pending event
// (Engine.QuietUntil, Engine.Due), which a wake always is.
type PushTx struct {
	Queue *nic.TxQueue
	// Schedule returns slot n's deadline as an offset from the task
	// start. It is called once per slot, in slot order, before the task
	// sleeps, so a stateful schedule (PatternSchedule) draws its gaps in
	// slot order.
	Schedule func(n uint64) sim.Duration
	// Slot decides what slot n carries by calling Send once per frame:
	// not at all to drop the slot, twice to duplicate a frame. Send's
	// result tells it each frame's outcome.
	Slot func(n uint64)
	// Batch is the lookahead depth: how many slots one wake fills
	// (<= 1: one wake per slot).
	Batch int

	// Sent counts frames handed to the queue; Failed counts frames lost
	// to a dry pool or a full descriptor ring.
	Sent, Failed uint64

	task  *Task
	at    sim.Time // the current slot's time
	ahead bool     // the current slot runs before its time
}

// Run transmits until the run ends. It must run as its own task.
func (p *PushTx) Run(t *Task) {
	p.task = t
	start := t.Now()
	left := 0 // slots this wake may still fill ahead
	for n := uint64(0); t.Running(); n++ {
		p.at = start.Add(p.Schedule(n))
		p.ahead = left > 0 && p.at > t.Now() && p.at < t.Engine().Horizon()
		if p.ahead {
			left--
		} else {
			t.SleepUntil(p.at)
			if !t.Running() {
				return
			}
			left = p.Batch - 1
		}
		p.Slot(n)
	}
}

// Send allocates one size-byte frame from pool, fills it (fill may be nil
// for prefilled pools) with the slot's time and hands it to the queue.
// A frame the ring refuses is freed. It reports whether the frame
// reached the ring; either failure counts in Failed.
func (p *PushTx) Send(pool *mempool.Pool, size int, fill func(m *mempool.Mbuf, now sim.Time)) bool {
	if p.ahead && p.Queue.Free() == 0 {
		p.waitSlot()
	}
	m := pool.Alloc(size)
	if m == nil && p.ahead {
		p.waitSlot()
		m = pool.Alloc(size)
	}
	if m == nil {
		p.Failed++
		return false
	}
	now := p.task.Now()
	if p.ahead {
		now = p.at
		m.TxMeta.LaunchAt = now
	}
	if fill != nil {
		fill(m, now)
	}
	if !p.Queue.SendOne(m) {
		m.Free()
		p.Failed++
		return false
	}
	p.Sent++
	return true
}

// waitSlot gives up running the current slot ahead: the task sleeps to
// the slot's time and the rest of the slot runs there.
func (p *PushTx) waitSlot() {
	p.ahead = false
	p.task.SleepUntil(p.at)
}

// Uniform is the exact software grid: slot n departs at
// phase + n·interval.
func Uniform(phase, interval sim.Duration) func(n uint64) sim.Duration {
	return func(n uint64) sim.Duration { return phase + sim.Duration(n)*interval }
}

// PatternSchedule paces slots by a (jittery) inter-departure process:
// slot n departs after the first n+1 gaps. Use rate.SoftPush for a
// Pktgen-DPDK-like generator or rate.Bursty for a zsend-like one.
func PatternSchedule(pat rate.Pattern, rng *rand.Rand) func(n uint64) sim.Duration {
	var off sim.Duration
	return func(uint64) sim.Duration {
		off += pat.NextGap(rng)
		return off
	}
}

// HWRateTx drives a hardware-rate-controlled queue (§7.2): the queue's
// shaper is configured and the descriptor ring is simply kept full —
// "the software can keep all available queues completely filled and the
// generated timing is up to the NIC".
type HWRateTx struct {
	Queue   *nic.TxQueue
	PPS     float64
	PktSize int
	Fill    func(m *mempool.Mbuf, i uint64)
	// Batch is the reusable burst size (default DefaultTxBatch; 1
	// reproduces per-packet sends).
	Batch int

	// Delay postpones the first send, phase-shifting the shaper grid.
	// Multicore sharding staggers k queues at rate/k by i/rate each so
	// their emissions interleave onto the single-core grid exactly.
	Delay sim.Duration

	Sent uint64
}

// Run transmits until the run ends. It must run as its own task.
func (h *HWRateTx) Run(t *Task) {
	if h.Delay > 0 {
		t.Sleep(h.Delay)
	}
	h.Queue.SetRatePPS(h.PPS)
	b := &BurstTx{Queue: h.Queue, Bufs: t.app.TxPool().BufArray(txBatch(h.Batch)), Size: h.PktSize, Frame: h.Fill}
	b.Run(t)
	h.Sent = b.Sent
}
