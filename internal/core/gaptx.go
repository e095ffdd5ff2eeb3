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
	// MinFillerWire overrides the 76-byte filler floor (§8.1).
	MinFillerWire int
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

// gapStager shares the buffered-burst mechanics of GapTx.Run: frames
// (real and filler interleaved in emission order) are staged into one
// reusable BufArray and flushed as full bursts, with zero per-packet
// allocations. Buffers come from the engine's shared per-core cache.
type gapStager struct {
	t      *Task
	queue  *nic.TxQueue
	cache  *mempool.Cache
	ba     *mempool.BufArray
	real   []bool   // kind per staged slot, for short-send accounting
	skips  []uint64 // §8.4 delta attributed to a staged real frame
	staged int
	g      *GapTx
}

// flush hands the staged burst to the NIC. On a run-end short send the
// per-kind counters — and the §8.4 skip deltas attributed to unsent
// real frames — are rolled back for the frames that never reached the
// descriptor ring, so the report counts exactly the handed-over
// frames regardless of the batch size.
func (s *gapStager) flush() bool {
	if s.staged == 0 {
		return true
	}
	n := s.t.SendAll(s.queue, s.ba.Bufs[:s.staged])
	for i := n; i < s.staged; i++ {
		if s.real[i] {
			s.g.Sent--
			s.g.SkippedGaps -= s.skips[i]
		} else {
			s.g.Fillers--
		}
	}
	ok := n == s.staged
	s.ba.Clear(s.staged)
	s.staged = 0
	return ok
}

// stage appends one frame to the burst, flushing when full.
func (s *gapStager) stage(m *mempool.Mbuf, real bool) bool {
	s.real[s.staged] = real
	s.skips[s.staged] = 0
	s.ba.Bufs[s.staged] = m
	s.staged++
	if s.staged == len(s.ba.Bufs) {
		return s.flush()
	}
	return true
}

// alloc takes one buffer, flushing the staged burst and backing off
// while the pool is dry (the NIC holds every buffer until transmit
// completion). Returns nil when the run ended.
func (s *gapStager) alloc(size int) *mempool.Mbuf {
	for {
		if m := s.cache.Alloc(size); m != nil {
			return m
		}
		if !s.flush() || !s.t.Running() {
			return nil
		}
		s.t.Sleep(backoff)
	}
}

// Run transmits until the run ends. It must run as its own task.
func (g *GapTx) Run(t *Task) {
	port := g.Queue.Port()
	byteTime := wire.ByteTime(port.Speed())
	filler := rate.NewGapFiller(byteTime)
	if g.MinFillerWire > 0 {
		filler.MinFillerWire = g.MinFillerWire
	}
	batch := g.Batch
	if batch <= 0 {
		batch = DefaultTxBatch
	}
	s := &gapStager{
		t:     t,
		queue: g.Queue,
		cache: t.Cache(),
		ba:    t.Cache().BufArray(batch),
		real:  make([]bool, batch),
		skips: make([]uint64, batch),
		g:     g,
	}
	rng := t.Engine().Rand()
	realWire := int64(g.PktSize + proto.FCSLen + proto.WireOverhead)

	var i uint64
	for t.Running() {
		m := s.alloc(g.PktSize)
		if m == nil {
			break
		}
		if g.Fill != nil {
			g.Fill(m, i)
		}
		g.Sent++
		i++
		if !s.stage(m, true) {
			break
		}

		gapBytes := filler.GapToWireBytes(g.Pattern.NextGap(rng)) - realWire
		before := filler.Skipped
		fills := filler.FillGap(gapBytes)
		if delta := filler.Skipped - before; delta > 0 {
			g.SkippedGaps += delta
			if s.staged > 0 && s.ba.Bufs[s.staged-1] == m {
				// The unit's real frame is still staged: attribute the
				// delta to it so a run-end rollback keeps the report
				// batch-invariant.
				s.skips[s.staged-1] = delta
			}
		}
		aborted := false
		for _, wireLen := range fills {
			frameLen := wireLen - proto.FCSLen - proto.WireOverhead
			fm := s.alloc(frameLen)
			if fm == nil {
				aborted = true
				break
			}
			// Filler frames carry a broken FCS so the DuT's NIC
			// drops them in hardware without any software activity.
			proto.EthHdr(fm.Payload()[:proto.EthHdrLen]).Fill(proto.EthFill{
				Src: port.MAC(), Dst: proto.BroadcastMAC, EtherType: 0x0000,
			})
			fm.TxMeta.InvalidCRC = true
			g.Fillers++
			if !s.stage(fm, false) {
				aborted = true
				break
			}
		}
		if aborted {
			break
		}
	}
	s.flush()
}

// Allocator is a frame source for PushTx.Send: *mempool.Pool and
// *mempool.Cache both qualify.
type Allocator interface {
	Alloc(size int) *mempool.Mbuf
}

// PushTx is the slot-paced software transmit loop. It models the
// classic software rate control of existing packet generators (§7.1):
// push one packet at a time at explicitly chosen times and hope the
// NIC's DMA engine mirrors them onto the wire. The same loop drives
// every exact software grid: slot n's deadline is the task start plus
// Schedule(n); once the task wakes there with the run still live, the
// Slot hook decides what the slot carries. On an unshaped queue with at
// most one packet in flight, the wire departure tracks the push time.
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

	// Sent counts frames handed to the queue; Failed counts frames lost
	// to a dry pool or a full descriptor ring.
	Sent, Failed uint64

	task *Task
}

// Run transmits until the run ends. It must run as its own task.
func (p *PushTx) Run(t *Task) {
	p.task = t
	start := t.Now()
	for n := uint64(0); t.Running(); n++ {
		t.SleepUntil(start.Add(p.Schedule(n)))
		if !t.Running() {
			break
		}
		p.Slot(n)
	}
}

// Send allocates one size-byte frame from a, fills it (fill may be nil
// for prefilled pools) and hands it to the queue. A frame the ring
// refuses is freed. It reports whether the frame reached the ring;
// either failure counts in Failed.
func (p *PushTx) Send(a Allocator, size int, fill func(m *mempool.Mbuf, now sim.Time)) bool {
	m := a.Alloc(size)
	if m == nil {
		p.Failed++
		return false
	}
	if fill != nil {
		fill(m, p.task.Now())
	}
	if !p.Queue.SendOne(m) {
		m.Free()
		p.Failed++
		return false
	}
	p.Sent++
	return true
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
	batch := h.Batch
	if batch <= 0 {
		batch = DefaultTxBatch
	}
	cache := t.Cache()
	ba := cache.BufArray(batch)
	var i uint64
	for t.Running() {
		n := ba.Alloc(h.PktSize)
		if n == 0 {
			t.Sleep(backoff)
			continue
		}
		if h.Fill != nil {
			for _, m := range ba.Slice(n) {
				h.Fill(m, i)
				i++
			}
		}
		sent := t.SendAll(h.Queue, ba.Bufs[:n])
		h.Sent += uint64(sent)
		ba.Clear(n)
		if sent != n {
			break
		}
	}
}
