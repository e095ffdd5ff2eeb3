package nic

import (
	"fmt"
	"math/rand"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/ring"
	"repro/internal/sim"
)

// DefaultTxTrain is the default cap on frames the MAC scheduler
// commits per event on the batched fast path — matched to the burst
// sizes the tasks use so one descriptor-ring burst drains in one
// scheduler evaluation. Raising it lengthens the precommit horizon,
// which the §8 CRC-gap stager observes through ring backpressure —
// TestFig10Equivalence pins that 32 keeps the gap quartiles honest.
const DefaultTxTrain = 32

// TxQueue is one hardware transmit queue: a descriptor ring the
// application fills asynchronously, drained by the port's MAC
// scheduler. Queues are independent — "essentially a virtual interface"
// (§3.3) — which is what makes multi-core scaling linear.
type TxQueue struct {
	port *Port
	id   int
	ring *ring.SPSC[*mempool.Mbuf]

	// Hardware rate control (per-queue CBR shaping, §7.2). interval
	// is the target inter-departure time; 0 means line rate.
	interval  sim.Duration
	idealNext sim.Time
	// pendingAt caches the departure time (grid + oscillation) drawn
	// for the current head-of-ring frame so the scheduler stays
	// idempotent across evaluations.
	pendingAt    sim.Time
	pendingValid bool
	anomalous    bool // configured beyond the chip's reliable range

	sent      uint64
	sentBytes uint64
}

func newTxQueue(p *Port, id, ringSize int) *TxQueue {
	return &TxQueue{port: p, id: id, ring: ring.NewSPSC[*mempool.Mbuf](ringSize)}
}

// ID returns the queue index.
func (q *TxQueue) ID() int { return q.id }

// Port returns the owning port.
func (q *TxQueue) Port() *Port { return q.port }

// MAC returns the port's MAC address, so scripts can write
// `ethSrc: queue` like MoonGen's fill does.
func (q *TxQueue) MAC() proto.MAC { return q.port.mac }

// Sent returns packets and bytes transmitted from this queue.
func (q *TxQueue) Sent() (packets, bytes uint64) { return q.sent, q.sentBytes }

// SetRatePPS configures the hardware rate limiter to a constant packet
// rate. Zero disables shaping (line rate). Above the chip's reliable
// range (~9 Mpps on X520/X540, §7.5) the shaper enters its documented
// "unpredictable non-linear" regime; use two queues as a work-around.
func (q *TxQueue) SetRatePPS(pps float64) {
	if !q.port.profile.HWRateControl && pps > 0 {
		panic(fmt.Sprintf("nic: %s has no hardware rate control", q.port.profile.Name))
	}
	if pps <= 0 {
		if q.interval != 0 {
			q.port.shaped--
		}
		q.interval = 0
		q.anomalous = false
		return
	}
	if q.interval == 0 {
		q.port.shaped++
	}
	q.interval = sim.FromSeconds(1 / pps)
	q.anomalous = q.port.profile.RateAnomalyPPS > 0 && pps > q.port.profile.RateAnomalyPPS
	q.idealNext = q.port.eng.Now()
	q.pendingValid = false
}

// Free returns the free descriptor slots.
func (q *TxQueue) Free() int { return q.ring.Free() }

// Send enqueues the burst onto the descriptor ring and returns how many
// were accepted — DPDK burst semantics: a full ring yields a short
// count and the caller retries, busy-wait style. Accepted buffers are
// owned by the NIC until transmit completion ("a buffer must not be
// modified after passing it to DPDK", §4.2); they are freed back to
// their pool automatically, mirroring DPDK's recycling.
func (q *TxQueue) Send(bufs []*mempool.Mbuf) int {
	n := q.ring.EnqueueBurst(bufs)
	if n > 0 {
		q.port.kickPump()
	}
	return n
}

// SendOne enqueues a single buffer.
func (q *TxQueue) SendOne(m *mempool.Mbuf) bool {
	ok := q.ring.EnqueueOne(m)
	if ok {
		q.port.kickPump()
	}
	return ok
}

// drawHWOscillation models the shaper's measured imprecision: traffic
// "oscillates around the targeted inter-arrival time by up to 256 ns"
// with rare larger excursions (§7.3, Table 4). The mixture is
// calibrated so the measured inter-arrival buckets land near Table 4's
// MoonGen rows. rng is always the port engine's seeded source — this
// package never touches the math/rand globals (the import above is
// for the *rand.Rand type only), which is what keeps sharded runs
// deterministic; TestNoGlobalRandState pins it.
func drawHWOscillation(rng *rand.Rand) sim.Duration {
	u := rng.Float64()
	var ns float64
	switch {
	case u < 0.50:
		ns = rng.Float64()*64 - 32
	case u < 0.83:
		ns = 32 + rng.Float64()*64 // 32..96
		if rng.Intn(2) == 0 {
			ns = -ns
		}
	case u < 0.999:
		ns = 96 + rng.Float64()*96 // 96..192
		if rng.Intn(2) == 0 {
			ns = -ns
		}
	default:
		ns = 192 + rng.Float64()*160
		if rng.Intn(2) == 0 {
			ns = -ns
		}
	}
	return sim.FromNanoseconds(ns)
}

// eligibleAt returns when the head frame of this queue may start
// transmitting according to the queue's shaper.
func (q *TxQueue) eligibleAt() sim.Time {
	if q.interval == 0 {
		return q.port.eng.Now()
	}
	if !q.pendingValid {
		now := q.port.eng.Now()
		if q.idealNext < now {
			// The queue was empty or newly rated: restart the grid.
			q.idealNext = now
		}
		at := q.idealNext.Add(drawHWOscillation(q.port.eng.Rand()))
		if q.anomalous {
			// §7.5 anomaly: the shaper stretches intervals by an
			// unpredictable factor, so the achieved rate falls
			// nonlinearly short of the target.
			stretch := 1.0 + q.port.eng.Rand().Float64()*0.8
			at = q.idealNext.Add(sim.Duration(float64(q.interval) * (stretch - 1.0)))
		}
		if at < now {
			at = now
		}
		q.pendingAt = at
		q.pendingValid = true
	}
	return q.pendingAt
}

// advance moves the shaper grid after a transmission.
func (q *TxQueue) advance() {
	q.pendingValid = false
	if q.interval > 0 {
		q.idealNext = q.idealNext.Add(q.interval)
	}
}

// kickPump schedules a MAC scheduler evaluation at the current instant.
// A pump already scheduled for a *future* instant (a shaped queue's next
// departure) must not suppress this: a newly enqueued frame on another
// queue may be eligible right now.
//
// Fast path: when every queue is unshaped and an evaluation is already
// armed at or before the wire's next transmit slot, the kick is
// redundant — no frame can start before that slot (start ≥ NextTxSlot
// always), the armed evaluation re-derives all state when it fires,
// and an unshaped evaluation draws no randomness — so skipping the
// extra event is invisible to the simulation. This is what keeps a
// busy-waiting sender from scheduling one no-op pump per retry.
func (p *Port) kickPump() {
	if p.txPaused {
		return // gated: ResumeTx re-evaluates the queues
	}
	if p.pumpScheduled && p.shaped == 0 && p.link != nil && p.pumpAt <= p.link.NextTxSlot() {
		return
	}
	p.schedulePump(p.eng.Now())
}

// PauseTx gates the MAC transmit scheduler (fault injection modelling
// PFC-style backpressure): armed evaluations no-op, new sends stop
// kicking the pump, and frames accumulate in the descriptor rings
// until ResumeTx. The wire grid (busyUntil) is untouched, so the
// post-resume departure schedule depends only on the resume instant.
// Idempotent.
func (p *Port) PauseTx() { p.txPaused = true }

// ResumeTx re-enables the MAC scheduler and immediately re-evaluates
// the queues, draining whatever accumulated during the pause on the
// exact wire grid from the resume instant. Idempotent.
func (p *Port) ResumeTx() {
	if !p.txPaused {
		return
	}
	p.txPaused = false
	p.schedulePump(p.eng.Now())
}

// schedulePump arranges exactly one pending evaluation at the earliest
// requested instant. An existing earlier-or-equal event already covers
// this request (pump re-derives all state and re-chains); a later one
// is superseded. Events carry the prebound pumpFn — no closure
// allocation — and pumpEvent discards stale firings by comparing the
// armed instant, so the event population stays O(1) per port.
func (p *Port) schedulePump(at sim.Time) {
	if p.pumpScheduled && p.pumpAt <= at {
		return
	}
	p.pumpScheduled = true
	p.pumpAt = at
	p.eng.Schedule(at, p.pumpFn)
}

// pumpEvent is the scheduled entry point: it runs the scheduler only
// when this firing matches the armed evaluation (stale events from
// superseded arm times no-op).
func (p *Port) pumpEvent() {
	if !p.pumpScheduled || p.pumpAt != p.eng.Now() {
		return
	}
	p.pump()
}

// pump is the port's MAC transmit scheduler: it picks the next eligible
// frame across all queues (round-robin at equal times via queue index),
// honors per-queue rate limiters, the wire's serialization spacing, the
// runt-frame rate ceiling and the XL710's per-port packet ceiling, then
// emits the frame onto the link.
//
// Batching: after the first commit, the scheduler keeps emitting from
// the same queue — up to txTrain frames in this one event — as long as
// it is the only active queue and unshaped, stamping each departure on
// the exact per-frame wire grid (serialization spacing plus the rate
// ceilings). The grid arithmetic is identical to the per-packet
// evaluation, so departure times are bit-identical; only the event
// count drops. Shaped queues and multi-queue arbitration points are
// always evaluated in their own event, exactly as before, which keeps
// the §7.2 shaper oscillation model untouched.
func (p *Port) pump() {
	p.pumpScheduled = false
	if p.txPaused {
		return // gated (PauseTx): frames wait in the rings
	}
	if p.link == nil {
		return // unconnected port: frames pile up in the rings
	}
	now := p.eng.Now()
	if !p.pumpStep(now) {
		return
	}
	// Train continuation: same-queue burst on the pure wire grid. The
	// horizon bounds how much wire time one event may pre-commit, so a
	// frame enqueued on another queue mid-train (a latency probe during
	// a flood) waits no longer than it would behind one large frame
	// under the per-packet scheduler.
	emitted := 1
	horizon := now.Add(sim.Duration(p.txTrain) * p.minFrameTime)
	soleQueue := len(p.txQueues) == 1 // no arbitration possible: skip the rescan
	for emitted < p.txTrain {
		var sole *TxQueue
		if soleQueue {
			if _, ok := p.txQueues[0].ring.Peek(); ok {
				sole = p.txQueues[0]
			}
		} else {
			var multi bool
			sole, multi = p.soleActiveQueue()
			if multi {
				// Arbitration: its own evaluation event.
				p.schedulePump(p.link.NextTxSlot())
				break
			}
		}
		if sole != nil && sole.interval != 0 {
			// Shaping: its own evaluation event.
			p.schedulePump(p.link.NextTxSlot())
			break
		}
		if sole == nil {
			break // rings drained; the next Send kicks us again
		}
		start := p.link.NextTxSlot()
		if start < now {
			start = now
		}
		m, _ := sole.ring.Peek()
		start = p.applyRateCeilings(m, start)
		if start > horizon {
			p.schedulePump(start)
			break
		}
		m, _ = sole.ring.DequeueOne()
		sole.advance()
		p.rrNext = (sole.id + 1) % len(p.txQueues)
		p.transmitFrameAt(sole, m, start)
		emitted++
	}
	if emitted == p.txTrain {
		p.schedulePump(p.link.NextTxSlot())
	}
	p.armCompletions()
	p.publishStats()
}

// soleActiveQueue returns the only TX queue with pending frames, or
// multi=true when more than one queue is active.
func (p *Port) soleActiveQueue() (sole *TxQueue, multi bool) {
	for _, q := range p.txQueues {
		if _, ok := q.ring.Peek(); !ok {
			continue
		}
		if sole != nil {
			return nil, true
		}
		sole = q
	}
	return sole, false
}

// applyRateCeilings delays start to honor the per-port packet-rate
// ceilings: sub-minimum frames cap at RuntMaxPPS (§8.1); the XL710
// caps all frames at PortMaxPPS (§5.4). The per-ceiling gaps are
// precomputed at port creation (runtMinGap/portMinGap) — same rounded
// picosecond values, no per-frame division.
func (p *Port) applyRateCeilings(m *mempool.Mbuf, start sim.Time) sim.Time {
	if !p.hasTxStart {
		return start
	}
	minGap := p.portMinGap
	if p.runtMinGap > minGap && m.Len+proto.FCSLen < proto.MinFrameSizeFCS {
		minGap = p.runtMinGap
	}
	if minGap > 0 && start.Sub(p.lastTxStart) < minGap {
		return p.lastTxStart.Add(minGap)
	}
	return start
}

// pumpStep is one per-packet scheduler evaluation: scan, pick, check
// eligibility, commit if the frame may start now. It reports whether a
// frame was committed (the train continues only after a commit).
func (p *Port) pumpStep(now sim.Time) bool {
	// Scan queues starting after the last served one: equal-eligibility
	// queues share the wire round-robin, as the hardware arbiter does.
	var best *TxQueue
	var bestAt sim.Time
	n := len(p.txQueues)
	for i := 0; i < n; i++ {
		q := p.txQueues[(p.rrNext+i)%n]
		if _, ok := q.ring.Peek(); !ok {
			continue
		}
		at := q.eligibleAt()
		if best == nil || at < bestAt {
			best = q
			bestAt = at
		}
	}
	if best == nil {
		return false // idle; the next Send kicks us again
	}

	start := bestAt
	if w := p.link.NextTxSlot(); w > start {
		start = w
	}
	if start < now {
		start = now
	}

	m, _ := best.ring.Peek()
	start = p.applyRateCeilings(m, start)

	if start > now {
		p.schedulePump(start)
		return false
	}

	// Commit: dequeue and transmit.
	m, _ = best.ring.DequeueOne()
	best.advance()
	p.rrNext = (best.id + 1) % len(p.txQueues)
	p.transmitFrameAt(best, m, start)
	return true
}

// transmitFrameAt performs the DMA fetch (checksum offloads), MAC-level
// timestamp latch and wire emission for one buffer at the exact wire
// instant start (≥ now: train frames after the first are future-stamped
// on the serialization grid), then queues the buffer's recycling at
// transmit completion.
func (p *Port) transmitFrameAt(q *TxQueue, m *mempool.Mbuf, start sim.Time) {
	data := m.Payload()

	// Checksum offload engine: executed when the hardware fetches the
	// descriptor. L2Len/L3Len default to plain Ethernet/IPv4 offsets.
	meta := &m.TxMeta
	l2 := meta.L2Len
	if l2 == 0 {
		l2 = proto.EthHdrLen
	}
	if meta.OffloadIPChecksum && len(data) >= l2+proto.IPv4HdrLen {
		proto.IPv4Hdr(data[l2:]).CalcChecksum()
	}
	if (meta.OffloadUDPChecksum || meta.OffloadTCPChecksum) && len(data) >= l2+proto.IPv4HdrLen {
		ip := proto.IPv4Hdr(data[l2:])
		l3 := meta.L3Len
		if l3 == 0 {
			l3 = ip.HdrLen()
		}
		segEnd := l2 + int(ip.TotalLength())
		if segEnd > len(data) {
			segEnd = len(data)
		}
		seg := data[l2+l3 : segEnd]
		if meta.OffloadUDPChecksum && len(seg) >= proto.UDPHdrLen {
			udp := proto.UDPHdr(seg)
			udp.SetChecksum(0)
			udp.SetChecksum(proto.TransportChecksumIPv4(ip.Src(), ip.Dst(), proto.IPProtoUDP, seg))
		}
		if meta.OffloadTCPChecksum && len(seg) >= proto.TCPHdrLen {
			tcp := proto.TCPHdr(seg)
			tcp.SetChecksum(0)
			tcp.SetChecksum(proto.TransportChecksumIPv4(ip.Src(), ip.Dst(), proto.IPProtoTCP, seg))
		}
	}

	// TX hardware timestamping, "late in the transmit path" (§6.1).
	if meta.Timestamp && !p.txTSValid {
		if seq, ok := p.classifyPTP(data); ok {
			p.txTSValid = true
			p.txTS = p.Clock.TimestampAt(start)
			p.txTSSeq = seq
		}
	}

	f := p.link.AcquireFrame()
	f.Data = append(f.Data, data...)
	f.WireSize = m.Len + proto.FCSLen
	f.CRCOK = !meta.InvalidCRC
	busyUntil := p.link.TransmitAt(f, start)
	p.lastTxStart = start
	p.hasTxStart = true

	p.stage.TxPackets++
	p.stage.TxBytes += uint64(m.Len)
	q.sent++
	q.sentBytes += uint64(m.Len)

	if p.txTrace != nil {
		p.txTrace(q, m, start)
	}

	// The NIC owns the buffer until the frame has left the FIFO; then
	// DPDK-style recycling returns it to its pool. Completions are
	// queued here and armed once per train (armCompletions).
	p.pushCompletion(m, busyUntil)
}

// pushCompletion appends a buffer to the transmit-completion FIFO
// (completion times are monotonic: busyUntil only moves forward).
func (p *Port) pushCompletion(m *mempool.Mbuf, at sim.Time) {
	p.lastCompletion = at
	p.completions.Push(txCompletion{m: m, at: at})
}

// armCompletions schedules one recycling event at the end of the train
// just committed. The event frees every buffer whose frame has left the
// FIFO by then; with single-frame trains this is exactly the per-packet
// free-at-busyUntil behavior. An event already armed at the same
// instant is not duplicated (duplicates were harmless no-ops; now they
// are not scheduled at all).
func (p *Port) armCompletions() {
	if p.completions.Len() > 0 && !(p.completionArmed && p.completionAt == p.lastCompletion) {
		p.completionArmed = true
		p.completionAt = p.lastCompletion
		p.eng.Schedule(p.lastCompletion, p.completeFn)
	}
}

// completeTx frees every buffer whose transmit completed by now.
// Frees are batched per pool (one lock acquisition per run of
// same-pool buffers — in practice the whole train) instead of paying
// the pool mutex per packet.
func (p *Port) completeTx() {
	now := p.eng.Now()
	if now >= p.completionAt {
		p.completionArmed = false
	}
	for {
		c, ok := p.completions.Peek()
		if !ok || c.at > now {
			break
		}
		if n := len(p.freeBatch); n > 0 && p.freeBatch[n-1].Pool() != c.m.Pool() {
			p.flushFreeBatch()
		}
		p.completions.Pop()
		p.freeBatch = append(p.freeBatch, c.m)
	}
	p.flushFreeBatch()
}

// flushFreeBatch returns the accumulated same-pool completions.
func (p *Port) flushFreeBatch() {
	if len(p.freeBatch) == 0 {
		return
	}
	p.freeBatch[0].Pool().FreeBatch(p.freeBatch)
	for i := range p.freeBatch {
		p.freeBatch[i] = nil
	}
	p.freeBatch = p.freeBatch[:0]
}
