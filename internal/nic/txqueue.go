package nic

import (
	"fmt"
	"math/rand"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/ring"
	"repro/internal/sim"
)

// DefaultTxTrain is the MAC's descriptor fetch depth: the most frames
// one scheduler evaluation commits — matched to the burst sizes the
// tasks use so one descriptor-ring burst drains in one evaluation. It
// is part of the model: senders see the fetched descriptors as ring
// room, the §8 CRC-gap stager through ring backpressure —
// TestFig10Equivalence pins that 32 keeps the gap quartiles honest.
const DefaultTxTrain = 32

// TxQueue is one hardware transmit queue: a descriptor ring the
// application fills asynchronously, drained by the port's MAC
// scheduler. Queues are independent — "essentially a virtual interface"
// (§3.3) — which is what makes multi-core scaling linear.
type TxQueue struct {
	port *Port
	id   int
	ring ring.Ring[*mempool.Mbuf]
	size int // descriptors: the ring holds at most size buffers

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
}

func newTxQueue(p *Port, id, ringSize int) *TxQueue {
	return &TxQueue{port: p, id: id, size: ceilPow2(ringSize)}
}

// Port returns the owning port.
func (q *TxQueue) Port() *Port { return q.port }

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
func (q *TxQueue) Free() int { return q.size - q.ring.Len() }

// Send enqueues the burst onto the descriptor ring and returns how many
// were accepted — DPDK burst semantics: a full ring yields a short
// count and the caller retries, busy-wait style. Accepted buffers are
// owned by the NIC until transmit completion ("a buffer must not be
// modified after passing it to DPDK", §4.2); they are freed back to
// their pool automatically, mirroring DPDK's recycling.
func (q *TxQueue) Send(bufs []*mempool.Mbuf) int {
	n := min(len(bufs), q.Free())
	for _, m := range bufs[:n] {
		q.ring.Push(m)
	}
	if n > 0 {
		q.port.kickPump()
	}
	return n
}

// SendOne enqueues a single buffer. A buffer whose TxMeta.LaunchAt
// lies ahead is held on the ring until then.
func (q *TxQueue) SendOne(m *mempool.Mbuf) bool {
	if q.ring.Len() == q.size {
		return false
	}
	q.ring.Push(m)
	q.port.kickPump()
	return true
}

// held reports whether m waits on the ring for its launch time.
func held(m *mempool.Mbuf, now sim.Time) bool { return m.TxMeta.LaunchAt > now }

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
// transmitting according to the queue's shaper, for a scheduler
// evaluation at now.
func (q *TxQueue) eligibleAt(now sim.Time) sim.Time {
	if q.interval == 0 {
		return now
	}
	if !q.pendingValid {
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
	if p.rearm(at) {
		p.eng.Schedule(at, p.pumpFn)
	}
}

// rearm records the next evaluation at at unless one is armed at or
// before it, reporting a change; inside pump it only records.
func (p *Port) rearm(at sim.Time) bool {
	if p.pumpScheduled && p.pumpAt <= at {
		return false
	}
	p.pumpScheduled = true
	p.pumpAt = at
	return true
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

// pump runs the scheduler evaluation armed for now, then, in the same
// event, each next one while it falls strictly before the engine's
// QuietUntil and fewer than DefaultTxTrain frames went out. Nothing
// else acts before then, so each evaluation sees what it would in its
// own event: a held frame is committed at max(launch, link free, rate
// ceilings) without an event. Telemetry windows, pause and link edges,
// probes on other queues, the ring room a sender sees and the run end
// are all events, so this one bound covers them. The bound is re-read
// after events the train schedules itself (an armed receive line its
// commits ring). Each evaluation is one train (endTrain).
func (p *Port) pump() {
	now := p.eng.Now()
	quiet, seen := p.eng.QuietUntil(), p.eng.LastSeq()
	sent := 0
	for {
		p.pumpScheduled = false
		sent += p.evaluate(now)
		if !p.pumpScheduled || sent >= DefaultTxTrain {
			break
		}
		if s := p.eng.LastSeq(); s != seen {
			quiet, seen = p.eng.QuietUntil(), s
		}
		if p.pumpAt >= quiet {
			break
		}
		p.endTrain()
		now = p.pumpAt
	}
	if p.pumpScheduled {
		p.eng.Schedule(p.pumpAt, p.pumpFn)
	}
	p.endTrain()
	p.returnSent()
}

// evaluate is one scheduler evaluation at now: it picks the next
// eligible frame across all queues (round-robin at equal times via
// queue index), honors per-queue rate limiters, the wire's
// serialization spacing, the runt-frame rate ceiling and the XL710's
// per-port packet ceiling, then emits the frame onto the link. It
// returns the frames sent and arms the next evaluation, if any.
//
// Descriptor fetch: after the first commit, the scheduler keeps
// emitting from the same queue — up to DefaultTxTrain frames — as long
// as it is the only active queue and unshaped, stamping each departure
// on the exact per-frame wire grid (serialization spacing plus the rate
// ceilings). Shaped queues and multi-queue arbitration points always
// end the train, which keeps the §7.2 shaper oscillation model
// untouched.
func (p *Port) evaluate(now sim.Time) int {
	if p.txPaused {
		return 0 // gated (PauseTx): frames wait in the rings
	}
	if p.link == nil {
		return 0 // unconnected port: frames pile up in the rings
	}
	if !p.pumpStep(now) {
		return 0
	}
	// Train continuation: same-queue burst on the pure wire grid. The
	// horizon bounds how much wire time one train may pre-commit, so a
	// frame enqueued on another queue mid-train (a latency probe during
	// a flood) waits no longer than it would behind one large frame
	// under the per-packet scheduler.
	//
	// A held frame (TxMeta.LaunchAt after now) is never committed
	// early: to the train it is not on the ring yet, exactly as if its
	// sender had pushed it at launch time.
	emitted := 1
	horizon := now.Add(sim.Duration(DefaultTxTrain) * p.minFrameTime)
	soleQueue := len(p.txQueues) == 1 // no arbitration possible: skip the rescan
	for emitted < DefaultTxTrain {
		var sole *TxQueue
		if soleQueue {
			if m, ok := p.txQueues[0].ring.Peek(); ok && !held(m, now) {
				sole = p.txQueues[0]
			}
		} else {
			var multi bool
			sole, multi = p.soleActiveQueue(now)
			if multi {
				// Arbitration: its own evaluation.
				p.rearm(p.txSlot(now))
				return emitted
			}
		}
		if sole != nil && sole.interval != 0 {
			// Shaping: its own evaluation.
			p.rearm(p.txSlot(now))
			return emitted
		}
		if sole == nil {
			// Rings drained, or only held frames left: pumpStep arms
			// the evaluation of the earliest one, the next Send kicks
			// us for anything else.
			p.pumpStep(now)
			return emitted
		}
		m, _ := sole.ring.Peek()
		start := p.applyRateCeilings(m, p.txSlot(now))
		if start > horizon {
			p.rearm(start)
			return emitted
		}
		m, _ = sole.ring.Pop()
		sole.advance()
		p.served(sole)
		p.transmitFrameAt(sole, m, start)
		emitted++
	}
	p.rearm(p.txSlot(now))
	return emitted
}

// txSlot is the earliest wire start for an evaluation at now.
func (p *Port) txSlot(now sim.Time) sim.Time { return max(p.link.NextTxSlot(), now) }

// soleActiveQueue returns the only TX queue with a frame sendable at
// now, or multi=true when more than one queue is active. A queue whose
// head is held is not active.
func (p *Port) soleActiveQueue(now sim.Time) (sole *TxQueue, multi bool) {
	for _, q := range p.txQueues {
		if m, ok := q.ring.Peek(); !ok || held(m, now) {
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
//
// A held head is eligible at its launch time, so the pump arms
// straight at the frame's start, max(launch, link free), under the
// rate ceilings. A shaper sees a held frame only from that evaluation
// on.
func (p *Port) pumpStep(now sim.Time) bool {
	// Scan queues starting after the last served one: equal-eligibility
	// queues share the wire round-robin, as the hardware arbiter does.
	var best *TxQueue
	var bestAt sim.Time
	i := p.rrNext
	for range p.txQueues {
		q := p.txQueues[i]
		if i++; i == len(p.txQueues) {
			i = 0
		}
		m, ok := q.ring.Peek()
		if !ok {
			continue
		}
		at := m.TxMeta.LaunchAt
		if !held(m, now) {
			at = q.eligibleAt(now)
		}
		if best == nil || at < bestAt {
			best = q
			bestAt = at
		}
	}
	if best == nil {
		return false // idle; the next Send kicks us again
	}

	m, _ := best.ring.Peek()
	start := p.applyRateCeilings(m, max(bestAt, p.txSlot(now)))
	if start > now {
		p.rearm(start)
		return false
	}

	// Commit: dequeue and transmit.
	m, _ = best.ring.Pop()
	best.advance()
	p.served(best)
	p.transmitFrameAt(best, m, start)
	return true
}

// served moves the round-robin scan start past q, the queue just
// served (a wrap without a division: pumpStep runs per frame).
func (p *Port) served(q *TxQueue) {
	if p.rrNext = q.id + 1; p.rrNext == len(p.txQueues) {
		p.rrNext = 0
	}
}

// transmitFrameAt performs the DMA fetch (checksum offloads), MAC-level
// timestamp latch and wire emission for one buffer at the exact wire
// instant start (≥ now: train frames after the first are future-stamped
// on the serialization grid), then queues the buffer's recycling at
// transmit completion.
func (p *Port) transmitFrameAt(q *TxQueue, m *mempool.Mbuf, start sim.Time) {
	data := m.Payload()

	// Checksum offload engine: executed when the hardware fetches the
	// descriptor, on plain Ethernet/IPv4 framing.
	meta := &m.TxMeta
	const l2 = proto.EthHdrLen
	if meta.OffloadIPChecksum && len(data) >= l2+proto.IPv4HdrLen {
		proto.IPv4Hdr(data[l2:]).CalcChecksum()
	}
	if (meta.OffloadUDPChecksum || meta.OffloadTCPChecksum) && len(data) >= l2+proto.IPv4HdrLen {
		ip := proto.IPv4Hdr(data[l2:])
		l3 := ip.HdrLen()
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

	// A frame the receiving MAC drops unread (bad FCS, runt) carries
	// only its length and FCS verdict: no copy of the CRC-gap fillers.
	f := p.link.AcquireFrame()
	f.WireSize = m.Len + proto.FCSLen
	f.CRCOK = !meta.InvalidCRC
	if f.Valid() {
		f.Data = append(f.Data, data...)
	}
	busyUntil := p.link.TransmitAt(f, start)
	p.lastTxStart = start
	p.hasTxStart = true

	p.stats.TxPackets++
	p.stats.TxBytes += uint64(m.Len)

	if p.txTrace != nil {
		p.txTrace(q, m, start)
	}

	// The NIC owns the buffer until the frame has left the wire.
	p.sent = append(p.sent, mempool.Sent{M: m})
	p.trainEnd = busyUntil
}

// endTrain dates the running evaluation's buffers by its completion
// event: at the last frame's wire end, right after the latest Schedule
// call.
func (p *Port) endTrain() {
	arm := p.eng.LastSeq()
	for i := p.trainStart; i < len(p.sent); i++ {
		p.sent[i].At, p.sent[i].Arm = p.trainEnd, arm
	}
	p.trainStart = len(p.sent)
}

// returnSent hands the pump event's buffers to their pools, one FreeAt
// per run of same-pool buffers.
func (p *Port) returnSent() {
	for i := 0; i < len(p.sent); {
		pool := p.sent[i].M.Pool()
		j := i + 1
		for j < len(p.sent) && p.sent[j].M.Pool() == pool {
			j++
		}
		pool.FreeAt(p.sent[i:j], p.eng)
		i = j
	}
	clear(p.sent)
	p.sent, p.trainStart = p.sent[:0], 0
}
