package nic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/ptpclk"
	"repro/internal/sim"
	"repro/internal/wire"
)

// refBed is the datapath oracle: a per-frame event model of the MAC
// scheduler, the link and receive admission, written without the
// NIC's event-saving machinery. Every scheduler evaluation is an event
// of its own (no held-frame trains bounded by QuietUntil), every sent
// buffer goes back to its pool in a completion event of its own (no
// lazy FreeAt), and every frame is admitted in a delivery event at its
// receive instant (no pull).
//
// What it keeps is the modelled hardware. An evaluation fetches up to
// DefaultTxTrain descriptors of the sole unshaped queue with a
// sendable head onto the wire grid, and their buffers complete when
// the last of them leaves the wire: senders see the fetch as ring room
// and pool level. Everything about a frame — the ring slot, the TX
// timestamp latch, the down-link drop, the jitter draw — is decided
// when it is fetched. It shares only formulas with the NIC:
// wire.FrameTime, the PHY's path latency and jitter stream, the
// shaper's oscillation draw and the frame classifiers (PTP filter and
// RSS hash, pure functions of the bytes).
type refBed struct {
	eng      *sim.Engine
	prof     Profile
	phy      wire.PHYProfile
	depart   func(*mempool.Mbuf, sim.Time)
	classify *Port // only its PTP filter and RSS hash are used

	// MAC scheduler.
	txq       []*refTxQueue
	shaped    int
	rr        int
	paused    bool
	armed     bool // an evaluation is pending at armedAt
	armedAt   sim.Time
	started   bool
	lastStart sim.Time
	runtGap   sim.Duration
	portGap   sim.Duration
	fetched   []*mempool.Mbuf // the running evaluation's buffers

	// Link a->b.
	busyUntil sim.Time
	pathLat   sim.Duration
	jitter    *rand.Rand
	lastRx    sim.Time
	down      bool
	inFlight  []*refFrame
	wireDrop  uint64

	// Receive side of port b.
	rxq    [][]*mempool.Mbuf
	rxCap  int
	rxPool *mempool.Pool
	tsOn   bool

	clocks     [2]*ptpclk.Clock // port a, port b
	tx, rx     Stats
	txTS, rxTS refLatch
}

type refTxQueue struct {
	id        int
	ring      []*mempool.Mbuf
	cap       int
	interval  sim.Duration // shaper period (0: line rate)
	anomalous bool
	next      sim.Time // the shaper's ideal grid
	due       sim.Time // drawn departure of the head
	drawn     bool
}

type refFrame struct {
	data     []byte
	wireSize int
	crcOK    bool
	dropped  bool
}

type refLatch struct {
	valid bool
	ts    sim.Time
	seq   uint16
}

func newRefBed(eng *sim.Engine, c dpCase, depart func(*mempool.Mbuf, sim.Time)) dpBed {
	p := c.profile
	r := &refBed{
		eng: eng, prof: p, phy: c.phy, depart: depart,
		classify: &Port{profile: p, tsUDPPort: proto.PTPUDPPort, rxQueues: make([]*RxQueue, c.rxQueues)},
		pathLat:  c.phy.PathLatency(2),
		rxq:      make([][]*mempool.Mbuf, c.rxQueues),
		rxCap:    c.rxRing,
		tsOn:     c.ptpEvery > 0,
	}
	// The NIC draws each port's timestamp phase, then derives the
	// link's jitter stream: the same draws in the same order.
	for i := range r.clocks {
		phase := 0.0
		if p.TimestampPhaseStepNS > 0 {
			phase = float64(eng.Rand().Intn(int(p.TimestampTickNS/p.TimestampPhaseStepNS))) * p.TimestampPhaseStepNS
		}
		r.clocks[i] = ptpclk.New(eng, ptpclk.Config{TickNS: p.TimestampTickNS, PhaseNS: phase,
			DriftPPM: c.drift[i], ReadOutlierProb: 0.05})
	}
	r.jitter = eng.NewRand()
	if p.RuntMaxPPS > 0 {
		r.runtGap = sim.FromSeconds(1 / p.RuntMaxPPS)
	}
	if p.PortMaxPPS > 0 {
		r.portGap = sim.FromSeconds(1 / p.PortMaxPPS)
	}
	for i := 0; i < c.txQueues; i++ {
		q := &refTxQueue{id: i, cap: c.txRing}
		if i < len(c.rates) && c.rates[i] > 0 {
			q.interval = sim.FromSeconds(1 / c.rates[i])
			q.anomalous = p.RateAnomalyPPS > 0 && c.rates[i] > p.RateAnomalyPPS
			r.shaped++
		}
		r.txq = append(r.txq, q)
	}
	rxPool := c.rxPool
	if rxPool == 0 {
		rxPool = 4096 // the port default
	}
	r.rxPool = mempool.New(mempool.Config{Count: rxPool})
	return r
}

func (r *refBed) txSlot(now sim.Time) sim.Time { return max(r.busyUntil, now) }

// send writes a descriptor and asks for an evaluation now, unless one
// is pending no later than the wire's next free slot on an unshaped
// port: nothing can start before that slot anyway.
func (r *refBed) send(qi int, m *mempool.Mbuf) bool {
	q := r.txq[qi]
	if len(q.ring) == q.cap {
		return false
	}
	q.ring = append(q.ring, m)
	now := r.eng.Now()
	if !r.paused && !(r.shaped == 0 && r.armed && r.armedAt <= r.txSlot(now)) {
		r.arm(now)
	}
	return true
}

// arm schedules an evaluation at at; a pending earlier or equal one
// covers it, a later one is superseded.
func (r *refBed) arm(at sim.Time) {
	if r.armed && r.armedAt <= at {
		return
	}
	r.armed, r.armedAt = true, at
	r.eng.Schedule(at, r.evaluate)
}

// pick is the arbiter: the queue whose head may leave first (shaper
// or launch time), round-robin from the last served queue at ties.
func (r *refBed) pick(now sim.Time) (*refTxQueue, sim.Time) {
	var best *refTxQueue
	var bestAt sim.Time
	for i := range r.txq {
		q := r.txq[(r.rr+i)%len(r.txq)]
		if len(q.ring) == 0 {
			continue
		}
		at := q.ring[0].TxMeta.LaunchAt
		if !held(q.ring[0], now) {
			at = q.eligible(now, r.eng.Rand())
		}
		if best == nil || at < bestAt {
			best, bestAt = q, at
		}
	}
	return best, bestAt
}

// eligible is the shaper: the head's departure on the rate grid plus
// the §7.2 oscillation, drawn once per head.
func (q *refTxQueue) eligible(now sim.Time, rng *rand.Rand) sim.Time {
	if q.interval == 0 {
		return now
	}
	if !q.drawn {
		q.next = max(q.next, now)
		at := q.next.Add(drawHWOscillation(rng))
		if q.anomalous {
			stretch := 1.0 + rng.Float64()*0.8
			at = q.next.Add(sim.Duration(float64(q.interval) * (stretch - 1.0)))
		}
		q.due, q.drawn = max(at, now), true
	}
	return q.due
}

// ceilings delays start to the port's packet-rate ceilings.
func (r *refBed) ceilings(m *mempool.Mbuf, start sim.Time) sim.Time {
	gap := r.portGap
	if m.Len+proto.FCSLen < proto.MinFrameSizeFCS {
		gap = max(gap, r.runtGap)
	}
	if r.started && gap > 0 && start < r.lastStart.Add(gap) {
		return r.lastStart.Add(gap)
	}
	return start
}

// evaluate is one scheduler event: commit the picked head if it may
// start now, then fetch on (see refBed), then date the fetched
// buffers' completions.
func (r *refBed) evaluate() {
	now := r.eng.Now()
	if !r.armed || r.armedAt != now {
		return // superseded
	}
	r.armed = false
	if r.paused {
		return
	}
	q, at := r.pick(now)
	if q == nil {
		return
	}
	start := r.ceilings(q.ring[0], max(at, r.txSlot(now)))
	if start > now {
		r.arm(start)
		return
	}
	r.commit(q, start)
	r.fetch(now)
	for _, m := range r.fetched {
		r.eng.Schedule(r.busyUntil, m.Free)
	}
	r.fetched = r.fetched[:0]
}

// fetch extends an evaluation at now that committed a frame: the sole
// unshaped queue with a sendable head keeps going out back to back,
// up to DefaultTxTrain frames starting within as many minimum frame
// times. It arms the next evaluation.
func (r *refBed) fetch(now sim.Time) {
	horizon := now.Add(DefaultTxTrain * wire.FrameTime(r.prof.Speed, proto.MinFrameSizeFCS))
	for n := 1; n < DefaultTxTrain; n++ {
		var sole *refTxQueue
		active := 0
		for _, q := range r.txq {
			if len(q.ring) > 0 && !held(q.ring[0], now) {
				sole, active = q, active+1
			}
		}
		switch {
		case active == 0:
			if q, at := r.pick(now); q != nil {
				r.arm(r.ceilings(q.ring[0], max(at, r.txSlot(now))))
			}
			return
		case active > 1 || sole.interval != 0:
			r.arm(r.txSlot(now))
			return
		}
		start := r.ceilings(sole.ring[0], r.txSlot(now))
		if start > horizon {
			r.arm(start)
			return
		}
		r.commit(sole, start)
	}
	r.arm(r.txSlot(now))
}

// commit sends q's head at start: ring slot, shaper grid, TX latch,
// counters, then the wire — dropped on a down link, otherwise on its
// way to a delivery event at its receive instant.
func (r *refBed) commit(q *refTxQueue, start sim.Time) {
	m := q.ring[0]
	q.ring = q.ring[1:]
	q.drawn = false
	if q.interval > 0 {
		q.next = q.next.Add(q.interval)
	}
	r.rr = (q.id + 1) % len(r.txq)
	r.started, r.lastStart = true, start
	data := m.Payload()
	if m.TxMeta.Timestamp && !r.txTS.valid {
		if seq, ok := r.classify.classifyPTP(data); ok {
			r.txTS = refLatch{true, r.clocks[0].TimestampAt(start), seq}
		}
	}
	r.busyUntil = start.Add(wire.FrameTime(r.prof.Speed, m.Len+proto.FCSLen))
	r.tx.TxPackets++
	r.tx.TxBytes += uint64(m.Len)
	r.depart(m, start)
	r.fetched = append(r.fetched, m)
	if r.down {
		r.wireDrop++
		return
	}
	at := max(start.Add(r.pathLat+r.jitterDraw()), r.lastRx)
	r.lastRx = at
	f := &refFrame{data: slices.Clone(data), wireSize: m.Len + proto.FCSLen, crcOK: !m.TxMeta.InvalidCRC}
	r.inFlight = append(r.inFlight, f)
	r.eng.Schedule(at, func() { r.deliver(f, at) })
}

// jitterDraw is the PHY's receive-timestamp jitter (§6.1) from the
// link's stream.
func (r *refBed) jitterDraw() sim.Duration {
	p, rng := r.phy, r.jitter
	switch {
	case p.SmallJitterNS == 0:
		return 0
	case p.LargeJitterPct > 0 && rng.Float64() < p.LargeJitterPct:
		return sim.FromNanoseconds(rng.Float64()*p.RangeNS - p.RangeNS/2)
	}
	return sim.FromNanoseconds(rng.Float64()*2*p.SmallJitterNS - p.SmallJitterNS)
}

// deliver admits one frame at its receive instant: FCS and length
// check, PTP latch, RSS, a receive buffer, a ring slot.
func (r *refBed) deliver(f *refFrame, at sim.Time) {
	if f.dropped {
		return
	}
	r.inFlight = r.inFlight[1:]
	if !f.crcOK || f.wireSize < proto.MinFrameSizeFCS {
		r.rx.RxCRCErrors++
		return
	}
	r.rx.RxPackets++
	r.rx.RxBytes += uint64(len(f.data))
	if seq, ok := r.classify.classifyPTP(f.data); r.tsOn && ok && !r.rxTS.valid {
		r.rxTS = refLatch{true, r.clocks[1].TimestampAt(at), seq}
	}
	qi := r.classify.rssQueue(f.data)
	m := r.rxPool.Alloc(len(f.data))
	if m == nil {
		r.rx.RxMissed++
		return
	}
	copy(m.Data, f.data)
	m.RxMeta.Queue, m.RxMeta.Arrival = qi, int64(at)
	if r.prof.TimestampAllRx {
		m.RxMeta.Timestamp, m.RxMeta.HasTimestamp = int64(r.clocks[1].TimestampAt(at)), true
	}
	if len(r.rxq[qi]) == r.rxCap {
		r.rx.RxMissed++
		m.Free()
		return
	}
	r.rxq[qi] = append(r.rxq[qi], m)
}

func (r *refBed) txFree(q int) int                  { return r.txq[q].cap - len(r.txq[q].ring) }
func (r *refBed) txStamp() (sim.Time, uint16, bool) { return r.txTS.read() }
func (r *refBed) rxStamp() (sim.Time, uint16, bool) { return r.rxTS.read() }
func (r *refBed) rxBufs(n int) *mempool.BufArray    { return r.rxPool.BufArray(n) }

func (l *refLatch) read() (sim.Time, uint16, bool) {
	v := *l
	l.valid = false
	return v.ts, v.seq, v.valid
}

func (r *refBed) recv(qi int, out []*mempool.Mbuf) int {
	n := copy(out, r.rxq[qi])
	r.rxq[qi] = r.rxq[qi][n:]
	return n
}

func (r *refBed) setPaused(paused bool) {
	resume := r.paused && !paused
	r.paused = paused
	if resume {
		r.arm(r.eng.Now())
	}
}

// setDown drops every frame in flight; frames fetched while the link
// is down die at the wire.
func (r *refBed) setDown(down bool) {
	if down && !r.down {
		for _, f := range r.inFlight {
			f.dropped = true
		}
		r.wireDrop += uint64(len(r.inFlight))
		r.inFlight = nil
	}
	r.down = down
}

func (r *refBed) end() dpEnd {
	return dpEnd{tx: r.tx, rx: r.rx, wireDrop: r.wireDrop, rxAvail: r.rxPool.Available()}
}

// TestDatapathMatchesOracle runs random set-ups through the NIC and the
// oracle and requires the same log and registers from both: every
// departure, receive instant, queue and drop, every ring-room, pool
// and timestamp-latch observation, every counter and the final pool
// levels.
func TestDatapathMatchesOracle(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 100
	}
	rng := rand.New(rand.NewSource(29))
	for i := range n {
		c := randomDpCase(rng, i)
		var want, got strings.Builder
		we := runDatapathCase(&want, c, newRefBed)
		ge := runDatapathCase(&got, c, newNICBed)
		if diff := firstDiff(got.String(), want.String()); diff != "" || ge != we {
			t.Fatalf("%s: the NIC differs from the oracle: %s\n nic %+v\nwant %+v", c.name, diff, ge, we)
		}
	}
}

// randomDpCase draws a set-up over the datapath's parameters: chip,
// queues, ring and pool sizes, frame sizes and bad FCSs, offered rate
// and launch-ahead depth, shapers, drain pace, PTP probes, PHY jitter,
// clock drift, a pause window and a link flap.
func randomDpCase(rng *rand.Rand, i int) dpCase {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	ns := func(lo, hi int) sim.Duration { return sim.Duration(lo+rng.Intn(hi-lo+1)) * sim.Nanosecond }
	c := dpCase{
		profile:    []Profile{ChipX540, Chip82599, ChipXL710, Chip82580}[rng.Intn(4)],
		txQueues:   1 + rng.Intn(4),
		rxQueues:   1 + rng.Intn(3),
		ahead:      1 + rng.Intn(40),
		pool:       8 + rng.Intn(300),
		txRing:     pick(8, 16, 64, 256),
		rxRing:     pick(4, 16, 64, 512),
		drainPoll:  ns(300, 6000),
		drainBurst: 1 + rng.Intn(64),
		sizes:      []int{pick(60, 60, 124, 1000)},
		seed:       int64(i),
	}
	if rng.Intn(3) == 0 {
		c.sizes = append(c.sizes, pick(48, 60, 252))
	}
	if rng.Intn(4) == 0 {
		c.badEvery = 3 + rng.Intn(20)
	}
	line := wire.LineRatePPS(c.profile.Speed, 64) / 1e6
	if rng.Intn(2) == 0 {
		c.mpps = line * []float64{0.25, 0.5, 1, 4.0 / 3}[rng.Intn(4)] // slots on round instants
	} else {
		c.mpps = line * (0.1 + 1.4*rng.Float64())
	}
	c.run = sim.Duration(float64(50+rng.Intn(250)) / c.mpps * float64(sim.Microsecond))
	c.phy = []wire.PHYProfile{wire.PHY10GBaseSR, wire.PHY10GBaseT}[rng.Intn(2)]
	if c.profile.Speed == wire.Speed1G {
		c.phy = wire.PHY1GBaseT
	}
	if rng.Intn(2) == 0 {
		// Drains on the slot grid shifted by the path latency: frames
		// arrive exactly at drain instants.
		c.drainPoll = sim.FromSeconds(1/(c.mpps*1e6)) * sim.Duration(1+rng.Intn(40))
		c.drainAt = c.drainPoll + c.phy.PathLatency(2)
	}
	if c.profile.HWRateControl {
		for range c.txQueues {
			if rng.Intn(3) == 0 {
				c.rates = append(c.rates, 0.3e6+rng.Float64()*11e6)
			} else {
				c.rates = append(c.rates, 0)
			}
		}
	}
	if rng.Intn(3) == 0 {
		c.rxPool = 4 + rng.Intn(600)
	}
	if c.txQueues > 1 && rng.Intn(3) == 0 {
		c.ptpEvery = 2 + rng.Intn(40)
	}
	if rng.Intn(3) == 0 {
		c.drift = [2]float64{rng.Float64()*100 - 50, rng.Float64()*100 - 50}
	}
	if rng.Intn(3) == 0 {
		c.pauseAt, c.pauseFor = ns(1, int(c.run/sim.Nanosecond)), ns(10, 5000)
	}
	if rng.Intn(3) == 0 {
		c.flapAt, c.flapFor = ns(1, int(c.run/sim.Nanosecond)), ns(10, 5000)
	}
	c.name = fmt.Sprintf("random-%d(%s q=%d/%d %.2fMpps ahead=%d pool=%d rings=%d/%d rxpool=%d sizes=%v bad=%d rates=%v ptp=%d drain=%v/%d pause=%v+%v flap=%v+%v)",
		i, c.profile.Name, c.txQueues, c.rxQueues, c.mpps, c.ahead, c.pool, c.txRing, c.rxRing, c.rxPool,
		c.sizes, c.badEvery, c.rates, c.ptpEvery, c.drainPoll, c.drainBurst, c.pauseAt, c.pauseFor, c.flapAt, c.flapFor)
	return c
}
