package nic

import (
	"fmt"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/ptpclk"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Stats is a snapshot of the port's hardware statistics registers.
type Stats struct {
	TxPackets uint64
	TxBytes   uint64 // frame bytes without FCS, as DPDK reports
	RxPackets uint64
	RxBytes   uint64
	// RxCRCErrors counts frames dropped for a bad FCS or illegal
	// length — "the NIC only increments an error counter" (§8.1).
	RxCRCErrors uint64
	// RxMissed counts frames dropped because the receive queue was
	// full (the DuT's NIC-level drop counter under overload).
	RxMissed uint64
}

// Port is one network interface of a NIC: up to Profile.MaxQueues
// transmit and receive queues, a PTP clock, timestamp latch registers
// and statistics registers. A Port is also a wire.Endpoint: connect two
// ports with Connect.
type Port struct {
	eng     *sim.Engine
	profile Profile
	mac     proto.MAC

	Clock *ptpclk.Clock

	txQueues []*TxQueue
	rxQueues []*RxQueue
	link     *wire.Link // outgoing side

	// rxPool backs the receive buffers: every frame received into a
	// payload queue takes one and the receiver's free returns it. The
	// pool is created on first use: TX-only ports (the generators, a
	// hooked DuT port) and ports with only count-only queues never pay
	// for zeroing a receive slab they will not touch.
	rxPool     *mempool.Pool
	rxPoolSize int

	// stats holds the statistics registers: plain counters the
	// datapath increments per packet. Only the port's engine touches
	// them, so CounterSnapshot (called from an event or process on that
	// engine) sees every increment made before it.
	stats Stats

	// PTP timestamping configuration and latch registers. The
	// datasheet semantics are preserved: one latch per direction, and
	// it "must be read back before a new packet can be timestamped"
	// (§6) — while the latch is occupied further timestamps are lost.
	tsEnabled bool
	tsUDPPort uint16

	txTSValid bool
	txTS      sim.Time
	txTSSeq   uint16

	rxTSValid bool
	rxTS      sim.Time
	rxTSSeq   uint16

	// MAC scheduler state (see txqueue.go). pumpScheduled/pumpAt
	// track the earliest pending evaluation; later duplicates fire
	// harmlessly. pumpFn is the prebound event callback so arming an
	// evaluation allocates nothing.
	pumpScheduled bool
	pumpAt        sim.Time
	pumpFn        func()
	txPaused      bool // MAC scheduler gated (PFC-style backpressure)
	rrNext        int
	lastTxStart   sim.Time
	hasTxStart    bool
	minFrameTime  sim.Duration // wire time of a minimum frame (train horizon unit)
	shaped        int          // queues with an active rate limiter (see kickPump)
	runtMinGap    sim.Duration // precomputed 1/RuntMaxPPS (0 = no ceiling)
	portMinGap    sim.Duration // precomputed 1/PortMaxPPS (0 = no ceiling)

	// sent holds the buffers this pump event sent, those from
	// trainStart on by the running evaluation, the last of which leaves
	// the wire at trainEnd (endTrain).
	sent       []mempool.Sent
	trainStart int
	trainEnd   sim.Time

	in *wire.Link // the link into the port (PullRx)

	// txTrace, when set, observes every departure commit with its
	// exact wire start instant (tests pin the batched scheduler's
	// timing grid through this).
	txTrace func(q *TxQueue, m *mempool.Mbuf, wireStart sim.Time)

	// onDeliver, when set, intercepts valid received frames before
	// queue steering (used by the DuT model for custom processing).
	onDeliver func(f *wire.Frame, rxTime sim.Time) bool
}

// PortConfig configures a port at creation.
type PortConfig struct {
	Profile  Profile
	ID       int
	MAC      proto.MAC
	RxQueues int
	TxQueues int
	// RxPoolSize is the number of receive buffers (default 4096).
	RxPoolSize int
	// TxRingSize is the per-queue descriptor ring size (default 1024,
	// DPDK's usual default).
	TxRingSize int
	// RxRingSize is the per-queue receive ring size (default 512).
	RxRingSize int
	// ClockDriftPPM desynchronizes this port's PTP clock rate.
	ClockDriftPPM float64
}

// NewPort creates a port. It mirrors MoonGen's device.config(port,
// rxQueues, txQueues).
func NewPort(eng *sim.Engine, cfg PortConfig) *Port {
	if cfg.RxQueues <= 0 {
		cfg.RxQueues = 1
	}
	if cfg.TxQueues <= 0 {
		cfg.TxQueues = 1
	}
	if cfg.RxQueues > cfg.Profile.MaxQueues || cfg.TxQueues > cfg.Profile.MaxQueues {
		panic(fmt.Sprintf("nic: %s supports %d queues, requested %d/%d",
			cfg.Profile.Name, cfg.Profile.MaxQueues, cfg.RxQueues, cfg.TxQueues))
	}
	if cfg.RxPoolSize <= 0 {
		cfg.RxPoolSize = 4096
	}
	if cfg.TxRingSize <= 0 {
		cfg.TxRingSize = 1024
	}
	if cfg.RxRingSize <= 0 {
		cfg.RxRingSize = 512
	}
	if cfg.MAC == (proto.MAC{}) {
		cfg.MAC = proto.MAC{0x02, 0x00, 0x00, 0x00, 0x00, byte(cfg.ID)}
	}
	phase := 0.0
	if cfg.Profile.TimestampPhaseStepNS > 0 {
		// "k is a constant that varies between resets" (§6.1).
		steps := int(cfg.Profile.TimestampTickNS / cfg.Profile.TimestampPhaseStepNS)
		phase = float64(eng.Rand().Intn(steps)) * cfg.Profile.TimestampPhaseStepNS
	}
	p := &Port{
		eng:     eng,
		profile: cfg.Profile,
		mac:     cfg.MAC,
		Clock: ptpclk.New(eng, ptpclk.Config{
			TickNS:          cfg.Profile.TimestampTickNS,
			PhaseNS:         phase,
			DriftPPM:        cfg.ClockDriftPPM,
			ReadOutlierProb: 0.05,
		}),
		rxPoolSize:   cfg.RxPoolSize,
		tsUDPPort:    proto.PTPUDPPort,
		minFrameTime: wire.FrameTime(cfg.Profile.Speed, proto.MinFrameSizeFCS),
	}
	if cfg.Profile.RuntMaxPPS > 0 {
		p.runtMinGap = sim.FromSeconds(1 / cfg.Profile.RuntMaxPPS)
	}
	if cfg.Profile.PortMaxPPS > 0 {
		p.portMinGap = sim.FromSeconds(1 / cfg.Profile.PortMaxPPS)
	}
	p.pumpFn = p.pumpEvent
	p.Clock.SetSync(p.PullRx)
	for i := 0; i < cfg.TxQueues; i++ {
		p.txQueues = append(p.txQueues, newTxQueue(p, i, cfg.TxRingSize))
	}
	for i := 0; i < cfg.RxQueues; i++ {
		p.rxQueues = append(p.rxQueues, newRxQueue(p, i, cfg.RxRingSize))
	}
	return p
}

// Connect attaches an outgoing link toward peer with the given PHY and
// cable length; call it on both ports (with links in both directions)
// for a full-duplex connection. ConnectDuplex does both.
func (p *Port) Connect(l *wire.Link) { p.link = l }

// Link returns the port's outgoing link (nil when unconnected).
func (p *Port) Link() *wire.Link { return p.link }

// ConnectDuplex wires a<->b with identical PHY and cable length.
func ConnectDuplex(eng *sim.Engine, a, b *Port, phy wire.PHYProfile, lengthM float64) {
	if a.profile.Speed != b.profile.Speed {
		panic("nic: speed mismatch")
	}
	a.Connect(wire.NewLink(eng, a.profile.Speed, phy, lengthM, b))
	b.Connect(wire.NewLink(eng, b.profile.Speed, phy, lengthM, a))
	a.in, b.in = b.link, a.link
	a.in.SetCapacity(len(a.rxQueues) * a.rxQueues[0].size)
	b.in.SetCapacity(len(b.rxQueues) * b.rxQueues[0].size)
}

// PullRx takes the due frames off the link into the receive path. Every
// surface that observes receive state calls it first: RecvBurst,
// CounterSnapshot, ReadRxTimestamp, the receive pool (Pool.SetSync),
// clock steps (Clock.SetSync) and a deliver hook's owner.
func (p *Port) PullRx() {
	if p.in != nil {
		p.in.Pull()
	}
}

// ArmRx arms the RX interrupt line of the link into the port, which must
// be connected: fn runs once, at the first valid arrival from notBefore.
func (p *Port) ArmRx(notBefore sim.Time, fn func()) {
	if p.in == nil {
		panic("nic: ArmRx on a port with no link into it")
	}
	p.in.Arm(notBefore, fn)
}

// MAC returns the port's hardware address (ethSrc = queue in MoonGen
// scripts resolves to this).
func (p *Port) MAC() proto.MAC { return p.mac }

// Speed returns the link speed.
func (p *Port) Speed() wire.Speed { return p.profile.Speed }

// GetTxQueue returns transmit queue i.
func (p *Port) GetTxQueue(i int) *TxQueue { return p.txQueues[i] }

// GetRxQueue returns receive queue i.
func (p *Port) GetRxQueue(i int) *RxQueue { return p.rxQueues[i] }

// NumTxQueues returns the number of configured TX queues.
func (p *Port) NumTxQueues() int { return len(p.txQueues) }

// ensureRxPool creates the receive pool on first use: the first frame
// steered into a payload queue, or the first RxBufArray. Lazy creation
// is invisible to the simulation (pool construction draws no
// randomness and schedules no events); it only avoids allocating and
// zeroing megabytes of receive slab on ports that never receive into
// buffers: TX-only ports, and ports whose queues are all count-only
// (RxQueue.SetCountOnly).
func (p *Port) ensureRxPool() {
	if p.rxPool == nil {
		p.rxPool = mempool.New(mempool.Config{Count: p.rxPoolSize})
		p.rxPool.SetSync(p.PullRx)
	}
}

// RxPoolPeek returns the receive mempool without forcing its lazy
// creation — nil until the port first receives into a payload queue,
// and nil for good on a port whose queues are all count-only.
// Monitoring code samples through this so observing a TX-only
// port never materializes a receive slab it will not use.
func (p *Port) RxPoolPeek() *mempool.Pool { return p.rxPool }

// RxBufArray returns a burst wrapper over this port's receive pool for
// draining its receive queues; its FreeAll returns a burst to the
// pool. Size <= 0 selects the default batch size.
func (p *Port) RxBufArray(size int) *mempool.BufArray {
	p.ensureRxPool()
	return p.rxPool.BufArray(size)
}

// CounterSnapshot returns the statistics registers. It must be called
// on the port's engine (an event or process of it, or after its run
// returned): it pulls the due arrivals first, so every counter is
// exact as of the current instant. Sharded runs read each shard's
// ports on that shard's engine and merge after the join.
func (p *Port) CounterSnapshot() Stats {
	p.PullRx()
	return p.stats
}

// EnableTimestamps turns on the PTP filter (EtherType 0x88F7 and UDP
// port udpPort; 0 keeps the default 319).
func (p *Port) EnableTimestamps(udpPort uint16) {
	p.PullRx()
	p.tsEnabled = true
	if udpPort != 0 {
		p.tsUDPPort = udpPort
	}
}

// ReadTxTimestamp reads and clears the TX timestamp latch.
func (p *Port) ReadTxTimestamp() (ts sim.Time, seq uint16, ok bool) {
	if !p.txTSValid {
		return 0, 0, false
	}
	p.txTSValid = false
	return p.txTS, p.txTSSeq, true
}

// ReadRxTimestamp reads and clears the RX timestamp latch.
func (p *Port) ReadRxTimestamp() (ts sim.Time, seq uint16, ok bool) {
	p.PullRx()
	if !p.rxTSValid {
		return 0, 0, false
	}
	p.rxTSValid = false
	return p.rxTS, p.rxTSSeq, true
}

// SetDeliverHook installs an interceptor for valid received frames;
// returning true consumes the frame (skipping queue steering). The DuT
// model uses this to process packets without the full driver stack.
// The hook is a pulled consumer: it takes no event, and runs whenever
// the port pulls (PullRx), once per valid frame, in arrival order, with
// the frame's own rxTime. The frame is recycled by the link after the
// hook returns unless the hook calls Frame.Retain.
func (p *Port) SetDeliverHook(fn func(f *wire.Frame, rxTime sim.Time) bool) {
	p.PullRx()
	p.onDeliver = fn
}

// SetTxTrace installs an observer called at every departure commit
// with the frame's exact wire start instant — the probe tests use it
// to pin the batched scheduler's timing grid against the per-packet
// reference.
func (p *Port) SetTxTrace(fn func(q *TxQueue, m *mempool.Mbuf, wireStart sim.Time)) {
	p.txTrace = fn
}

// classifyPTP inspects a frame for the hardware timestamp filter:
// layer-2 PTP EtherType or UDP PTP on the configured port, with an
// event message type and version 2, subject to the 80-byte UDP minimum
// (§6.4).
func (p *Port) classifyPTP(data []byte) (seq uint16, match bool) {
	if len(data) < proto.EthHdrLen {
		return 0, false
	}
	eth := proto.EthHdr(data)
	switch eth.EtherType() {
	case proto.EtherTypePTP:
		ptp := proto.PTPHdr(data[proto.EthHdrLen:])
		if len(data) < proto.EthHdrLen+proto.PTPHdrLen {
			return 0, false
		}
		if ptp.Version() != proto.PTPVersion2 || !proto.IsTimestampedType(ptp.MessageType()) {
			return 0, false
		}
		return ptp.SequenceID(), true
	case proto.EtherTypeIPv4:
		if len(data) < proto.EthHdrLen+proto.IPv4HdrLen+proto.UDPHdrLen+proto.PTPHdrLen {
			return 0, false
		}
		ip := proto.IPv4Hdr(data[proto.EthHdrLen:])
		if ip.Protocol() != proto.IPProtoUDP {
			return 0, false
		}
		udp := proto.UDPHdr(data[proto.EthHdrLen+ip.HdrLen():])
		if udp.DstPort() != p.tsUDPPort {
			return 0, false
		}
		// "The investigated NICs refuse to timestamp UDP PTP packets
		// that are smaller than the expected packet size of 80 bytes."
		if len(data)+proto.FCSLen < p.profile.PTPMinUDPSize {
			return 0, false
		}
		ptp := proto.PTPHdr(udp.Payload())
		if ptp.Version() != proto.PTPVersion2 || !proto.IsTimestampedType(ptp.MessageType()) {
			return 0, false
		}
		return ptp.SequenceID(), true
	}
	return 0, false
}

// rssQueue steers a frame to a receive queue by hashing the IP/port
// 5-tuple (Receive Side Scaling, §3.3).
func (p *Port) rssQueue(data []byte) int {
	n := len(p.rxQueues)
	if n == 1 {
		return 0
	}
	var h uint32 = 2166136261
	mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	if len(data) >= proto.EthHdrLen+proto.IPv4HdrLen &&
		proto.EthHdr(data).EtherType() == proto.EtherTypeIPv4 {
		ip := data[proto.EthHdrLen:]
		for _, b := range ip[12:20] { // src+dst IP
			mix(b)
		}
		ihl := int(ip[0]&0x0f) * 4
		if len(data) >= proto.EthHdrLen+ihl+4 {
			for _, b := range ip[ihl : ihl+4] { // ports
				mix(b)
			}
		}
	} else {
		for i := 0; i < proto.EthHdrLen && i < len(data); i++ {
			mix(data[i])
		}
	}
	return int(h % uint32(n))
}

// DeliverFrame implements wire.Endpoint: the receive path of the port.
func (p *Port) DeliverFrame(f *wire.Frame, rxTime sim.Time) {
	// 1. PHY/MAC validation: frames with a bad FCS or an illegal
	// length are dropped before queue assignment; only an error
	// counter moves (§8.1) — the packet processing logic upstream
	// never sees them.
	if !f.Valid() {
		p.stats.RxCRCErrors++
		return
	}
	p.stats.RxPackets++
	p.stats.RxBytes += uint64(len(f.Data))

	// 2. PTP filter: latch the receive timestamp if the register is
	// free ("this register must be read back before a new packet can
	// be timestamped", §6).
	if p.tsEnabled {
		if seq, ok := p.classifyPTP(f.Data); ok && !p.rxTSValid {
			p.rxTSValid = true
			p.rxTS = p.Clock.TimestampAt(rxTime)
			p.rxTSSeq = seq
		}
	}

	if p.onDeliver != nil && p.onDeliver(f, rxTime) {
		return
	}

	// 3. Steer into a receive queue, drop (missed) when pool or ring is
	// full. A count-only queue takes the length alone: no buffer, no
	// copy.
	q := p.rxQueues[p.rssQueue(f.Data)]
	if q.countOnly {
		q.deliverLen(len(f.Data))
		return
	}
	p.ensureRxPool()
	m := p.rxPool.Alloc(len(f.Data))
	if m == nil {
		p.stats.RxMissed++
		return
	}
	copy(m.Data, f.Data)
	m.RxMeta.Queue = q.id
	// Arrival is the PHY-level receive instant every descriptor carries
	// out of band — what a busy-polling driver derives its software
	// receive timestamps from. The flow layer computes inter-arrival
	// and stamped latencies from it, independent of the poll cadence.
	m.RxMeta.Arrival = int64(rxTime)
	if p.profile.TimestampAllRx {
		// 82580: hardware timestamps every packet (§6), quantized to
		// the chip's 64 ns granularity.
		m.RxMeta.Timestamp = int64(p.Clock.TimestampAt(rxTime))
		m.RxMeta.HasTimestamp = true
	}
	q.deliver(m)
}
