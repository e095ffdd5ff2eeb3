// Package wire models Ethernet links: line-rate serialization with
// preamble/IFG accounting, cable propagation delay, PHY modulation
// constants, and the timestamp-relevant quirks of fiber (10GBASE-SR)
// versus copper (10GBASE-T) PHYs from the paper's Table 3.
//
// A link has one delivery mode, pull: frames wait in flight until the
// endpoint observes its receive state and calls Pull, which hands over
// every frame due by then with its exact receive instant. A frame
// exactly at the observing instant is due when it was committed before
// the observing event was scheduled (sim.Engine.Due). An endpoint that
// must react to an arrival arms the link's receive line (Arm).
package wire

import (
	"fmt"
	"math/rand"

	"repro/internal/proto"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Speed is a link speed in bits per second.
type Speed float64

// Link speeds used in the paper.
const (
	Speed1G  Speed = 1e9
	Speed10G Speed = 10e9
	Speed40G Speed = 40e9
)

// ByteTime returns the serialization time of one byte at the given
// speed: 8 ns at 1 GbE, 0.8 ns at 10 GbE, 0.2 ns at 40 GbE. These are
// exact in picoseconds.
func ByteTime(s Speed) sim.Duration {
	return sim.Duration(float64(8*sim.Second) / float64(s))
}

// FrameTime returns the wire occupancy of a frame of the given size
// (size includes the FCS, per the paper's convention: 64 B minimum),
// including preamble, SFD and inter-frame gap.
func FrameTime(s Speed, frameSize int) sim.Duration {
	return sim.Duration(frameSize+proto.WireOverhead) * ByteTime(s)
}

// LineRatePPS returns the maximum packet rate for the frame size
// (with FCS): 14.88 Mpps for 64 B at 10 GbE.
func LineRatePPS(s Speed, frameSize int) float64 {
	return float64(s) / 8 / float64(frameSize+proto.WireOverhead)
}

// SpeedOfLight is the vacuum speed of light in meters per nanosecond.
const SpeedOfLight = 0.299792458

// PHYProfile captures a PHY's latency behaviour as measured in Table 3.
type PHYProfile struct {
	Name string

	// ModulationNS is the constant (de)modulation time k of the full
	// path (both PHYs of a link), in nanoseconds: 310.7 for the
	// 82599's 10GBASE-SR fiber path, 2147.2 for the X540's 10GBASE-T
	// path — higher "due to the more complex line code required for
	// 10GBASE-T".
	ModulationNS float64

	// VP is the cable propagation speed as a fraction of c: 0.72 for
	// the OM3 fiber, 0.69 for Cat 5e copper.
	VP float64

	// RxJitter models the 10GBASE-T block code (§6.1): the PHY's
	// 3200-bit layer-1 frames introduce receive-timestamp variance.
	// More than 99.5% of measurements land within ±SmallJitterNS of
	// the median, the min-max range is RangeNS. Zero disables jitter
	// (fiber shows none).
	SmallJitterNS  float64
	RangeNS        float64
	LargeJitterPct float64 // fraction of samples drawing the large jitter
}

// Predefined PHY profiles from the paper's testbed.
var (
	// PHY10GBaseSR is the fiber path: 82599 + 10GBASE-SR SFP+ modules
	// and OM3 multimode fiber. No observable timestamp jitter.
	PHY10GBaseSR = PHYProfile{
		Name:         "10GBASE-SR",
		ModulationNS: 310.7,
		VP:           0.72,
	}
	// PHY10GBaseT is the copper path: X540 with Cat 5e. The block
	// code adds jitter: >99.5% within ±6.4 ns, 64 ns min-max range.
	PHY10GBaseT = PHYProfile{
		Name:           "10GBASE-T",
		ModulationNS:   2147.2,
		VP:             0.69,
		SmallJitterNS:  6.4,
		RangeNS:        64,
		LargeJitterPct: 0.004,
	}
	// PHY1GBaseT is the 82580 GbE copper path used for inter-arrival
	// measurements.
	PHY1GBaseT = PHYProfile{
		Name:         "1000BASE-T",
		ModulationNS: 900,
		VP:           0.69,
	}
)

// PropagationDelay returns l/vp for a cable of the given length.
func (p PHYProfile) PropagationDelay(lengthM float64) sim.Duration {
	return sim.FromNanoseconds(lengthM / (p.VP * SpeedOfLight))
}

// PathLatency returns the full fixed path latency k + l/vp.
func (p PHYProfile) PathLatency(lengthM float64) sim.Duration {
	return sim.FromNanoseconds(p.ModulationNS) + p.PropagationDelay(lengthM)
}

// Frame is a frame in flight on a link. Data excludes the FCS; CRCOK
// records whether the FCS was valid when the MAC emitted it (the §8
// rate-control filler frames are emitted with CRCOK=false). WireSize is
// the frame size including FCS — possibly below the legal 64 B minimum
// for short filler frames. Data is empty for a frame that fails Valid:
// the receiving MAC drops such a frame reading only its length and FCS
// verdict, so the sending MAC copies no bytes into it.
//
// Frames are recycled by the link once pulled: Data is valid only for
// the duration of the DeliverFrame call unless the consumer calls
// Retain. A retained frame belongs to the consumer until it calls
// Release, which hands the frame (and the capacity of its Data) back to
// the link that made it, so the steady state allocates no frames.
type Frame struct {
	Data     []byte
	WireSize int
	CRCOK    bool

	retained bool
	link     *Link // the link whose AcquireFrame made the frame
}

// Retain marks the frame as escaped: the link will not recycle it after
// DeliverFrame returns, so the consumer may keep Data until it calls
// Release (the DuT model queues frames in its driver backlog this way).
func (f *Frame) Retain() { f.retained = true }

// Release ends a Retain: the consumer is done with Data and the frame
// goes back to its link's free list. Releasing a frame that is not
// retained (or releasing it twice) panics. A frame built outside
// AcquireFrame has no link and is left to the garbage collector.
func (f *Frame) Release() {
	if !f.retained {
		panic("wire: Release of a frame that is not retained")
	}
	f.retained = false
	if f.link != nil {
		f.link.recycle(f)
	}
}

// Endpoint consumes frames delivered by a link.
type Endpoint interface {
	// DeliverFrame hands over one pulled frame, in transmission order,
	// at or after rxTime: the PHY-level receive timestamp instant of
	// its first bit (arrival + demodulation, including jitter). The
	// frame's Data is only valid during the call unless Frame.Retain is
	// invoked.
	DeliverFrame(f *Frame, rxTime sim.Time)
}

// delivery is one frame in flight; arm is the engine's LastSeq at its
// commit.
type delivery struct {
	f   *Frame
	at  sim.Time
	arm uint64
}

// Link is one direction of a full-duplex cable between two ports.
// Create two (one per direction) for a full-duplex connection.
type Link struct {
	eng  *sim.Engine
	peer Endpoint

	// byteTime and pathLat cache ByteTime(speed) and
	// phy.PathLatency(lengthM): both involve float division/rounding
	// and the transmit path needs them per frame. The cached values are
	// the exact same picosecond quantities the formulas produce, so
	// timing is bit-identical to recomputing. The jitter parameters are
	// hoisted the same way, so the per-frame draw reads three floats
	// instead of the whole profile.
	byteTime  sim.Duration
	pathLat   sim.Duration
	hasJitter bool
	smallNS   float64 // phy.SmallJitterNS
	rangeNS   float64 // phy.RangeNS
	largePct  float64 // phy.LargeJitterPct

	busyUntil sim.Time // wire occupied until this instant (TX side)

	// jitterRNG is the link's private deterministic stream for PHY
	// receive-timestamp jitter. Frame i's jitter depends only on i —
	// not on how the MAC grouped transmissions into events — which is
	// what makes batched and per-packet emission bit-identical.
	jitterRNG *rand.Rand

	// pending is the in-flight FIFO (a serial link preserves order);
	// pulling guards Pull against re-entry.
	pending ring.Ring[delivery]
	lastRx  sim.Time
	pulling bool
	pullCap int // due frames kept in flight (SetCapacity)

	// The receive line (Arm): lineFn runs at lineAt, the receive
	// instant of the first valid frame from lineFrom on (Never while
	// none is in flight); lineFire is the prebound event callback.
	lineFn   func()
	lineFrom sim.Time
	lineAt   sim.Time
	lineFire func()

	// down marks the link administratively down (fault injection): the
	// TX side keeps its serialization grid, but every frame is dropped
	// at the wire instead of delivered. See SetDown/SetUp.
	down bool

	// freeFrames recycles delivered, dropped and released frames
	// (at most freeCap; see recycle).
	freeFrames []*Frame
	freeCap    int

	// TxFrames / TxBytes count what was put on the wire.
	TxFrames uint64
	TxBytes  uint64

	// DroppedFrames / DroppedBytes count frames lost to a down link:
	// in-flight frames drained when the link went down plus frames
	// transmitted into the dead wire. The reconciliation invariant is
	// TxFrames == delivered + DroppedFrames.
	DroppedFrames uint64
	DroppedBytes  uint64
}

// NewLink creates a unidirectional link.
func NewLink(eng *sim.Engine, speed Speed, phy PHYProfile, lengthM float64, peer Endpoint) *Link {
	if peer == nil {
		panic("wire: nil peer")
	}
	l := &Link{
		eng: eng, peer: peer,
		byteTime:  ByteTime(speed),
		pathLat:   phy.PathLatency(lengthM),
		hasJitter: phy.SmallJitterNS != 0,
		smallNS:   phy.SmallJitterNS,
		rangeNS:   phy.RangeNS,
		largePct:  phy.LargeJitterPct,
		jitterRNG: eng.NewRand(),
		freeCap:   maxFreeFrames,
	}
	l.lineFire = l.fireLine
	eng.AddDeferred(l.lastEvent)
	return l
}

// NextTxSlot returns the earliest time a new frame may start
// transmitting (the wire enforces serialization spacing).
func (l *Link) NextTxSlot() sim.Time {
	if l.busyUntil > l.eng.Now() {
		return l.busyUntil
	}
	return l.eng.Now()
}

// TransmitAt puts a frame on the wire starting at the given instant,
// which may be in the future: the MAC scheduler commits a whole burst
// of departures in one event, each frame stamped on the exact
// per-frame timing grid. start must be ≥ now and ≥ NextTxSlot. It
// returns the time the wire becomes free again. The frame is due at
// the receive side at start + path latency (+ jitter).
func (l *Link) TransmitAt(f *Frame, start sim.Time) sim.Time {
	if start < l.eng.Now() {
		panic(fmt.Sprintf("wire: transmit at past instant %v (now %v)", start, l.eng.Now()))
	}
	if start < l.busyUntil {
		panic(fmt.Sprintf("wire: transmit at %v while busy until %v", start, l.busyUntil))
	}
	occupancy := sim.Duration(f.WireSize+proto.WireOverhead) * l.byteTime
	l.busyUntil = start.Add(occupancy)
	l.TxFrames++
	l.TxBytes += uint64(f.WireSize)

	if l.down {
		// The MAC keeps its serialization grid (busyUntil advanced as
		// usual) but the wire is dead: the frame is dropped here, counted
		// exactly once, and never reaches the peer.
		l.drop(f)
		return l.busyUntil
	}

	rxTime := start.Add(l.pathLat)
	if l.hasJitter {
		// §6.1's block-code jitter: LargeJitterPct of draws span
		// ±RangeNS/2, the rest ±SmallJitterNS. Pinned against the
		// reference in wire_test.go by TestTransmitJitterMatchesProfile.
		var jit sim.Duration
		if l.largePct > 0 && l.jitterRNG.Float64() < l.largePct {
			jit = sim.FromNanoseconds(l.jitterRNG.Float64()*l.rangeNS - l.rangeNS/2)
		} else {
			jit = sim.FromNanoseconds(l.jitterRNG.Float64()*2*l.smallNS - l.smallNS)
		}
		rxTime = rxTime.Add(jit)
	}
	if rxTime < l.lastRx {
		// A serial link cannot reorder: clamp pathological jitter draws
		// (possible only for runt frames shorter than the jitter range).
		rxTime = l.lastRx
	}
	l.lastRx = rxTime
	l.push(f, rxTime)
	return l.busyUntil
}

// AcquireFrame returns a recycled (or fresh) frame for transmission.
// The MAC fills WireSize/CRCOK (and Data, for a valid frame) and hands
// it to TransmitAt; the link recycles it after delivery, or at Release
// if the consumer Retains it. A recycled frame keeps its Data capacity,
// length zero.
func (l *Link) AcquireFrame() *Frame {
	n := len(l.freeFrames)
	if n == 0 {
		return &Frame{link: l}
	}
	f := l.freeFrames[n-1]
	l.freeFrames[n-1] = nil
	l.freeFrames = l.freeFrames[:n-1]
	return f
}

// SetCapacity bounds the due frames held in flight for the endpoint
// (its receive descriptors): past it, a commit hands the due ones over
// at once, which is exact because they are due. The free list keeps 2n
// frames more, n due in flight and n the endpoint retains, so a slow
// receiver's released ring is reused rather than reallocated.
func (l *Link) SetCapacity(n int) { l.pullCap, l.freeCap = n, maxFreeFrames+2*n }

// Valid reports whether a receiving MAC accepts the frame (good FCS,
// at least 64 B); it drops any other into an error counter (§8.1).
func (f *Frame) Valid() bool { return f.CRCOK && f.WireSize >= proto.MinFrameSizeFCS }

// Pull hands the endpoint every due frame in flight, in order.
func (l *Link) Pull() {
	if l.pulling {
		return
	}
	l.pulling = true
	for {
		d, ok := l.pending.Peek()
		if !ok || !l.eng.Due(d.at, d.arm) {
			break
		}
		l.pending.Pop()
		l.peer.DeliverFrame(d.f, d.at)
		l.recycle(d.f)
	}
	l.pulling = false
}

// Arm arms the receive line, a NIC's interrupt-enable bit: fn runs once,
// in an event at the receive instant of the first valid frame whose
// rxTime is ≥ notBefore (at once if it is due already), scheduled at
// that frame's commit if it is not in flight yet. The frame is due when
// fn runs. Arming again replaces the pending arm.
func (l *Link) Arm(notBefore sim.Time, fn func()) {
	l.lineFn, l.lineFrom, l.lineAt = fn, notBefore, sim.Never
	for i := range l.pending.Len() {
		if d := l.pending.At(i); d.at >= notBefore && d.f.Valid() {
			l.ringLine(d.at)
			return
		}
	}
}

// ringLine schedules the armed line's event.
func (l *Link) ringLine(at sim.Time) {
	l.lineAt = max(at, l.eng.Now())
	l.eng.Schedule(l.lineAt, l.lineFire)
}

// fireLine runs the armed fn unless the arm was replaced or its frame
// dropped since.
func (l *Link) fireLine() {
	if l.lineFn == nil || l.lineAt != l.eng.Now() {
		return
	}
	fn := l.lineFn
	l.lineFn, l.lineAt = nil, sim.Never
	fn()
}

// lastEvent is the latest receive instant folded into pulls (for
// sim.Engine.AddDeferred).
func (l *Link) lastEvent() sim.Time {
	if n := l.pending.Len(); n > 0 {
		return l.pending.At(n - 1).at
	}
	return 0
}

// push appends to the in-flight FIFO, rings an armed line waiting for
// this frame, and hands due frames over past the capacity (rxTimes are
// monotonic, see TransmitAt).
func (l *Link) push(f *Frame, at sim.Time) {
	l.pending.Push(delivery{f: f, at: at, arm: l.eng.LastSeq()})
	if l.lineFn != nil && l.lineAt == sim.Never && at >= l.lineFrom && f.Valid() {
		l.ringLine(at)
	}
	if l.pending.Len() > l.pullCap {
		l.Pull()
	}
}

// drop counts a frame lost at the fault boundary and recycles it.
func (l *Link) drop(f *Frame) {
	l.DroppedFrames++
	l.DroppedBytes += uint64(f.WireSize)
	l.recycle(f)
}

// maxFreeFrames bounds a link's free list (SetCapacity raises it).
const maxFreeFrames = 1024

// recycle puts a frame on the free list unless a consumer retained it
// (the consumer's Release recycles it later) or the list is full.
func (l *Link) recycle(f *Frame) {
	if f.retained || len(l.freeFrames) >= l.freeCap {
		return
	}
	f.Data = f.Data[:0]
	l.freeFrames = append(l.freeFrames, f)
}

// SetDown takes the link down (fault injection). Frames in flight are
// dropped immediately — each counted exactly once in DroppedFrames;
// pulled frames already due are delivered first — and every
// subsequent TransmitAt drops at the wire until SetUp. The
// TX serialization grid (NextTxSlot/busyUntil) is unaffected, so the
// MAC scheduler's timing is identical whether the wire is alive or
// dead — which is what keeps link-flap runs batch/train invariant.
// Idempotent.
func (l *Link) SetDown() {
	if l.down {
		return
	}
	l.Pull()
	l.down = true
	if l.lineFn != nil {
		l.lineAt = sim.Never // wait for the next commit
	}
	for {
		d, ok := l.pending.Pop()
		if !ok {
			break
		}
		l.drop(d.f)
	}
}

// SetUp restores the link. Frames transmitted from now on are
// delivered normally. Idempotent.
func (l *Link) SetUp() { l.down = false }

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }
