package nic

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

var updateDatapath = flag.Bool("update-datapath", false, "rewrite testdata/datapath.golden")

// dpCase is one set-up of the datapath golden: a slot-grid sender on
// port a filling `ahead` slots per wake onto launch-timed descriptors,
// a polling drain on port b, and optional faults. The fields after
// run are varied only by the oracle's random set-ups.
type dpCase struct {
	name       string
	txQueues   int
	rxQueues   int
	mpps       float64 // offered slot rate, all queues together
	ahead      int     // slots one sender wake fills
	pool       int     // TX pool buffers
	txRing     int
	rxRing     int
	phy        wire.PHYProfile
	drainPoll  sim.Duration
	drainBurst int
	pauseAt    sim.Duration // PauseTx window on a (0: none)
	pauseFor   sim.Duration
	flapAt     sim.Duration // a->b link down window (0: none)
	flapFor    sim.Duration
	ptpEvery   int // every n-th slot is a PTP probe sent at once on queue 1
	run        sim.Duration

	profile  Profile      // both ports (zero: ChipX540)
	sizes    []int        // slot s sends sizes[s%len] bytes without FCS (nil: 60)
	badEvery int          // every n-th slot has a bad FCS (0: none)
	rates    []float64    // per-queue hardware shaper rates in pps (0: line rate)
	rxPool   int          // receive buffers of port b (0: the port default)
	drift    [2]float64   // clock drift of ports a and b in ppm
	seed     int64        // engine seed (0: 11)
	drainAt  sim.Duration // first drain (0: drainPoll)
}

var dpCases = []dpCase{
	{name: "held-1q-10mpps", txQueues: 1, mpps: 10, ahead: 8},
	{name: "held-1q-20mpps", txQueues: 1, mpps: 20, ahead: 32},
	{name: "held-5q-10mpps", txQueues: 5, mpps: 10, ahead: 8},
	{name: "held-5q-20mpps", txQueues: 5, mpps: 20, ahead: 32},
	{name: "pool-smaller-than-ring", txQueues: 1, mpps: 20, ahead: 32, pool: 24, txRing: 64},
	{name: "pause-mid-train", txQueues: 1, mpps: 20, ahead: 16, pauseAt: 7030 * sim.Nanosecond, pauseFor: 3 * sim.Microsecond},
	{name: "flap-mid-train", txQueues: 1, mpps: 20, ahead: 16, flapAt: 9010 * sim.Nanosecond, flapFor: 4 * sim.Microsecond},
	{name: "slow-drain", txQueues: 1, rxQueues: 2, mpps: 12, ahead: 8, rxRing: 16, drainPoll: 5 * sim.Microsecond, drainBurst: 4},
	{name: "ptp-probe", txQueues: 2, mpps: 12, ahead: 16, ptpEvery: 37},
	{name: "copper-jitter", txQueues: 1, mpps: 10, ahead: 8, phy: wire.PHY10GBaseT},
}

// TestDatapathGolden pins the NIC datapath, and the per-frame oracle
// it is checked against (oracle_test.go), frame by frame against a log
// recorded from the per-frame event model: every slot's outcome (pool
// dry, ring full, or departure instant with its receive queue and
// rxTime, or drop), every sender and drain observation (pool level,
// ring room, timestamp latches) and the final counters and pool
// levels. Regenerate with -update-datapath only when the model itself
// is meant to change.
func TestDatapathGolden(t *testing.T) {
	path := filepath.Join("testdata", "datapath.golden")
	for _, bed := range []struct {
		name string
		new  newBed
	}{{"nic", newNICBed}, {"oracle", newRefBed}} {
		t.Run(bed.name, func(t *testing.T) {
			var b strings.Builder
			for _, c := range dpCases {
				runDatapathCase(&b, c, bed.new)
			}
			if *updateDatapath && bed.name == "nic" {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if diff := firstDiff(b.String(), string(want)); diff != "" {
				t.Fatal("datapath log differs from the golden: " + diff)
			}
		})
	}
}

// firstDiff describes the first line where two logs differ ("" when
// they are equal).
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// dpBed is the datapath the golden's script runs on: the NIC's two ports
// (nicBed) or the per-frame reference model (refBed).
type dpBed interface {
	send(q int, m *mempool.Mbuf) bool
	txFree(q int) int
	txStamp() (sim.Time, uint16, bool)
	recv(q int, out []*mempool.Mbuf) int
	release(q int)
	rxStamp() (sim.Time, uint16, bool)
	setPaused(paused bool)
	setDown(down bool)
	end() dpEnd
}

// dpEnd is a bed's state after the run.
type dpEnd struct {
	tx, rx   Stats // port a's and port b's registers
	wireDrop uint64
	rxAvail  int // port b's free receive buffers
}

// newBed builds a bed for c on eng that reports every departure commit
// to depart.
type newBed func(eng *sim.Engine, c dpCase, depart func(m *mempool.Mbuf, start sim.Time)) dpBed

// nicBed is the NIC under test: port a cabled to port b.
type nicBed struct{ a, b *Port }

func newNICBed(eng *sim.Engine, c dpCase, depart func(*mempool.Mbuf, sim.Time)) dpBed {
	a := NewPort(eng, PortConfig{Profile: c.profile, ID: 0, TxQueues: c.txQueues, TxRingSize: c.txRing, ClockDriftPPM: c.drift[0]})
	b := NewPort(eng, PortConfig{Profile: c.profile, ID: 1, RxQueues: c.rxQueues, RxRingSize: c.rxRing,
		RxPoolSize: c.rxPool, ClockDriftPPM: c.drift[1]})
	ConnectDuplex(eng, a, b, c.phy, 2)
	if c.ptpEvery > 0 {
		a.EnableTimestamps(0)
		b.EnableTimestamps(0)
	}
	for i, r := range c.rates {
		a.GetTxQueue(i).SetRatePPS(r)
	}
	a.SetTxTrace(func(_ *TxQueue, m *mempool.Mbuf, start sim.Time) { depart(m, start) })
	return &nicBed{a, b}
}

func (n *nicBed) send(q int, m *mempool.Mbuf) bool    { return n.a.GetTxQueue(q).SendOne(m) }
func (n *nicBed) txFree(q int) int                    { return n.a.GetTxQueue(q).Free() }
func (n *nicBed) txStamp() (sim.Time, uint16, bool)   { return n.a.ReadTxTimestamp() }
func (n *nicBed) recv(q int, out []*mempool.Mbuf) int { return n.b.GetRxQueue(q).RecvBurst(out) }
func (n *nicBed) release(q int)                       { n.b.GetRxQueue(q).Release() }
func (n *nicBed) rxStamp() (sim.Time, uint16, bool)   { return n.b.ReadRxTimestamp() }

func (n *nicBed) setPaused(paused bool) {
	if paused {
		n.a.PauseTx()
	} else {
		n.a.ResumeTx()
	}
}

func (n *nicBed) setDown(down bool) {
	if down {
		n.a.Link().SetDown()
	} else {
		n.a.Link().SetUp()
	}
}

func (n *nicBed) end() dpEnd {
	return dpEnd{tx: n.a.CounterSnapshot(), rx: n.b.CounterSnapshot(), wireDrop: n.a.Link().DroppedFrames,
		rxAvail: n.b.RxPoolAvail()}
}

// runDatapathCase runs c on the bed mk builds and logs it to w.
func runDatapathCase(w *strings.Builder, c dpCase, mk newBed) dpEnd {
	if c.rxQueues == 0 {
		c.rxQueues = 1
	}
	if c.pool == 0 {
		c.pool = 512
	}
	if c.txRing == 0 {
		c.txRing = 128
	}
	if c.rxRing == 0 {
		c.rxRing = 512
	}
	if c.phy.Name == "" {
		c.phy = wire.PHY10GBaseSR
	}
	if c.drainPoll == 0 {
		c.drainPoll = 2 * sim.Microsecond
		c.drainBurst = 32
	}
	if c.drainAt == 0 {
		c.drainAt = c.drainPoll
	}
	if c.run == 0 {
		c.run = 20 * sim.Microsecond
	}
	if c.profile.Name == "" {
		c.profile = ChipX540
	}
	if c.sizes == nil {
		c.sizes = []int{60}
	}
	if c.seed == 0 {
		c.seed = 11
	}
	fmt.Fprintf(w, "== %s\n", c.name)
	eng := sim.NewEngine(c.seed)
	pool := mempool.New(mempool.Config{Count: c.pool})
	// A slot's number rides in the last four payload bytes.
	id := func(m *mempool.Mbuf) []byte { return m.Payload()[m.Len-4:] }

	type outcome struct {
		sent, dep, rx bool
		what          string
		start, at, hw sim.Time
		rxq           int
	}
	interval := sim.FromSeconds(1 / (c.mpps * 1e6))
	slots := int(c.run / interval)
	out := make([]outcome, slots)
	bed := mk(eng, c, func(m *mempool.Mbuf, start sim.Time) {
		o := &out[binary.BigEndian.Uint32(id(m))]
		o.dep, o.start = true, start
	})

	var wake func(n int)
	wake = func(n int) {
		now := eng.Now()
		fmt.Fprintf(w, "wake %d t=%d avail=%d", n, now, pool.Available())
		for i := 0; i < c.txQueues; i++ {
			fmt.Fprintf(w, " free%d=%d", i, bed.txFree(i))
		}
		if ts, seq, ok := bed.txStamp(); ok {
			fmt.Fprintf(w, " txts=%d/%d", ts, seq)
		}
		fmt.Fprintln(w)
		for s := n; s < n+c.ahead && s < slots; s++ {
			at := sim.Time(sim.Duration(s) * interval)
			probe := c.ptpEvery > 0 && s%c.ptpEvery == 0
			var m *mempool.Mbuf
			q := s % c.txQueues
			if probe {
				if m = pool.Alloc(60); m != nil {
					proto.PTPPacket{B: m.Payload()}.Fill(proto.PTPPacketFill{PktLength: 60, MessageType: proto.PTPMsgSync, SequenceID: uint16(s)})
					m.TxMeta.Timestamp = true
				}
				q = 1
			} else {
				if c.ptpEvery > 0 {
					q = 0
				}
				if m = makeUDP(pool, c.sizes[s%len(c.sizes)], uint16(s)); m != nil {
					if at > now {
						m.TxMeta.LaunchAt = at
					}
					m.TxMeta.InvalidCRC = c.badEvery > 0 && s%c.badEvery == 0
				}
			}
			if m == nil {
				out[s].what = "dry"
				continue
			}
			binary.BigEndian.PutUint32(id(m), uint32(s))
			if !bed.send(q, m) {
				m.Free()
				out[s].what = "full"
				continue
			}
			out[s].sent = true
		}
		if next := n + c.ahead; next < slots {
			eng.Schedule(sim.Time(sim.Duration(next)*interval), func() { wake(next) })
		}
	}
	eng.Schedule(0, func() { wake(0) })

	end := sim.Time(c.run + 20*sim.Microsecond)
	bufs := make([]*mempool.Mbuf, c.drainBurst)
	var drain func()
	drain = func() {
		got := 0
		for qi := 0; qi < c.rxQueues; qi++ {
			n := bed.recv(qi, bufs)
			got += n
			for _, m := range bufs[:n] {
				o := &out[binary.BigEndian.Uint32(id(m))]
				o.rx, o.at, o.rxq = true, sim.Time(m.RxMeta.Arrival), qi
				if m.RxMeta.HasTimestamp {
					o.hw = sim.Time(m.RxMeta.Timestamp)
				}
			}
			bed.release(qi)
		}
		fmt.Fprintf(w, "drain t=%d got=%d", eng.Now(), got)
		if ts, seq, ok := bed.rxStamp(); ok {
			fmt.Fprintf(w, " rxts=%d/%d", ts, seq)
		}
		fmt.Fprintln(w)
		if next := eng.Now().Add(c.drainPoll); next < end {
			eng.Schedule(next, drain)
		}
	}
	eng.Schedule(sim.Time(c.drainAt), drain)

	if c.pauseFor > 0 {
		eng.Schedule(sim.Time(c.pauseAt), func() { bed.setPaused(true) })
		eng.Schedule(sim.Time(c.pauseAt+c.pauseFor), func() { bed.setPaused(false) })
	}
	if c.flapFor > 0 {
		eng.Schedule(sim.Time(c.flapAt), func() { bed.setDown(true) })
		eng.Schedule(sim.Time(c.flapAt+c.flapFor), func() { bed.setDown(false) })
	}
	eng.RunAll()

	for s, o := range out {
		switch {
		case !o.sent:
			fmt.Fprintf(w, "%d %s\n", s, o.what)
		case !o.dep:
			fmt.Fprintf(w, "%d queued\n", s)
		case o.rx && o.hw != 0:
			fmt.Fprintf(w, "%d dep=%d rx%d=%d hw=%d\n", s, o.start, o.rxq, o.at, o.hw)
		case o.rx:
			fmt.Fprintf(w, "%d dep=%d rx%d=%d\n", s, o.start, o.rxq, o.at)
		default:
			fmt.Fprintf(w, "%d dep=%d drop\n", s, o.start)
		}
	}
	e := bed.end()
	fmt.Fprintf(w, "end tx=%d rx=%d crc=%d missed=%d wire_drop=%d pools=%d/%d\n",
		e.tx.TxPackets, e.rx.RxPackets, e.rx.RxCRCErrors, e.rx.RxMissed, e.wireDrop, pool.Available(), e.rxAvail)
	return e
}
