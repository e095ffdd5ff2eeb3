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
// a polling drain on port b, and optional faults.
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

// TestDatapathGolden pins the NIC datapath frame by frame against a
// log recorded from the per-frame event model: every slot's outcome
// (pool dry, ring full, or departure instant with its receive queue
// and rxTime, or drop), every sender and drain observation (pool
// level, ring room, timestamp latches) and the final counters and
// pool levels. Regenerate with -update-datapath only when the model
// itself is meant to change.
func TestDatapathGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range dpCases {
		runDatapathCase(&b, c)
	}
	path := filepath.Join("testdata", "datapath.golden")
	if *updateDatapath {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("datapath log differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("datapath log has %d lines, golden %d", len(gl), len(wl))
	}
}

func runDatapathCase(w *strings.Builder, c dpCase) {
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
	if c.run == 0 {
		c.run = 20 * sim.Microsecond
	}
	fmt.Fprintf(w, "== %s\n", c.name)
	eng := sim.NewEngine(11)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxQueues: c.txQueues, TxRingSize: c.txRing})
	bp := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxQueues: c.rxQueues, RxRingSize: c.rxRing})
	ConnectDuplex(eng, a, bp, c.phy, 2)
	if c.ptpEvery > 0 {
		a.EnableTimestamps(0)
		bp.EnableTimestamps(0)
	}
	pool := mempool.New(mempool.Config{Count: c.pool})
	id := func(m *mempool.Mbuf) uint32 { return binary.BigEndian.Uint32(m.Payload()[56:60]) }

	type outcome struct {
		sent, dep, rx bool
		what          string
		start, at     sim.Time
		rxq           int
	}
	interval := sim.FromSeconds(1 / (c.mpps * 1e6))
	slots := int(c.run / interval)
	out := make([]outcome, slots)
	a.SetTxTrace(func(q *TxQueue, m *mempool.Mbuf, start sim.Time) {
		o := &out[id(m)]
		o.dep, o.start = true, start
	})

	var wake func(n int)
	wake = func(n int) {
		now := eng.Now()
		fmt.Fprintf(w, "wake %d t=%d avail=%d", n, now, pool.Available())
		for i := 0; i < c.txQueues; i++ {
			fmt.Fprintf(w, " free%d=%d", i, a.GetTxQueue(i).Free())
		}
		if ts, seq, ok := a.ReadTxTimestamp(); ok {
			fmt.Fprintf(w, " txts=%d/%d", ts, seq)
		}
		fmt.Fprintln(w)
		for s := n; s < n+c.ahead && s < slots; s++ {
			at := sim.Time(sim.Duration(s) * interval)
			probe := c.ptpEvery > 0 && s%c.ptpEvery == 0
			var m *mempool.Mbuf
			q := a.GetTxQueue(s % c.txQueues)
			if probe {
				if m = pool.Alloc(60); m != nil {
					proto.PTPPacket{B: m.Payload()}.Fill(proto.PTPPacketFill{PktLength: 60, MessageType: proto.PTPMsgSync, SequenceID: uint16(s)})
					m.TxMeta.Timestamp = true
				}
				q = a.GetTxQueue(1)
			} else {
				if c.ptpEvery > 0 {
					q = a.GetTxQueue(0)
				}
				if m = makeUDP(pool, 60, uint16(s)); m != nil && at > now {
					m.TxMeta.LaunchAt = at
				}
			}
			if m == nil {
				out[s].what = "dry"
				continue
			}
			binary.BigEndian.PutUint32(m.Payload()[56:60], uint32(s))
			if !q.SendOne(m) {
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
	ba := bp.RxBufArray(c.drainBurst)
	var drain func()
	drain = func() {
		got := 0
		for qi := 0; qi < c.rxQueues; qi++ {
			rq := bp.GetRxQueue(qi)
			n := rq.RecvBurst(ba.Bufs)
			got += n
			for _, m := range ba.Slice(n) {
				o := &out[id(m)]
				o.rx, o.at, o.rxq = true, sim.Time(m.RxMeta.Arrival), qi
			}
			ba.FreeAll()
		}
		fmt.Fprintf(w, "drain t=%d got=%d", eng.Now(), got)
		if ts, seq, ok := bp.ReadRxTimestamp(); ok {
			fmt.Fprintf(w, " rxts=%d/%d", ts, seq)
		}
		fmt.Fprintln(w)
		if next := eng.Now().Add(c.drainPoll); next < end {
			eng.Schedule(next, drain)
		}
	}
	eng.Schedule(sim.Time(c.drainPoll), drain)

	if c.pauseFor > 0 {
		eng.Schedule(sim.Time(c.pauseAt), a.PauseTx)
		eng.Schedule(sim.Time(c.pauseAt+c.pauseFor), a.ResumeTx)
	}
	if c.flapFor > 0 {
		eng.Schedule(sim.Time(c.flapAt), a.Link().SetDown)
		eng.Schedule(sim.Time(c.flapAt+c.flapFor), a.Link().SetUp)
	}
	eng.RunAll()

	for s, o := range out {
		switch {
		case !o.sent:
			fmt.Fprintf(w, "%d %s\n", s, o.what)
		case !o.dep:
			fmt.Fprintf(w, "%d queued\n", s)
		case o.rx:
			fmt.Fprintf(w, "%d dep=%d rx%d=%d\n", s, o.start, o.rxq, o.at)
		default:
			fmt.Fprintf(w, "%d dep=%d drop\n", s, o.start)
		}
	}
	ta, rb := a.CounterSnapshot(), bp.CounterSnapshot()
	rxAvail := -1
	if p := bp.RxPoolPeek(); p != nil {
		rxAvail = p.Available()
	}
	fmt.Fprintf(w, "end tx=%d rx=%d crc=%d missed=%d wire_drop=%d pools=%d/%d\n",
		ta.TxPackets, rb.RxPackets, rb.RxCRCErrors, rb.RxMissed, a.Link().DroppedFrames, pool.Available(), rxAvail)
}
