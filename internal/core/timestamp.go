package core

import (
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/ptpclk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Timestamper measures latencies with the hardware timestamping engine
// (§6, timestamps.lua / the timestamping task of l2-load-latency.lua).
//
// The paper's constraints are honoured: a single timestamped packet is
// in flight at a time (1 pkt/RTT, §6.4), clocks are resynchronized
// before every probe to neutralize drift (§6.3), and probes are layer-2
// PTP packets by default because those have no minimum-size restriction.
// A probe busy-polls the two latch registers every backoff until its
// Timeout, through Proc.Poll: a poll that finds a register empty
// runs in the engine and wakes no task.
type Timestamper struct {
	TxQueue *nic.TxQueue
	RxPort  *nic.Port
	// PktSize is the probe frame size without FCS (default 60).
	PktSize int
	// UDP selects UDP PTP probes instead of layer-2 PTP. UDP probes
	// below the NIC's 80-byte floor are never timestamped (§6.4).
	UDP bool
	// Timeout bounds the wait for a probe's timestamps (lost probes).
	Timeout sim.Duration

	pool  *mempool.Pool
	seq   uint16
	txBuf [1]*mempool.Mbuf // reusable send slot: no per-probe slice alloc

	// The running probe's wait: its engine and deadline, the timestamps
	// read so far, and tsReady, the prebound check of its polls.
	eng            *sim.Engine
	deadline       sim.Time
	txTS, rxTS     sim.Time
	haveTx, haveRx bool
	tsReady        func() bool

	// Lost counts probes that timed out.
	Lost uint64
}

// NewTimestamper builds a timestamper for the given path.
func NewTimestamper(txq *nic.TxQueue, rxPort *nic.Port) *Timestamper {
	rxPort.EnableTimestamps(0)
	ts := &Timestamper{
		TxQueue: txq,
		RxPort:  rxPort,
		PktSize: 60,
		Timeout: sim.Millisecond,
		pool:    mempool.New(mempool.Config{Count: 64}),
	}
	ts.tsReady = ts.done
	return ts
}

// Probe sends one timestamped packet and returns the measured one-way
// latency (in synchronized NIC clock time). ok is false if the probe
// or its timestamps were lost.
func (ts *Timestamper) Probe(t *Task) (lat sim.Duration, ok bool) {
	txPort := ts.TxQueue.Port()

	// Resynchronize the receive clock to the transmit clock before
	// each timestamped packet (§6.3).
	ptpclk.Sync(txPort.Clock, ts.RxPort.Clock)

	// Drain stale latch values so this probe's timestamps are
	// unambiguous.
	txPort.ReadTxTimestamp()
	ts.RxPort.ReadRxTimestamp()

	ts.seq++
	m := ts.pool.Alloc(ts.PktSize)
	if m == nil {
		return 0, false
	}
	if ts.UDP {
		p := proto.UDPPTPPacket{B: m.Payload()}
		p.Fill(proto.UDPPTPPacketFill{
			PktLength:   ts.PktSize,
			EthSrc:      txPort.MAC(),
			EthDst:      ts.RxPort.MAC(),
			IPSrc:       proto.MustIPv4("10.255.0.1"),
			IPDst:       proto.MustIPv4("10.255.0.2"),
			MessageType: proto.PTPMsgSync,
			SequenceID:  ts.seq,
		})
	} else {
		p := proto.PTPPacket{B: m.Payload()}
		p.Fill(proto.PTPPacketFill{
			PktLength:   ts.PktSize,
			EthSrc:      txPort.MAC(),
			EthDst:      ts.RxPort.MAC(),
			MessageType: proto.PTPMsgSync,
			SequenceID:  ts.seq,
		})
	}
	m.TxMeta.Timestamp = true
	ts.txBuf[0] = m
	if t.SendAll(ts.TxQueue, ts.txBuf[:]) != 1 {
		ts.txBuf[0] = nil
		return 0, false
	}
	ts.txBuf[0] = nil

	// Busy-poll both registers every backoff until the deadline. The
	// first read is the task's own; the later ones run in the engine
	// (Proc.Poll), so a poll that finds a register empty wakes no task.
	ts.eng, ts.deadline = t.Engine(), t.Now().Add(ts.Timeout)
	ts.haveTx, ts.haveRx = false, false
	if !ts.done() {
		t.Poll(backoff, ts.tsReady)
	}
	if ts.haveTx && ts.haveRx {
		return ts.rxTS.Sub(ts.txTS), true
	}
	ts.Lost++
	return 0, false
}

// done is one poll of a probe's wait: past the deadline it gives up,
// else it reads each register still missing this probe's timestamp and
// reports whether both are in.
func (ts *Timestamper) done() bool {
	if ts.eng.Now() >= ts.deadline {
		return true
	}
	if !ts.haveTx {
		if v, seq, ok := ts.TxQueue.Port().ReadTxTimestamp(); ok && seq == ts.seq {
			ts.txTS, ts.haveTx = v, true
		}
	}
	if !ts.haveRx {
		if v, seq, ok := ts.RxPort.ReadRxTimestamp(); ok && seq == ts.seq {
			ts.rxTS, ts.haveRx = v, true
		}
	}
	return ts.haveTx && ts.haveRx
}

// MeasureLatency runs count probes and collects a histogram — the
// timestamping task of the example scripts. Probes pace at interval
// (default: back-to-back after completion, the 1/RTT limit). The pacing
// is dithered by a few microseconds so probe instants sample arrival
// grids uniformly: an undithered software loop quantizes to its polling
// granularity and phase-locks against periodic load. The histogram's
// resolution is the receive port's timestamp tick.
func (ts *Timestamper) MeasureLatency(t *Task, count int, interval sim.Duration) *stats.Histogram {
	h := stats.NewHistogram(ts.RxPort.Clock.Tick())
	ts.MeasureLatencyInto(t, count, interval, h.Add)
	return h
}

// MeasureLatencyInto is MeasureLatency with the caller supplying the
// sample sink — the entry point for recording probe latencies into the
// receiver-side flow pipeline (flow.Stats.AddLatency) instead of a
// private histogram. There is exactly one copy of the probe loop.
func (ts *Timestamper) MeasureLatencyInto(t *Task, count int, interval sim.Duration, record func(sim.Duration)) {
	rng := t.Engine().Rand()
	for i := 0; i < count && t.Running(); i++ {
		if lat, ok := ts.Probe(t); ok {
			record(lat)
		}
		if interval > 0 {
			dither := sim.Duration(rng.Int63n(int64(8 * sim.Microsecond)))
			t.Sleep(interval + dither)
		}
	}
}
