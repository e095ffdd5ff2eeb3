package scenario

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Env is the shared testbed a scenario runs against. It owns the
// simulation app and builds the canonical testbeds on demand: a direct
// generator→sink cable, or generator→DuT→sink when Spec.UseDuT is set.
// All the device/mempool/stats boilerplate the old examples duplicated
// lives here, so a scenario body is only the traffic logic.
type Env struct {
	Spec Spec
	// Out receives streaming output (per-window counters); reports are
	// returned, not printed, so tests can run scenarios silently.
	Out io.Writer

	app   *core.App
	built bool
	tx    *core.Device
	rx    *core.Device
	dutIn *core.Device
	fwd   *dut.Forwarder
	ts    *core.Timestamper
	rec   *telemetry.Recorder
	inj   *fault.Injector

	// dutInts counts the DuT's interrupts at the window edge.
	dutInts uint64
}

// NewEnv prepares an environment for spec. The testbed itself is built
// lazily on first use, so wrapper scenarios that construct their own
// apps (the experiment-backed ones) pay nothing for it.
func NewEnv(spec Spec, out io.Writer) *Env {
	if out == nil {
		out = io.Discard
	}
	return &Env{Spec: spec.withDefaults(), Out: out}
}

// Adopt makes the env build its testbed on a pre-existing app — a
// multicore shard's engine — instead of creating its own. It must be
// called before the testbed is first used.
func (e *Env) Adopt(app *core.App) {
	if e.built {
		panic("scenario: Adopt after the testbed was built")
	}
	e.app = app
}

// Receive sizing of the two testbeds' sink ports. DrainRx and the DuT
// bed's sink drain are count-only receivers (they read no payload), so
// their frames take no receive buffer and the only drop is a full
// ring. Each pool holds at least a ring plus one drain burst, so a
// payload drain of the same traffic could not run its pool dry before
// its ring filled either: both drains count the same frames. The
// Env's pool backs the flow sinks, which receive into buffers.
const (
	envRxRing, envRxPool         = 8192, 16384
	dutSinkRxRing, dutSinkRxPool = 4096, 8192
	drainBatch                   = 512
)

// build constructs the testbed once: engine, devices, duplex links,
// optional DuT forwarder, and the probe timestamper path.
func (e *Env) build() {
	if e.built {
		return
	}
	e.built = true
	if e.app == nil {
		e.app = core.NewApp(e.Spec.Seed)
	}
	// One TX queue per flow plus one for timestamped probes.
	txQueues := len(e.Spec.EffectiveFlows()) + 1
	if txQueues < 2 {
		txQueues = 2
	}
	if e.Spec.UseDuT {
		bed := NewDuTBed(e.app, txQueues)
		e.tx, e.rx, e.dutIn, e.fwd, e.ts = bed.Gen, bed.Sink, bed.DuTIn, bed.Fwd, bed.TS
	} else {
		e.tx = e.app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: txQueues})
		e.rx = e.app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: envRxRing, RxPool: envRxPool})
		e.app.ConnectDevices(e.tx, e.rx, wire.PHY10GBaseT, 2)
	}
	if len(e.Spec.Faults) > 0 {
		// The injector targets the canonical fault surfaces of the bed:
		// the generator's transmit wire and pump, the DuT forwarder when
		// one is in the path, and the receive port's PTP clock. The plan
		// is scheduled onto the engine in RunAndCollect, once the run
		// horizon is known.
		e.inj = fault.New(e.app.Eng, fault.Targets{
			Link:  e.tx.Link(),
			Port:  e.tx.Port,
			Fwd:   e.fwd,
			Clock: e.rx.Port.Clock,
		}, e.Spec.Faults)
	}
	if e.Spec.TelemetryInterval > 0 {
		e.rec = telemetry.NewRecorder(e.app.Eng, telemetry.Config{
			Interval:    e.Spec.TelemetryInterval,
			Stream:      e.Spec.TelemetryStream,
			StreamJSONL: e.Spec.TelemetryJSONL,
			StreamDiag:  e.Spec.TelemetryDiag,
		})
		e.rec.Register(telemetry.PortProbe("tx", e.tx.Port))
		e.rec.Register(telemetry.PortProbe("rx", e.rx.Port))
		if e.inj != nil {
			// Registered right after the port probes so the fault
			// columns hold a deterministic position in the series at
			// any core count.
			e.rec.Register(telemetry.FaultProbe(e.inj))
		}
	}
}

// App returns the simulation app (building the testbed on first use).
func (e *Env) App() *core.App { e.build(); return e.app }

// TX returns the generator device.
func (e *Env) TX() *core.Device { e.build(); return e.tx }

// RX returns the receive device (the sink when a DuT is in the path).
func (e *Env) RX() *core.Device { e.build(); return e.rx }

// Fwd returns the DuT forwarder (nil without UseDuT).
func (e *Env) Fwd() *dut.Forwarder { e.build(); return e.fwd }

// FaultInjector returns the fault injector driving Spec.Faults, nil
// when the spec carries no fault plan.
func (e *Env) FaultInjector() *fault.Injector { e.build(); return e.inj }

// Timestamper returns the probe timestamper: TX's last queue into the
// receive port's PTP latch (the paper's two-queue arrangement, §6.4).
func (e *Env) Timestamper() *core.Timestamper {
	e.build()
	if e.ts == nil {
		e.ts = core.NewTimestamper(e.tx.GetTxQueue(e.tx.NumTxQueues()-1), e.rx.Port)
	}
	return e.ts
}

// FlowFill returns the per-packet fill function for a flow at the
// given frame size — the Listing 2 prefill body. The flow's constant
// headers are captured once in a proto.Template; the returned closure
// restores them with a single copy per packet instead of re-deriving
// every field.
func (e *Env) FlowFill(f Flow, size int) func(m *mempool.Mbuf, i uint64) {
	tmpl := e.FlowTemplate(f, size)
	return func(m *mempool.Mbuf, i uint64) {
		tmpl.Apply(m.Payload())
	}
}

// FlowTemplate builds the flow's per-flow packet template at the given
// frame size: prefilled Ethernet/IPv4/L4 headers plus the cached
// checksum sums for incremental per-packet updates.
func (e *Env) FlowTemplate(f Flow, size int) *proto.Template {
	e.build()
	ethSrc, ethDst := e.tx.MAC(), e.rx.MAC()
	switch f.L4 {
	case "tcp":
		tmpl := proto.NewTCPTemplate(proto.TCPPacketFill{
			PktLength: size,
			EthSrc:    ethSrc, EthDst: ethDst,
			IPSrc: f.SrcIP, IPDst: f.DstIP,
			TCPSrc: f.SrcPort, TCPDst: f.DstPort,
		})
		if f.TOS != 0 {
			tmpl.SetTOS(f.TOS)
		}
		return tmpl
	default: // "udp"
		return proto.NewUDPTemplate(proto.UDPPacketFill{
			PktLength: size,
			EthSrc:    ethSrc, EthDst: ethDst,
			IPSrc: f.SrcIP, IPDst: f.DstIP,
			UDPSrc: f.SrcPort, UDPDst: f.DstPort,
			TOS: f.TOS,
		})
	}
}

// NewFlowPool creates a mempool prefilled with the flow's packet
// template at the given frame size. Buffers are sized to the frame:
// every packet drawn from the pool has exactly that length.
func (e *Env) NewFlowPool(f Flow, size, count int) *mempool.Pool {
	if count <= 0 {
		count = 4096
	}
	fill := e.FlowFill(f, size)
	return core.CreateSizedMemPool(count, size, func(m *mempool.Mbuf) {
		m.Len = size
		fill(m, 0)
	})
}

// DrainRx launches the canonical receive-drain task so the sink's
// rings never fill, streaming per-window rx counter lines to Env.Out
// (the Listing 3 counter output the examples print while running).
// The drain reads no payload: its Count hook makes the sink's queue
// count-only, so no frame takes a receive buffer.
// Scenarios that consume received traffic themselves must not call
// it. With a DuT in the path the sink drain is already installed by
// the bed.
func (e *Env) DrainRx() {
	e.build()
	if e.Spec.UseDuT {
		return
	}
	ctr := e.NewCounter("rx")
	drain := &core.PollRx{Queue: e.rx.GetRxQueue(0), Batch: drainBatch,
		Count: func(n int, bytes uint64, now sim.Time) { ctr.Update(n, int(bytes), now) }}
	e.app.LaunchTask("rx-drain", func(t *core.Task) {
		drain.Run(t)
		ctr.Finalize(t.Now())
	})
}

// LaunchFlowSink starts the receiver-side flow analysis task on the
// sink's first receive queue: every received frame is attributed to
// its flow in tr (sequence tracking, inter-arrival and stamped-latency
// statistics) by a PollRx kernel with the TrackFlows hook, polling on
// for core.FlowDrain after the run. Scenarios that call it must not
// also call DrainRx.
func (e *Env) LaunchFlowSink(tr *flow.Tracker) *core.PollRx {
	e.build()
	if e.rec != nil {
		// Per-flow columns only for explicitly declared flows: a
		// churn-style scenario tracks far too many flows to give each
		// a column, but still gets the probe's tracker-level columns
		// (live flows, table load, probe length).
		flows := e.Spec.Flows
		cols := make([]telemetry.FlowCol, len(flows))
		for i, f := range flows {
			cols[i] = telemetry.FlowCol{Label: f.Name, Key: trackerKey(f)}
		}
		e.rec.Register(telemetry.FlowProbe(tr, cols))
	}
	s := &core.PollRx{Queue: e.rx.GetRxQueue(0), Batch: e.Spec.Batch,
		Drain: core.FlowDrain, Burst: core.TrackFlows(tr)}
	e.app.LaunchTask("flow-sink", s.Run)
	return s
}

// NewCounter creates a throughput counter that streams per-window
// lines to Env.Out (silent when the Env runs with no output sink).
func (e *Env) NewCounter(name string) *stats.Counter {
	format := stats.FormatPlain
	if e.Out == io.Discard {
		format = stats.FormatNone
	}
	return stats.NewCounter(stats.CounterConfig{
		Name: name, Format: format, Out: e.Out, Window: 20 * sim.Millisecond,
	})
}

// CollectDuT appends the forwarder-side counters to rep when the
// testbed routes through a DuT — the data the Figure 7/11 setups
// report (forwarded/dropped packets, interrupt rate, and the CRC-gap
// filler frames the DuT's NIC dropped in hardware). The interrupt rows
// are windowed like the rx counters, as in Figure 7; forwarded and
// dropped packets and the fillers are run totals.
func (e *Env) CollectDuT(rep *Report) {
	if e.fwd == nil {
		return
	}
	// The snapshot pulls the DuT's due arrivals, which settles Dropped.
	ingress := e.dutIn.CounterSnapshot()
	rep.AddRow("DuT forwarded", float64(e.fwd.Forwarded), "packets")
	rep.AddRow("DuT dropped", float64(e.fwd.Dropped), "packets")
	rep.AddRow("DuT interrupts", float64(e.dutInts), "ints")
	rep.AddRow("DuT interrupt rate", float64(e.dutInts)/e.Spec.Runtime.Seconds(), "Hz")
	rep.AddRow("DuT-ingress crc-dropped (fillers)", float64(ingress.RxCRCErrors), "packets")
}

// LaunchProbes starts the latency-probing task when Spec.Probes > 0:
// after a warmup it spreads Spec.Probes timestamped probes across the
// run and stores the histogram in rep.
func (e *Env) LaunchProbes(rep *Report) {
	probes := e.Spec.Probes
	if probes <= 0 {
		return
	}
	ts := e.Timestamper()
	window := e.Spec.Runtime
	warmup := window / 20
	pace := (window - warmup - window/10) / sim.Duration(probes)
	if pace < 0 {
		pace = 0
	}
	e.app.LaunchTask("timestamping", func(t *core.Task) {
		t.Sleep(warmup)
		rep.Latency = ts.MeasureLatency(t, probes, pace)
		rep.LostProbes = ts.Lost
	})
}

// RunAndCollect runs the simulation for Spec.Runtime and fills rep's
// NIC-counter baseline from a snapshot taken exactly at the window
// edge (ring drain after the stop time is excluded, as everywhere in
// the experiments).
func (e *Env) RunAndCollect(rep *Report) {
	e.build()
	window := e.Spec.Runtime
	if e.inj != nil {
		// The plan unrolls onto the wheel before the recorder's first
		// tick is armed, so fault onsets coinciding with a window edge
		// order identically in every shard.
		e.inj.Install(e.app.Now(), window)
	}
	if e.rec != nil {
		// Engine and pool probes register last so their diagnostic
		// columns trail the model columns, and Start arms the first
		// window tick before the run begins.
		e.rec.Register(telemetry.EngineProbe(e.app.Eng))
		if pool := e.app.TxPoolPeek(); pool != nil {
			e.rec.Register(telemetry.PoolProbe("txpool", pool))
		}
		e.rec.Start()
	}
	var txStop, rxStop nic.Stats
	e.app.Eng.Schedule(e.app.Now().Add(window), func() {
		txStop = e.tx.CounterSnapshot()
		rxStop = e.rx.CounterSnapshot()
		if e.fwd != nil {
			e.dutInts = e.fwd.Interrupts
		}
	})
	e.app.RunFor(window)

	rep.Window = window
	rep.TxPackets = txStop.TxPackets
	rep.TxBytes = txStop.TxBytes
	rep.RxPackets = rxStop.RxPackets
	rep.RxBytes = rxStop.RxBytes
	rep.RxCRCErrors = rxStop.RxCRCErrors
	rep.RxMissed = rxStop.RxMissed
	secs := window.Seconds()
	rep.RxMpps = float64(rxStop.RxPackets) / secs / 1e6
	rep.RxGbpsWire = float64(rxStop.RxBytes+rxStop.RxPackets*(proto.FCSLen+proto.WireOverhead)) * 8 / secs / 1e9
	if e.rec != nil {
		rep.Telemetry = e.rec.Series()
	}
}

// --- shared testbed builders (also used by internal/experiments) -----

// DuTBed is the forwarding testbed: generator → DuT → sink, with a
// timestamping path from the generator's probe queue to the sink port
// and a count-only sink-drain task already running. It replaces the
// private bed builders the experiments used to carry.
type DuTBed struct {
	App    *core.App
	Gen    *core.Device
	DuTIn  *core.Device
	DuTOut *core.Device
	Sink   *core.Device
	Fwd    *dut.Forwarder
	TS     *core.Timestamper
}

// NewDuTBed builds the canonical DuT testbed on app. genTxQueues is
// the generator's queue count (≥ 2; the last queue carries probes).
func NewDuTBed(app *core.App, genTxQueues int) *DuTBed {
	if genTxQueues < 2 {
		genTxQueues = 2
	}
	b := &DuTBed{App: app}
	b.Gen = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: genTxQueues})
	b.DuTIn = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	b.DuTOut = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 2})
	b.Sink = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 3, RxRing: dutSinkRxRing, RxPool: dutSinkRxPool})
	app.ConnectDevices(b.Gen, b.DuTIn, wire.PHY10GBaseT, 2)
	app.ConnectDevices(b.DuTOut, b.Sink, wire.PHY10GBaseT, 2)
	b.Fwd = dut.New(app.Eng, b.DuTIn.Port, b.DuTOut.Port, dut.DefaultConfig())
	b.TS = core.NewTimestamper(b.Gen.GetTxQueue(genTxQueues-1), b.Sink.Port)
	b.TS.Timeout = 5 * sim.Millisecond
	sink := &core.PollRx{Queue: b.Sink.GetRxQueue(0), Batch: drainBatch} // count-only: no hook
	app.LaunchTask("sink-drain", sink.Run)
	return b
}

// FlowSize returns the effective frame size of a flow under spec.
func (s Spec) FlowSize(f Flow) int {
	if f.PktSize > 0 {
		return f.PktSize
	}
	return s.PktSize
}

// String summarizes the spec for logs and error messages.
func (s Spec) String() string {
	return fmt.Sprintf("rate=%.3gMpps size=%dB pattern=%s runtime=%.1fms seed=%d",
		s.RateMpps, s.PktSize, s.Pattern, s.Runtime.Seconds()*1e3, s.Seed)
}
