package dut

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

var updateDuT = flag.Bool("update-dut", false, "rewrite testdata/dut.golden")

// dutCase is one set-up of the DuT golden: a generator on the X540
// testbed offering load through the forwarder, optionally stalled and
// restarted mid-run.
type dutCase struct {
	name    string
	load    string  // "hw" (hardware CBR), "gap" (CRC-gap Poisson), "burst" (zsend-like push)
	mpps    float64 // offered rate
	limit   int     // BacklogLimit (0: the default)
	stallAt sim.Duration
	restart sim.Duration // Restart instant (0: no stall)
	flush   bool
	run     sim.Duration
}

var dutCases = []dutCase{
	{name: "hw-cbr-0.5", load: "hw", mpps: 0.5, run: 300 * sim.Microsecond},
	{name: "hw-cbr-1.9", load: "hw", mpps: 1.9, limit: 48, run: 200 * sim.Microsecond},
	{name: "hw-cbr-2.5", load: "hw", mpps: 2.5, limit: 48, run: 200 * sim.Microsecond},
	{name: "gap-poisson-0.5", load: "gap", mpps: 0.5, run: 300 * sim.Microsecond},
	{name: "gap-poisson-1.9", load: "gap", mpps: 1.9, limit: 48, run: 200 * sim.Microsecond},
	{name: "gap-poisson-2.5", load: "gap", mpps: 2.5, limit: 48, run: 200 * sim.Microsecond},
	{name: "burst-0.5", load: "burst", mpps: 0.5, run: 600 * sim.Microsecond},
	{name: "stall-restart-flush", load: "hw", mpps: 1, limit: 48, stallAt: 60 * sim.Microsecond,
		restart: 130 * sim.Microsecond, flush: true, run: 200 * sim.Microsecond},
	{name: "stall-restart-keep", load: "hw", mpps: 1, limit: 48, stallAt: 60 * sim.Microsecond,
		restart: 130 * sim.Microsecond, run: 200 * sim.Microsecond},
}

// TestDuTGolden pins the forwarder packet by packet: each valid
// arrival's receive instant and whether it was tail-dropped, each
// interrupt's instant and the poll start it scheduled, each serviced
// packet's arrival and completion instants and outcome, and the final
// counters. Regenerate with -update-dut only when the model itself is
// meant to change.
func TestDuTGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range dutCases {
		runDuTCase(&b, c)
	}
	path := filepath.Join("testdata", "dut.golden")
	if *updateDuT {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wl); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("dut.golden line %d differs\n golden: %q\n  fresh: %q", i+1, w, g)
		}
	}
}

// runDuTCase runs one case and appends its trace to b.
func runDuTCase(b *strings.Builder, c dutCase) {
	app := core.NewApp(7)
	// A short descriptor ring keeps the drain after the stop time short.
	gen := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxRing: 64})
	in := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	out := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 2})
	sink := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 3})
	app.ConnectDevices(gen, in, wire.PHY10GBaseT, 2)
	app.ConnectDevices(out, sink, wire.PHY10GBaseT, 2)
	cfg := DefaultConfig()
	if c.limit > 0 {
		cfg.BacklogLimit = c.limit
	}
	fwd := New(app.Eng, in.Port, out.Port, cfg)

	var arrivals, ints, services []string
	in.Port.SetDeliverHook(func(fr *wire.Frame, rxTime sim.Time) bool {
		dropped := fwd.Dropped
		ok := fwd.onFrame(fr, rxTime)
		arrivals = append(arrivals, fmt.Sprintf("a %d%s", rxTime, mark(fwd.Dropped != dropped, " drop")))
		return ok
	})
	var seen uint64
	pollStart := fwd.pollStartFn
	fwd.pollStartFn = func() {
		if fwd.Interrupts != seen {
			seen = fwd.Interrupts
			ints = append(ints, fmt.Sprintf("i %d %d", fwd.lastInt, app.Now()))
		}
		pollStart()
	}
	service := fwd.serviceFn
	fwd.serviceFn = func() {
		arrived, forwarded := fwd.svcQ.arrived, fwd.Forwarded
		service()
		services = append(services, fmt.Sprintf("s %d %d%s", arrived, app.Now(), mark(fwd.Forwarded == forwarded, " txdrop")))
	}

	size := 60
	tmpl := proto.NewUDPTemplate(proto.UDPPacketFill{PktLength: size,
		IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1"), UDPSrc: 1000, UDPDst: 2000})
	fill := func(m *mempool.Mbuf, _ uint64) { tmpl.Apply(m.Payload()) }
	q := gen.GetTxQueue(0)
	pps := c.mpps * 1e6
	switch c.load {
	case "hw":
		app.LaunchTask("hw", (&core.HWRateTx{Queue: q, PPS: pps, PktSize: size, Fill: fill}).Run)
	case "gap":
		app.LaunchTask("gap", (&core.GapTx{Queue: q, Pattern: rate.NewPoissonPPS(pps), PktSize: size, Fill: fill}).Run)
	case "burst":
		b2b := wire.FrameTime(wire.Speed10G, size+proto.FCSLen)
		tx := &core.PushTx{Queue: q, Schedule: core.PatternSchedule(rate.NewBurstyPPS(pps, b2b), app.Eng.Rand())}
		tx.Slot = func(uint64) { tx.Send(app.TxPool(), size, func(m *mempool.Mbuf, _ sim.Time) { fill(m, 0) }) }
		app.LaunchTask("burst", tx.Run)
	}
	if c.restart > 0 {
		app.Eng.Schedule(sim.Time(c.stallAt), fwd.Stall)
		app.Eng.Schedule(sim.Time(c.restart), func() { fwd.Restart(c.flush) })
	}
	app.RunFor(c.run)

	st := in.Port.CounterSnapshot()
	backlog := fwd.Backlog()
	fmt.Fprintf(b, "case %s\n", c.name)
	for _, l := range [][]string{arrivals, ints, services} {
		for _, s := range l {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(b, "counters ints=%d fwd=%d drop=%d txdrop=%d flushed=%d backlog=%d lat=%d rx=%d crc=%d\n",
		fwd.Interrupts, fwd.Forwarded, fwd.Dropped, fwd.TxRingDrops, fwd.Flushed, backlog,
		fwd.MeanInternalLatency(), st.RxPackets, st.RxCRCErrors)
}

// mark returns s when cond holds, else "".
func mark(cond bool, s string) string {
	if cond {
		return s
	}
	return ""
}
