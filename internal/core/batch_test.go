package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// departureTrace runs one TX loop for window and records every
// departure's exact wire start instant plus frame length via the MAC
// trace hook, together with the task's counters and the engine's event
// count.
type departureTrace struct {
	starts []sim.Time
	lens   []int
	sent   uint64
	events uint64
}

// traceRun runs launch's TX loop on a two-queue port; txRing sizes its
// descriptor rings (0: the default).
func traceRun(t *testing.T, window sim.Duration, txRing int, launch func(app *core.App, tx *core.Device) *uint64) *departureTrace {
	t.Helper()
	app := core.NewApp(7)
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: 2, TxRing: txRing})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })

	tr := &departureTrace{}
	tx.SetTxTrace(func(q *nic.TxQueue, m *mempool.Mbuf, at sim.Time) {
		if at <= sim.Time(window) {
			tr.starts = append(tr.starts, at)
			tr.lens = append(tr.lens, m.Len)
		}
	})
	sent := launch(app, tx)
	app.RunFor(window)
	tr.sent = *sent
	tr.events = app.Eng.EventsProcessed()
	return tr
}

func sameTrace(t *testing.T, name string, a, b *departureTrace) {
	t.Helper()
	if len(a.starts) != len(b.starts) {
		t.Fatalf("%s: %d vs %d departures", name, len(a.starts), len(b.starts))
	}
	for i := range a.starts {
		if a.starts[i] != b.starts[i] || a.lens[i] != b.lens[i] {
			t.Fatalf("%s: departure %d differs: %v/%dB vs %v/%dB",
				name, i, a.starts[i], a.lens[i], b.starts[i], b.lens[i])
		}
	}
	if a.sent != b.sent {
		t.Fatalf("%s: sent %d vs %d", name, a.sent, b.sent)
	}
}

// TestGapTxBatchInvariantDepartures is the §8 precision pin: the
// CRC-gap rate control must put every frame on the wire at the same
// byte-exact instant no matter how the task groups its sends — Batch=1
// (per-packet, the old hot path) and Batch=32 produce bit-identical
// departure schedules, including the filler frames whose lengths
// encode the gaps.
func TestGapTxBatchInvariantDepartures(t *testing.T) {
	run := func(batch int) *departureTrace {
		return traceRun(t, 4*sim.Millisecond, 0, func(app *core.App, tx *core.Device) *uint64 {
			g := &core.GapTx{
				Queue:   tx.GetTxQueue(0),
				Pattern: rate.NewPoissonPPS(2e6),
				PktSize: 60,
				Batch:   batch,
				Fill: func(m *mempool.Mbuf, i uint64) {
					p := proto.UDPPacket{B: m.Payload()}
					p.Fill(proto.UDPPacketFill{PktLength: 60,
						IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1")})
				},
			}
			app.LaunchTask("gap", g.Run)
			return &g.Sent
		})
	}
	one := run(1)
	if len(one.starts) < 1000 {
		t.Fatalf("only %d departures traced", len(one.starts))
	}
	sameTrace(t, "batch 32", one, run(32))
	sameTrace(t, "batch 5", one, run(5))

	// The wire grid is byte-exact: consecutive departures are spaced by
	// the previous frame's full wire time (frame + FCS + overhead).
	bt := wire.ByteTime(wire.Speed10G)
	for i := 1; i < len(one.starts); i++ {
		gap := one.starts[i].Sub(one.starts[i-1])
		min := sim.Duration(one.lens[i-1]+proto.FCSLen+proto.WireOverhead) * bt
		if gap < min {
			t.Fatalf("departure %d: gap %v below wire time %v", i, gap, min)
		}
	}
}

// TestHWRateTxBatchInvariantDepartures pins the §7.2 shaper under
// batching: the hardware rate control's oscillating grid is produced
// by the MAC model, so the task's burst size must not shift a single
// departure.
func TestHWRateTxBatchInvariantDepartures(t *testing.T) {
	run := func(batch int) *departureTrace {
		return traceRun(t, 4*sim.Millisecond, 0, func(app *core.App, tx *core.Device) *uint64 {
			h := &core.HWRateTx{Queue: tx.GetTxQueue(0), PPS: 1e6, PktSize: 60, Batch: batch}
			app.LaunchTask("hw", h.Run)
			return &h.Sent
		})
	}
	one := run(1)
	if len(one.starts) < 3000 {
		t.Fatalf("only %d departures traced", len(one.starts))
	}
	sameTrace(t, "batch 32", one, run(32))
}

// TestPushTxBatchInvariantDepartures pins the slot-grid lookahead: at
// Batch 32 one wake fills up to 32 slots ahead onto launch-timed
// descriptors, and nothing downstream may tell. Every departure, the
// Sent and Failed counts and every stamped time equal Batch 1's: on a
// grid below line rate, on one above it whose small ring refuses
// frames, behind a pool smaller than the ring, and in a run that ends
// in the middle of a lookahead.
func TestPushTxBatchInvariantDepartures(t *testing.T) {
	const ns = sim.Nanosecond
	cases := []struct {
		name           string
		interval       sim.Duration
		txRing, pool   int
		window         sim.Duration
		failed, fewerE bool // Batch 1 fails slots; Batch 32 fires fewer events
	}{
		{"below-line-rate", 500 * ns, 0, 256, 2 * sim.Millisecond, false, true},
		{"above-line-rate-ring-full", 50 * ns, 16, 256, sim.Millisecond, true, false},
		{"pool-smaller-than-ring", 50 * ns, 64, 24, sim.Millisecond, true, false},
		// 4017 slots: the last wake's lookahead holds 17 of them.
		{"run-ends-mid-batch", 500 * ns, 0, 256, 2*sim.Millisecond + 8600*ns, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(batch int) (*departureTrace, uint64, []sim.Time) {
				var p *core.PushTx
				var stamps []sim.Time
				tr := traceRun(t, c.window, c.txRing, func(app *core.App, tx *core.Device) *uint64 {
					pool := core.CreateSizedMemPool(c.pool, 128, nil)
					stamp := func(m *mempool.Mbuf, now sim.Time) { stamps = append(stamps, now) }
					p = &core.PushTx{Queue: tx.GetTxQueue(0), Schedule: core.Uniform(300*ns, c.interval), Batch: batch}
					p.Slot = func(uint64) { p.Send(pool, 60, stamp) }
					app.LaunchTask("push", p.Run)
					return &p.Sent
				})
				return tr, p.Failed, stamps
			}
			one, failed1, stamps1 := run(1)
			many, failed32, stamps32 := run(32)
			sameTrace(t, "batch 32", one, many)
			if failed1 != failed32 || !slices.Equal(stamps1, stamps32) {
				t.Fatalf("failed %d vs %d; %d vs %d stamps, equal %v",
					failed1, failed32, len(stamps1), len(stamps32), slices.Equal(stamps1, stamps32))
			}
			slots := uint64((c.window-300*ns-1)/c.interval) + 1 // deadlines before the stop time
			if one.sent+failed1 != slots || (failed1 > 0) != c.failed {
				t.Fatalf("sent %d + failed %d over %d slots", one.sent, failed1, slots)
			}
			// Below line rate Batch 32 saves the task wake of 31 slots
			// in 32.
			if c.fewerE && one.events < many.events+slots/2 {
				t.Fatalf("batch 32 fired %d events, batch 1 %d: no lookahead", many.events, one.events)
			}
		})
	}
}

// TestSharedTxPool: the TX loops draw from the engine's shared
// transmit pool — launching a loop must not create a private mempool —
// and every buffer they took is back in the pool once the run drains.
func TestSharedTxPool(t *testing.T) {
	app := core.NewApp(3)
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: 2})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })

	g := &core.GapTx{Queue: tx.GetTxQueue(0), Pattern: rate.NewCBRPPS(1e6), PktSize: 60}
	h := &core.HWRateTx{Queue: tx.GetTxQueue(1), PPS: 1e6, PktSize: 60}
	app.LaunchTask("gap", g.Run)
	app.LaunchTask("hw", h.Run)
	app.RunFor(2 * sim.Millisecond)

	pool := app.TxPool()
	allocs, frees := pool.Stats()
	if sent := g.Sent + g.Fillers + h.Sent; g.Sent == 0 || h.Sent == 0 || allocs < sent {
		t.Fatalf("%d allocations from the shared pool for %d frames sent (gap %d, hw %d)", allocs, sent, g.Sent, h.Sent)
	}
	if frees != allocs || pool.Available() != pool.Count() {
		t.Fatalf("pool leaked: %d allocs, %d frees, %d of %d free", allocs, frees, pool.Available(), pool.Count())
	}
}
