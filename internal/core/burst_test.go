package core

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/rate"
	"repro/internal/sim"
)

// TestBurstTxDryPoolBacksOff: a pool smaller than one burst makes every
// allocation partial or empty. The kernel sends what it got, backs off
// while the NIC holds every buffer, and neither loses nor double-counts
// a frame.
func TestBurstTxDryPoolBacksOff(t *testing.T) {
	app, q, delivered := pushBed(21, 0)
	pool := CreateSizedMemPool(5, 60, udpPrefill(60))
	var written, partial uint64
	b := &BurstTx{Queue: q, Bufs: pool.BufArray(8), Size: 60,
		Frame: func(*mempool.Mbuf, uint64) { written++ },
		BeforeSend: func(n int) {
			if n < 8 {
				partial++
			}
		},
	}
	app.LaunchTask("burst", b.Run)
	app.RunFor(100 * sim.Microsecond)
	if b.Sent < 400 || partial == 0 {
		t.Fatalf("sent %d in %d partial bursts; want >= 400 through a dry pool", b.Sent, partial)
	}
	if written != b.Sent || uint64(delivered()) != b.Sent {
		t.Fatalf("wrote %d, sent %d, delivered %d; want all equal", written, b.Sent, delivered())
	}
	if pool.Available() != pool.Count() {
		t.Fatalf("pool back to %d of %d", pool.Available(), pool.Count())
	}
}

// TestBurstTxRingFullRunEnd: a 1 Mpps shaper behind an 8-deep ring
// cannot drain a 32-frame burst, so SendAll blocks on the full ring
// until the run ends mid-burst. Sent equals the frames the port
// accepted, only that last burst goes short, and a per-size tally
// kept the way imix keeps it rolls back exactly the refused frames.
func TestBurstTxRingFullRunEnd(t *testing.T) {
	app, q, delivered := pushBed(22, 8)
	q.SetRatePPS(1e6)
	sizes := [3]int{60, 100, 200}
	var (
		written   uint64
		slotSize  [32]int
		tally     [3]uint64
		shortSent int
	)
	b := &BurstTx{Queue: q, Bufs: app.TxPool().BufArray(32), Size: 60,
		Frame: func(m *mempool.Mbuf, i uint64) {
			slotSize[i%32] = int(i % 3)
			m.Reset(sizes[i%3])
			written++
		},
		AfterSend: func(n, sent int) {
			if sent < n {
				shortSent++
			}
			for j := range slotSize[:sent] {
				tally[slotSize[j]]++
			}
		},
	}
	app.LaunchTask("burst", b.Run)
	app.RunFor(100 * sim.Microsecond)

	st := q.Port().CounterSnapshot()
	if b.Sent < 100 || b.Sent != st.TxPackets || uint64(delivered()) != b.Sent {
		t.Fatalf("sent %d, port transmitted %d, delivered %d", b.Sent, st.TxPackets, delivered())
	}
	if shortSent != 1 || written-b.Sent == 0 || written-b.Sent >= 32 {
		t.Fatalf("%d short sends, %d of %d written frames unsent; want the last burst only", shortSent, written-b.Sent, written)
	}
	var frames, bytes uint64
	for k, c := range tally {
		frames += c
		bytes += c * uint64(sizes[k])
	}
	if frames != b.Sent || bytes != st.TxBytes {
		t.Fatalf("tally %d frames/%d B, port %d frames/%d B", frames, bytes, st.TxPackets, st.TxBytes)
	}
	if pool := app.TxPool(); pool.Available() != pool.Count() {
		t.Fatalf("pool back to %d of %d", pool.Available(), pool.Count())
	}
}

// TestGapTxRunEndRollback: GapTx's per-frame tallies cover exactly the
// frames the port accepted — the real frames arrive, the fillers show
// up as CRC errors — and, because the run-end short send rolls back
// the refused ones, Sent, Fillers and SkippedGaps are the same at any
// batch size.
func TestGapTxRunEndRollback(t *testing.T) {
	type counts struct{ sent, fillers, skipped uint64 }
	run := func(batch int) counts {
		app, q, delivered := pushBed(23, 0)
		g := &GapTx{Queue: q, Pattern: rate.NewPoissonPPS(2e6), PktSize: 60, Batch: batch}
		app.LaunchTask("gap", g.Run)
		app.RunFor(2 * sim.Millisecond)
		st := q.Port().CounterSnapshot()
		if g.Sent+g.Fillers != st.TxPackets || uint64(delivered()) != g.Sent {
			t.Fatalf("batch %d: %d real + %d fillers, port transmitted %d, %d delivered",
				batch, g.Sent, g.Fillers, st.TxPackets, delivered())
		}
		if pool := app.TxPool(); pool.Available() != pool.Count() {
			t.Fatalf("batch %d: pool back to %d of %d", batch, pool.Available(), pool.Count())
		}
		return counts{g.Sent, g.Fillers, g.SkippedGaps}
	}
	one := run(1)
	if one.sent == 0 || one.skipped == 0 {
		t.Fatalf("want real frames and folded gaps at 2 Mpps Poisson: %+v", one)
	}
	for _, batch := range []int{5, 32} {
		if got := run(batch); got != one {
			t.Fatalf("batch %d counts %+v, batch 1 %+v", batch, got, one)
		}
	}
}

// TestBurstTxSteadyStateAllocs pins the kernel's hot path at zero heap
// allocations per burst once the testbed is warm.
func TestBurstTxSteadyStateAllocs(t *testing.T) {
	app, q, _ := pushBed(24, 0)
	var written uint64
	b := &BurstTx{Queue: q, Bufs: app.TxPool().BufArray(32), Size: 60,
		Frame: func(*mempool.Mbuf, uint64) { written++ }}
	app.LaunchTask("burst", b.Run)
	app.Eng.SetRunFor(sim.Second)
	until := sim.Time(100 * sim.Microsecond)
	app.Eng.Run(until) // fill the ring, warm the wheel buckets and free lists
	allocs := testing.AllocsPerRun(100, func() {
		until = until.Add(10 * sim.Microsecond)
		app.Eng.Run(until)
	})
	app.Eng.Stop()
	app.Eng.RunAll()
	if allocs != 0 {
		t.Fatalf("steady-state bursts allocate %.2f times per 10 µs, want 0", allocs)
	}
	if b.Sent < 10000 || written-b.Sent > 32 {
		t.Fatalf("sent %d of %d written frames", b.Sent, written)
	}
}
