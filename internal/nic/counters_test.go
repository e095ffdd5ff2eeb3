package nic

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestCountersVisibleAfterTxTrain: an event scheduled at the instant of
// a committed transmit train, right after the commit, sees the whole
// train in CounterSnapshot — no publication step stands between the
// MAC scheduler and a same-instant reader.
func TestCountersVisibleAfterTxTrain(t *testing.T) {
	eng, a, _ := testPair(t, 31)
	pool := mempool.New(mempool.Config{Count: 2048})
	var commits, bytes uint64
	var checks, lastSeen, widest uint64
	armed := false
	check := func() {
		armed = false
		checks++
		st := a.CounterSnapshot()
		if st.TxPackets != commits || st.TxBytes != bytes {
			t.Fatalf("at %v: snapshot tx %d pkts / %d B, committed %d / %d",
				eng.Now(), st.TxPackets, st.TxBytes, commits, bytes)
		}
		if d := st.TxPackets - lastSeen; d > widest {
			widest = d
		}
		lastSeen = st.TxPackets
	}
	a.SetTxTrace(func(_ *TxQueue, m *mempool.Mbuf, _ sim.Time) {
		commits++
		bytes += uint64(m.Len)
		if !armed {
			armed = true
			eng.Schedule(eng.Now(), check)
		}
	})
	eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, a.GetTxQueue(0), 60, 9) })
	eng.SetRunFor(200 * sim.Microsecond)
	eng.RunAll()
	if checks == 0 || widest < 2 {
		t.Fatalf("%d checks, widest train %d: the run committed no multi-frame train", checks, widest)
	}
}

// missWatch is the receiving end of a link: it delivers every pulled
// frame into port and, after every delivery that cost a ring-full drop,
// schedules onDrop at the same instant with the port's miss count right
// after the drop.
type missWatch struct {
	eng    *sim.Engine
	port   *Port
	onDrop func(missed uint64)
}

func (w *missWatch) DeliverFrame(f *wire.Frame, rxTime sim.Time) {
	before := w.port.stats.RxMissed
	w.port.DeliverFrame(f, rxTime)
	if missed := w.port.stats.RxMissed; missed > before {
		w.eng.Schedule(w.eng.Now(), func() { w.onDrop(missed) })
	}
}

// TestCountersVisibleAfterRxDrop: an event scheduled right after a
// ring-full receive drop, at the same instant, sees the RxMissed it
// caused. A polling process pulls the link every 50 ns.
func TestCountersVisibleAfterRxDrop(t *testing.T) {
	eng := sim.NewEngine(32)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxRingSize: 8})
	checks := 0
	w := &missWatch{eng: eng, port: b, onDrop: func(missed uint64) {
		checks++
		if st := b.CounterSnapshot(); st.RxMissed < missed {
			t.Fatalf("at %v: snapshot RxMissed %d, the drop made it %d", eng.Now(), st.RxMissed, missed)
		}
	}}
	link := wire.NewLink(eng, a.Speed(), wire.PHY10GBaseT, 2, w)
	a.Connect(link)
	pool := mempool.New(mempool.Config{Count: 256})
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		for i := 0; i < 40; i++ {
			q.SendOne(makeUDP(pool, 60, uint16(i)))
		}
	})
	eng.Spawn("poll", func(p *sim.Proc) {
		for p.Running() {
			link.Pull()
			p.Sleep(50 * sim.Nanosecond)
		}
	})
	eng.SetRunFor(10 * sim.Microsecond)
	eng.RunAll()
	if st := b.CounterSnapshot(); checks == 0 || st.RxMissed != 32 {
		t.Fatalf("%d checks, RxMissed %d, want 32 drops behind a ring of 8", checks, st.RxMissed)
	}
}

// TestRxBufferConservation floods a port and drains it in bursts
// (RecvBurst/Release). Every receive buffer stays accounted for, at
// every drain step and with nothing to flush: the port's free buffers
// plus the frames in the ring plus the frames handed out and not yet
// released are RxPoolSize, and a released frame is no longer retained
// by anyone. It runs with a pool smaller than the ring
// (drops from a dry pool) and a ring smaller than the pool (drops from
// a full ring).
func TestRxBufferConservation(t *testing.T) {
	for _, c := range []struct{ pool, ring int }{{96, 512}, {4096, 64}} {
		eng := sim.NewEngine(33)
		a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
		b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxPoolSize: c.pool, RxRingSize: c.ring})
		ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
		pool := mempool.New(mempool.Config{Count: 2048})
		eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, a.GetTxQueue(0), 60, 3) })
		rxq := b.GetRxQueue(0)
		conserved := func(when string) {
			free, ring := b.RxPoolAvail(), pending(rxq)
			if got := free + ring + len(rxq.held); got != c.pool {
				t.Fatalf("pool %d ring %d %s: %d free + %d in the ring + %d held, want %d",
					c.pool, c.ring, when, free, ring, len(rxq.held), c.pool)
			}
		}
		eng.Spawn("drain", func(p *sim.Proc) {
			out := make([]*mempool.Mbuf, 32)
			var burst []*wire.Frame
			for p.Running() {
				if rxq.RecvBurst(out) > 0 {
					conserved("holding a burst")
				}
				burst = append(burst[:0], rxq.held...)
				rxq.Release()
				for _, f := range burst {
					if stillRetained(f) {
						t.Fatalf("pool %d ring %d: a released frame is still retained", c.pool, c.ring)
					}
				}
				conserved("mid-run")
				p.Sleep(3 * sim.Microsecond) // slower than line rate: the backlog grows
			}
		})
		eng.SetRunFor(500 * sim.Microsecond)
		eng.RunAll()
		conserved("after the run")
		if b.CounterSnapshot().RxMissed == 0 {
			t.Fatalf("pool %d ring %d: no frame dropped", c.pool, c.ring)
		}
	}
}

// stillRetained reports whether f is retained, by releasing it:
// Release panics on a frame that is not.
func stillRetained(f *wire.Frame) (retained bool) {
	defer func() { retained = recover() == nil }()
	f.Release()
	return
}
