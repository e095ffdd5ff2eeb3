package nic

import (
	"sync"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// recycleRx returns drained receive buffers through the port's receive
// cache, as RxBufArray's FreeAll does in a driver drain loop.
func recycleRx(p *Port, bufs []*mempool.Mbuf) {
	for _, m := range bufs {
		p.rxCache.Put(m)
	}
}

// rxDrainAll drains every packet of a queue, returning the UDP source
// ports in delivery order and the per-packet arrival records.
func rxDrainAll(q *RxQueue) (ports []uint16, arrivals []int64) {
	out := make([]*mempool.Mbuf, 64)
	for {
		n := q.RecvBurst(out)
		if n == 0 {
			return ports, arrivals
		}
		for _, m := range out[:n] {
			ports = append(ports, proto.UDPPacket{B: m.Payload()}.UDP().SrcPort())
			arrivals = append(arrivals, m.RxMeta.Arrival)
		}
		recycleRx(q.Port(), out[:n])
	}
}

// TestRxTrainInvariant: the receive write-back train only groups how
// descriptors are published — the delivered packet sequence, the
// per-packet arrival records and the port counters are identical at
// RxTrain 1 (per-packet publication) and 32.
func TestRxTrainInvariant(t *testing.T) {
	run := func(train int) ([]uint16, []int64, Stats) {
		eng := sim.NewEngine(21)
		a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
		b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxTrain: train})
		ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
		pool := mempool.New(mempool.Config{Count: 512})
		q := a.GetTxQueue(0)
		eng.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				for {
					m := makeUDP(pool, 60, uint16(i))
					if m != nil && q.SendOne(m) {
						break
					}
					if m != nil {
						m.Free()
					}
					p.Sleep(sim.Microsecond)
				}
				if i%7 == 0 {
					p.Sleep(3 * sim.Microsecond)
				}
			}
		})
		eng.RunAll()
		ports, arrivals := rxDrainAll(b.GetRxQueue(0))
		return ports, arrivals, b.CounterSnapshot()
	}

	p1, a1, s1 := run(1)
	p32, a32, s32 := run(32)
	if len(p1) != 300 || len(p32) != 300 {
		t.Fatalf("delivered %d/%d packets, want 300", len(p1), len(p32))
	}
	for i := range p1 {
		if p1[i] != p32[i] {
			t.Fatalf("packet %d: train=1 delivered src %d, train=32 delivered %d", i, p1[i], p32[i])
		}
		if a1[i] != a32[i] {
			t.Fatalf("packet %d: arrival records differ: %d vs %d", i, a1[i], a32[i])
		}
	}
	if s1 != s32 {
		t.Fatalf("port stats differ: %+v vs %+v", s1, s32)
	}
}

// TestRxCountersConcurrentReads is the race pin for the receive
// counters: Received and Missed may be read from outside the engine's
// goroutine (a master goroutine monitoring a sharded run) while the
// datapath runs. Run with -race.
func TestRxCountersConcurrentReads(t *testing.T) {
	eng := sim.NewEngine(22)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1, RxRingSize: 64})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 256})
	q := a.GetTxQueue(0)
	eng.Spawn("tx", func(p *sim.Proc) {
		pumpQueue(p, pool, q, 60, 7)
	})
	eng.Spawn("drain", func(p *sim.Proc) {
		out := make([]*mempool.Mbuf, 16)
		for p.Running() {
			if n := b.GetRxQueue(0).RecvBurst(out); n > 0 {
				recycleRx(b, out[:n])
			}
			p.Sleep(40 * sim.Microsecond) // slow drain: forces ring-full drops
		}
	})
	eng.SetRunFor(2 * sim.Millisecond)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Monitoring reads racing the engine goroutine's datapath.
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			rxq := b.GetRxQueue(0)
			if got := rxq.Received(); got < last {
				t.Error("Received went backwards")
				return
			} else {
				last = got
			}
			_ = rxq.Missed()
		}
	}()
	eng.RunAll()
	close(done)
	wg.Wait()

	rxq := b.GetRxQueue(0)
	if rxq.Received() == 0 {
		t.Fatal("no packets received")
	}
	if rxq.Missed() == 0 {
		t.Fatal("slow drain produced no ring-full drops; the test lost its point")
	}
}
