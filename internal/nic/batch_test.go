package nic

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// batchBed builds one TX port wired to a sink that records delivery
// instants; arrivals pulls the sink and returns them.
func batchBed(seed int64) (eng *sim.Engine, a *Port, pool *mempool.Pool, departures *[]sim.Time, arrivals func() []sim.Time) {
	eng = sim.NewEngine(seed)
	a = NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxQueues: 2})
	b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1})
	ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
	pool = mempool.New(mempool.Config{Count: 4096})
	departures = &[]sim.Time{}
	var arrived []sim.Time
	a.SetTxTrace(func(q *TxQueue, m *mempool.Mbuf, at sim.Time) {
		*departures = append(*departures, at)
	})
	b.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		arrived = append(arrived, at)
		return true
	})
	return eng, a, pool, departures, func() []sim.Time { b.PullRx(); return arrived }
}

// TestTrainBackToBackGrid pins the batched scheduler's timing grid
// directly: a burst committed in one event departs on exact
// frame-time spacing — 67.2 ns for 64 B frames at 10 GbE, byte-exact.
func TestTrainBackToBackGrid(t *testing.T) {
	eng, a, pool, departures, _ := batchBed(6)
	q := a.GetTxQueue(0)
	eng.Schedule(0, func() {
		batch := make([]*mempool.Mbuf, 32)
		n := pool.AllocBatch(batch, 60)
		for _, m := range batch[:n] {
			proto.EthHdr(m.Payload()[:proto.EthHdrLen]).Fill(proto.EthFill{EtherType: proto.EtherTypeIPv4})
		}
		q.Send(batch[:n])
	})
	eng.RunAll()
	if len(*departures) != 32 {
		t.Fatalf("%d departures", len(*departures))
	}
	frameTime := wire.FrameTime(wire.Speed10G, 64) // 84 bytes * 0.8 ns
	for i, at := range *departures {
		want := sim.Time(0).Add(sim.Duration(i) * frameTime)
		if at != want {
			t.Fatalf("frame %d departed at %v, want %v", i, at, want)
		}
	}
}

// TestTrainYieldsToOtherQueue: the burst fast path must not starve
// arbitration — with a second queue active, the scheduler falls back
// to per-slot evaluation and round-robins the wire.
func TestTrainYieldsToOtherQueue(t *testing.T) {
	eng, a, pool, _, _ := batchBed(7)
	q0, q1 := a.GetTxQueue(0), a.GetTxQueue(1)
	var order []int
	a.SetTxTrace(func(q *TxQueue, m *mempool.Mbuf, at sim.Time) {
		if len(order) < 16 {
			order = append(order, q.id)
		}
	})
	eng.Schedule(0, func() {
		batch := make([]*mempool.Mbuf, 8)
		n := pool.AllocBatch(batch, 60)
		q0.Send(batch[:n])
		n = pool.AllocBatch(batch, 60)
		q1.Send(batch[:n])
	})
	eng.RunAll()
	if len(order) != 16 {
		t.Fatalf("%d frames", len(order))
	}
	zeros := 0
	for _, id := range order[:8] {
		if id == 0 {
			zeros++
		}
	}
	// Strict alternation: both queues eligible at every slot.
	if zeros != 4 {
		t.Fatalf("first 8 slots served queue 0 %d times, want 4 (round-robin): %v", zeros, order)
	}
}

// TestJitterStreamIndependentOfEngineDraws: PHY receive jitter comes
// from the link's private stream, so frame i's jitter depends only on
// i — interleaving unrelated draws on the engine RNG (as a task with a
// different batch size would) must not move a single arrival.
func TestJitterStreamIndependentOfEngineDraws(t *testing.T) {
	run := func(extraDraws int) []sim.Time {
		eng, a, pool, _, arrivals := batchBed(9)
		q := a.GetTxQueue(0)
		eng.Schedule(0, func() {
			for i := 0; i < extraDraws; i++ {
				eng.Rand().Int63() // unrelated simulation randomness
			}
			batch := make([]*mempool.Mbuf, 32)
			n := pool.AllocBatch(batch, 60)
			for _, m := range batch[:n] {
				proto.EthHdr(m.Payload()[:proto.EthHdrLen]).Fill(proto.EthFill{EtherType: proto.EtherTypeIPv4})
			}
			q.Send(batch[:n])
		})
		eng.RunAll()
		return arrivals()
	}
	base, perturbed := run(0), run(17)
	if len(base) != 32 || len(perturbed) != 32 {
		t.Fatalf("arrival counts %d/%d", len(base), len(perturbed))
	}
	for i := range base {
		if base[i] != perturbed[i] {
			t.Fatalf("arrival %d moved when engine RNG was perturbed: %v vs %v", i, base[i], perturbed[i])
		}
	}
}

// TestNoGlobalRandState is the sharded-determinism regression test for
// the math/rand audit: a seeded single-port run must be bit-identical
// while other goroutines hammer the global math/rand source. Any nic
// or wire code path that reached for the global generator (instead of
// the engine's seeded streams) would race with the hammer and change
// the jittered arrival schedule between runs.
func TestNoGlobalRandState(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rand.Int63() // the global source the audit bans
				}
			}
		}()
	}
	run := func() []sim.Time {
		eng, a, pool, _, arrivals := batchBed(11)
		q := a.GetTxQueue(0)
		eng.SetStopTime(sim.Time(200 * sim.Microsecond))
		eng.Spawn("tx", func(p *sim.Proc) { pumpQueue(p, pool, q, 60, 1) })
		eng.RunAll()
		return arrivals()
	}
	first, second := run(), run()
	close(stop)
	wg.Wait()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("arrival counts %d/%d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run not deterministic under global-rand load at frame %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestHeldHeadLaunchTime pins the LaunchTime descriptor model: a frame
// stamped with TxMeta.LaunchAt departs at max(launch, link free), never
// earlier, on a one-queue port (the train's fast path) and a two-queue
// one; a frame on another queue is not blocked behind it; a pause
// across the launch time delays it to the resume instead of losing it.
func TestHeldHeadLaunchTime(t *testing.T) {
	frame := sim.Time(wire.FrameTime(wire.Speed10G, 64)) // 60 B + FCS: 67.2 ns on the wire
	us := sim.Time(sim.Microsecond)
	type dep struct {
		queue int
		at    sim.Time
	}
	bed := func(queues int) (*sim.Engine, *Port, func(q int, launch sim.Time), *[]dep) {
		eng := sim.NewEngine(3)
		a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0, TxQueues: queues})
		b := NewPort(eng, PortConfig{Profile: ChipX540, ID: 1})
		ConnectDuplex(eng, a, b, wire.PHY10GBaseT, 2)
		b.SetDeliverHook(func(*wire.Frame, sim.Time) bool { return true })
		pool := mempool.New(mempool.Config{Count: 64})
		deps := &[]dep{}
		a.SetTxTrace(func(q *TxQueue, m *mempool.Mbuf, at sim.Time) {
			*deps = append(*deps, dep{q.id, at})
		})
		send := func(q int, launch sim.Time) {
			m := pool.Alloc(60)
			m.TxMeta.LaunchAt = launch
			if !a.GetTxQueue(q).SendOne(m) {
				t.Fatal("ring refused a frame")
			}
		}
		return eng, a, send, deps
	}
	check := func(t *testing.T, got []dep, want ...dep) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("departures %v, want %v", got, want)
		}
	}

	for _, queues := range []int{1, 2} {
		t.Run(fmt.Sprintf("max-of-launch-and-link/queues=%d", queues), func(t *testing.T) {
			eng, _, send, deps := bed(queues)
			eng.Schedule(0, func() {
				for i := 0; i < 4; i++ {
					send(0, 0) // the wire is busy until 4 frame times
				}
				send(0, 100*sim.Time(sim.Nanosecond)) // launch before link free
				send(0, us)                           // launch after link free
			})
			eng.RunAll()
			check(t, *deps, dep{0, 0}, dep{0, frame}, dep{0, 2 * frame}, dep{0, 3 * frame}, dep{0, 4 * frame}, dep{0, us})
		})
	}

	t.Run("other-queue-not-blocked", func(t *testing.T) {
		eng, _, send, deps := bed(2)
		eng.Schedule(0, func() { send(0, us) })
		eng.Schedule(100*sim.Time(sim.Nanosecond), func() { send(1, 0) })
		eng.RunAll()
		check(t, *deps, dep{1, 100 * sim.Time(sim.Nanosecond)}, dep{0, us})
	})

	t.Run("pause-across-launch", func(t *testing.T) {
		eng, a, send, deps := bed(2)
		eng.Schedule(0, func() { send(0, us) })
		eng.Schedule(us/2, a.PauseTx)
		eng.Schedule(2*us, a.ResumeTx)
		eng.RunAll()
		check(t, *deps, dep{0, 2 * us})
	})

	t.Run("pause-before-launch", func(t *testing.T) {
		eng, a, send, deps := bed(2)
		eng.Schedule(0, func() { send(0, us) })
		eng.Schedule(us/4, a.PauseTx)
		eng.Schedule(us/2, a.ResumeTx)
		eng.RunAll()
		check(t, *deps, dep{0, us})
	})
}
