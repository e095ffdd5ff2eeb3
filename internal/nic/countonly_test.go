package nic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rxBurst is one burst a PollRx kernel handed to its hook.
type rxBurst struct {
	n     int
	bytes uint64
	now   sim.Time
}

// rxRun is what a receiver saw of one arrival sequence.
type rxRun struct {
	bursts   []rxBurst
	received uint64
	bytes    uint64
	stats    nic.Stats
	pooled   bool // the receiving port built its receive pool
}

// rxCase is one seeded arrival sequence and the kernel that drains it.
type rxCase struct {
	seed  int64
	ring  int // RxRingSize of the receiving port
	batch int
	poll  sim.Duration
}

func (c rxCase) String() string {
	return fmt.Sprintf("seed=%d ring=%d batch=%d poll=%v", c.seed, c.ring, c.batch, c.poll)
}

// receiveArrivals cables a generator to a receiver whose one queue has
// c.ring descriptors and sends a seeded arrival sequence: runs of
// back-to-back frames of random sizes (a run may be several rings
// long, so the ring overflows) separated by random idle gaps. The
// receiver drains with k, whose Queue, Batch and Poll it sets.
func receiveArrivals(c rxCase, k *core.PollRx) nic.Stats {
	app := core.NewApp(c.seed)
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: c.ring, RxPool: 4096})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 2048})
	rng := rand.New(rand.NewSource(c.seed))
	app.LaunchTask("send", func(t *core.Task) {
		q := tx.GetTxQueue(0)
		for t.Running() {
			run := make([]*mempool.Mbuf, 1+rng.Intn(3*c.ring))
			for i := range run {
				run[i] = pool.Alloc(frameLen(rng))
				if run[i] == nil {
					panic("send: transmit pool ran dry")
				}
			}
			t.SendAll(q, run)
			t.Sleep(sim.Duration(rng.Intn(40)) * sim.Microsecond)
		}
	})
	k.Queue, k.Batch, k.Poll = rx.GetRxQueue(0), c.batch, c.poll
	var atExit nic.Stats
	app.LaunchTask("rx", func(t *core.Task) {
		k.Run(t)
		atExit = rx.CounterSnapshot()
	})
	app.RunFor(400 * sim.Microsecond)
	return atExit
}

// receivePayload drains c's arrivals through a payload hook.
func receivePayload(c rxCase) rxRun {
	var r rxRun
	k := &core.PollRx{Burst: func(bufs []*mempool.Mbuf, now sim.Time) {
		var bytes uint64
		for _, m := range bufs {
			bytes += uint64(m.Len)
		}
		r.bursts = append(r.bursts, rxBurst{len(bufs), bytes, now})
	}}
	r.stats = receiveArrivals(c, k)
	r.received, r.bytes = k.Received, k.Bytes
	return r
}

// frameLen draws a frame size: minimum-size half the time (so a run
// outpaces a poll), otherwise uniform up to the maximum.
func frameLen(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return 60
	}
	return 60 + rng.Intn(1455)
}

// rxCases draws the differential cases: a ring that rounds up (5 → 8
// descriptors) and power-of-two rings, with bursts below and above
// the ring size.
func rxCases() []rxCase {
	rng := rand.New(rand.NewSource(37))
	var cs []rxCase
	for i := 0; i < 12; i++ {
		cs = append(cs, rxCase{
			seed:  int64(i + 1),
			ring:  []int{5, 8, 32}[i%3],
			batch: 1 + rng.Intn(48),
			poll:  sim.Duration(5+rng.Intn(40)) * sim.Microsecond,
		})
	}
	return cs
}

// TestPayloadQueueDrainsArrivals pins the payload half of the
// differential cases: every frame the port admitted reached the hook
// once, in bursts of at most the batch, and the ring overflowed.
func TestPayloadQueueDrainsArrivals(t *testing.T) {
	for _, c := range rxCases() {
		r := receivePayload(c)
		var n, bytes uint64
		for _, b := range r.bursts {
			if b.n == 0 || b.n > c.batch {
				t.Fatalf("%v: burst of %d", c, b.n)
			}
			n += uint64(b.n)
			bytes += b.bytes
		}
		if r.stats.RxMissed == 0 {
			t.Errorf("%v: the ring never overflowed", c)
		}
		if n != r.received || bytes != r.bytes || r.received != r.stats.RxPackets-r.stats.RxMissed {
			t.Errorf("%v: hook saw %d frames / %d B, kernel %d / %d B, port admitted %d of %d",
				c, n, bytes, r.received, r.bytes, r.stats.RxPackets-r.stats.RxMissed, r.stats.RxPackets)
		}
	}
}

// receiveCount drains c's arrivals through a count hook: the queue is
// count-only.
func receiveCount(c rxCase) rxRun {
	var r rxRun
	k := &core.PollRx{Count: func(n int, bytes uint64, now sim.Time) {
		r.bursts = append(r.bursts, rxBurst{n, bytes, now})
	}}
	r.stats = receiveArrivals(c, k)
	r.received, r.bytes = k.Received, k.Bytes
	r.pooled = k.Queue.Port().RxPoolPeek() != nil
	return r
}

// TestCountOnlyQueueMatchesPayloadQueue is the differential test of the
// two ways a receive queue holds frames: over the same seeded
// arrivals, drained by the same kernel batch and poll, a count-only
// queue counts exactly what a payload queue does — the same ring-full
// drops, statistics registers, kernel counts and burst sequence, burst
// by burst and instant by instant.
func TestCountOnlyQueueMatchesPayloadQueue(t *testing.T) {
	for _, c := range rxCases() {
		want, got := receivePayload(c), receiveCount(c)
		if got.pooled {
			t.Fatalf("%v: a count-only receiver built a receive pool", c)
		}
		if got.received != want.received || got.bytes != want.bytes || got.stats != want.stats {
			t.Fatalf("%v: count-only received %d / %d B, registers %+v; payload %d / %d B, %+v",
				c, got.received, got.bytes, got.stats, want.received, want.bytes, want.stats)
		}
		if len(got.bursts) != len(want.bursts) {
			t.Fatalf("%v: %d count-only bursts, %d payload bursts", c, len(got.bursts), len(want.bursts))
		}
		for i := range want.bursts {
			if got.bursts[i] != want.bursts[i] {
				t.Fatalf("%v: burst %d is %+v count-only, %+v payload", c, i, got.bursts[i], want.bursts[i])
			}
		}
	}
}

// TestCountOnlyQueueHoldsNoBuffers: a count-only queue has no buffers
// to hand out, and a queue that holds buffers cannot turn count-only.
func TestCountOnlyQueueHoldsNoBuffers(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	app := core.NewApp(1)
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	q := rx.GetRxQueue(0)
	q.SetCountOnly()
	mustPanic("RecvBurst on a count-only queue", func() { q.RecvBurst(make([]*mempool.Mbuf, 4)) })

	app = core.NewApp(1)
	tx = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx = app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	pool := mempool.New(mempool.Config{Count: 8})
	tx.GetTxQueue(0).SendOne(pool.Alloc(60))
	app.RunFor(10 * sim.Microsecond)
	q = rx.GetRxQueue(0)
	mustPanic("RecvCount on a payload queue", func() { q.RecvCount(4) })
	mustPanic("SetCountOnly on a queue that holds a buffer", q.SetCountOnly)
}
