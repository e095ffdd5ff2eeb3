package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/wire"
)

// pollRxBed cables a generator to a receiver (10GBASE-T: ~2.2 µs from
// send to arrival) and launches send on the generator and the PollRx
// kernel k on the receiver, both bound to the receiver's queue. It runs
// for runtime and returns the kernel's exit instant and the receiver's
// counters at that instant.
func pollRxBed(seed int64, k *PollRx, runtime sim.Duration,
	send func(t *Task, q *nic.TxQueue, pool *mempool.Pool)) (exit sim.Time, atExit nic.Stats) {
	app := NewApp(seed)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: 4096, RxPool: 8192})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	pool := CreateMemPool(2048, udpPrefill(60))
	app.LaunchTask("send", func(t *Task) { send(t, tx.GetTxQueue(0), pool) })
	k.Queue = rx.GetRxQueue(0)
	app.LaunchTask("rx", func(t *Task) {
		k.Run(t)
		exit, atExit = t.Now(), rx.CounterSnapshot()
	})
	app.RunFor(runtime)
	return exit, atExit
}

// TestPollRxStopRule pins when the kernel stops: at its first empty
// poll at or after the run end, once Drain has passed since then. A
// frame sent 1 µs before the run end arrives after it; only a kernel
// still polling then receives it.
func TestPollRxStopRule(t *testing.T) {
	const us = sim.Microsecond
	cases := []struct {
		name     string
		runtime  sim.Duration
		drain    sim.Duration
		wantExit sim.Duration
		wantRecv uint64
	}{
		// Polls at 0, 20, …, 100 µs: the one at the run end is empty.
		{"drain 0, run end on a poll", 100 * us, 0, 100 * us, 1},
		// The first poll after a 110 µs run end is at 120 µs, and it
		// still reads the frame that arrived at ~111 µs.
		{"drain 0, run end between polls", 110 * us, 0, 120 * us, 2},
		// Empty at 100 µs sets the deadline; 120 µs has the frame; the
		// first empty poll at or after 150 µs is 160 µs.
		{"drain past several polls", 100 * us, 50 * us, 160 * us, 2},
		// Deadline 105 µs: the poll at 120 µs reads the frame, then
		// stops at its empty re-poll in the same instant.
		{"drain shorter than a poll", 100 * us, 5 * us, 120 * us, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := &PollRx{Drain: c.drain}
			var hooked int
			k.Burst = func(bufs []*mempool.Mbuf, _ sim.Time) { hooked += len(bufs) }
			exit, _ := pollRxBed(1, k, c.runtime, func(t *Task, q *nic.TxQueue, pool *mempool.Pool) {
				for _, at := range []sim.Duration{10 * us, c.runtime - us} {
					t.SleepUntil(sim.Time(at))
					q.SendOne(pool.Alloc(60))
				}
			})
			if exit != sim.Time(c.wantExit) {
				t.Errorf("kernel exited at %v, want %v", exit, sim.Time(c.wantExit))
			}
			if k.Received != c.wantRecv || uint64(hooked) != c.wantRecv {
				t.Errorf("received %d, hooked %d, want %d", k.Received, hooked, c.wantRecv)
			}
			if k.Bytes != 60*c.wantRecv {
				t.Errorf("bytes %d, want %d", k.Bytes, 60*c.wantRecv)
			}
		})
	}
}

// TestPollRxReceivesEveryAdmittedFrameProperty: for random poll
// intervals, burst sizes, run lengths and drains, under random traffic,
// the kernel leaves nothing behind — at its exit, Received equals the
// frames the port admitted, and every one reached the hook exactly once.
func TestPollRxReceivesEveryAdmittedFrameProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 40; i++ {
		poll := sim.Duration(1+rng.Intn(50)) * sim.Microsecond
		batch := 1 + rng.Intn(64)
		runtime := sim.Duration(20+rng.Intn(400)) * sim.Microsecond
		drain := sim.Duration(rng.Intn(4)) * sim.Duration(rng.Intn(40)) * sim.Microsecond
		maxGap := int64(1 + rng.Intn(2000)) // ns
		name := fmt.Sprintf("poll=%v batch=%d runtime=%v drain=%v gap<%dns", poll, batch, runtime, drain, maxGap)
		k := &PollRx{Poll: poll, Batch: batch, Drain: drain}
		var hooked uint64
		k.Burst = func(bufs []*mempool.Mbuf, _ sim.Time) {
			if len(bufs) > batch {
				t.Fatalf("%s: burst of %d", name, len(bufs))
			}
			hooked += uint64(len(bufs))
		}
		_, atExit := pollRxBed(int64(i), k, runtime, func(t *Task, q *nic.TxQueue, pool *mempool.Pool) {
			gaps := t.Engine().Rand()
			for t.Running() {
				if m := pool.Alloc(60); m != nil && !q.SendOne(m) {
					m.Free()
				}
				t.Sleep(sim.Duration(gaps.Int63n(maxGap)) * sim.Nanosecond)
			}
		})
		if atExit.RxPackets == 0 || atExit.RxMissed != 0 {
			t.Fatalf("%s: %d frames admitted, %d missed", name, atExit.RxPackets, atExit.RxMissed)
		}
		if k.Received != atExit.RxPackets || hooked != k.Received {
			t.Fatalf("%s: port admitted %d, kernel received %d, hook saw %d",
				name, atExit.RxPackets, k.Received, hooked)
		}
	}
}
