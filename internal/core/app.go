// Package core is the MoonGen API: devices with hardware queues, tasks
// (the Go analogue of Lua slave tasks in their own VMs), blocking batch
// send/receive, the burst and slot-paced TX kernels,
// hardware-timestamped latency measurement, and the CRC-gap software
// rate control — everything a "userscript" needs, structured after the
// paper's Listings 1-3.
package core

import (
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
)

// App owns the simulated testbed: engine, devices and tasks. It plays
// the role of MoonGen's master task: configure devices, launch slaves,
// wait for them (Listing 1).
type App struct {
	Eng   *sim.Engine
	tasks []*sim.Proc

	// Shard identifies the multicore shard this app models when it is
	// one engine of a sharded group (set by internal/multicore); 0 for
	// ordinary single-engine apps.
	Shard int

	txPool *mempool.Pool
}

// NewApp creates an App with a deterministic seed.
func NewApp(seed int64) *App {
	return &App{Eng: sim.NewEngine(seed)}
}

// txPoolCount sizes the shared transmit pool: comfortably more
// than a descriptor ring plus the frames in flight on a 10 GbE wire.
const txPoolCount = 8192

// TxPool returns the app's shared transmit mempool (created on first
// use). One App is one engine is one modeled core, and all tasks of the
// engine run serialized, so the TX loops that fill every packet from
// scratch share this one pool directly; scenarios with prefilled
// per-flow templates keep their own pools.
func (a *App) TxPool() *mempool.Pool {
	if a.txPool == nil {
		a.txPool = mempool.New(mempool.Config{Count: txPoolCount})
	}
	return a.txPool
}

// TxPoolPeek returns the shared transmit pool without forcing its
// lazy creation — nil while no TX loop has drawn from it. Monitoring
// code samples through this so observing an app that fills from its
// own sized pools never materializes the shared pool.
func (a *App) TxPoolPeek() *mempool.Pool { return a.txPool }

// Task is the execution context handed to slave functions — MoonGen's
// per-task Lua VM. It embeds the simulation process (Sleep/
// Running) and adds the blocking packet-IO idioms.
type Task struct {
	*sim.Proc
	app *App

	// sendQ is the queue a blocked SendAll waits on; txReady, the
	// prebound check of its polls, reads it.
	sendQ   *nic.TxQueue
	txReady func() bool
}

// LaunchTask starts fn as a new task — mg.launchLua("slave", args...)
// with the args captured by the closure.
func (a *App) LaunchTask(name string, fn func(t *Task)) {
	p := a.Eng.Spawn(name, func(p *sim.Proc) {
		t := &Task{Proc: p, app: a}
		t.txReady = t.txRoom
		fn(t)
	})
	a.tasks = append(a.tasks, p)
}

// RunFor runs the simulation for d of simulated time, then drains
// remaining events (tasks observe Running()==false and finalize) —
// master-task mg.waitForSlaves with a run limit.
func (a *App) RunFor(d sim.Duration) {
	a.Eng.SetRunFor(d)
	a.Eng.RunAll()
}

// Now returns the current simulated time.
func (a *App) Now() sim.Time { return a.Eng.Now() }

// backoff is the polling interval for busy-wait loops. DPDK
// applications busy-poll (§5.1); one µs keeps simulated polling cheap
// while staying far below any timing scale under test. The waits that
// only re-check a condition (SendAll's full ring, a probe's timestamp
// registers) poll it with Proc.Poll, in the engine; the idle receive
// poll and the dry-pool retry sleep, since their wake does the work.
const backoff = sim.Microsecond

// SendAll enqueues the whole burst, busy-waiting while the descriptor
// ring is full — the blocking behaviour of MoonGen's queue:send(bufs).
// It returns the number actually sent; a short count happens only when
// the run ends mid-send (remaining buffers are freed). The stop
// boundary is checked before each push, so the frames handed to the
// NIC are exactly those pushed while the run was live — independent of
// how the caller grouped them into bursts, which is what pins the
// batch-size invariance of the transmit counters. The wait polls the
// ring every backoff in the engine (Proc.Poll), so a retry that would
// find the ring still full costs the task no wake.
func (t *Task) SendAll(q *nic.TxQueue, bufs []*mempool.Mbuf) int {
	sent := 0
	for {
		if sent == len(bufs) {
			return sent
		}
		if !t.Running() {
			for _, m := range bufs[sent:] {
				m.Free()
			}
			return sent
		}
		sent += q.Send(bufs[sent:])
		if sent < len(bufs) {
			t.sendQ = q
			t.Poll(backoff, t.txReady)
			t.sendQ = nil
		}
	}
}

// txRoom is SendAll's poll check: the retry it would make sends a frame
// or sees the run end.
func (t *Task) txRoom() bool { return !t.Running() || t.sendQ.Free() > 0 }
