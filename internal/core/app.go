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

	// TxPoolSize overrides the shared transmit pool's buffer count
	// when set before the pool is first used (default 8192).
	TxPoolSize int

	txPool  *mempool.Pool
	txCache *mempool.Cache
}

// NewApp creates an App with a deterministic seed.
func NewApp(seed int64) *App {
	return &App{Eng: sim.NewEngine(seed)}
}

// defaultTxPoolCount sizes the shared transmit pool: comfortably more
// than a descriptor ring plus the frames in flight on a 10 GbE wire.
const defaultTxPoolCount = 8192

// TxPool returns the app's shared transmit mempool (created on first
// use). TX loops that fill every packet from scratch draw from it
// through TxCache; scenarios with prefilled per-flow templates keep
// their own pools.
func (a *App) TxPool() *mempool.Pool {
	if a.txPool == nil {
		count := a.TxPoolSize
		if count <= 0 {
			count = defaultTxPoolCount
		}
		a.txPool = mempool.New(mempool.Config{Count: count})
	}
	return a.txPool
}

// TxPoolPeek returns the shared transmit pool without forcing its
// lazy creation — nil while no TX loop has drawn from it. Monitoring
// code samples through this so observing an app that fills from its
// own sized pools never materializes the shared pool.
func (a *App) TxPoolPeek() *mempool.Pool { return a.txPool }

// TxCache returns the engine's allocation front over TxPool — the
// per-core mempool cache of this modeled core (one App is one engine
// is one core; all tasks of the engine run serialized, so they share
// the cache safely). This is what makes every TX loop draw from one
// per-core pool instead of allocating a private pool per task.
func (a *App) TxCache() *mempool.Cache {
	if a.txCache == nil {
		a.txCache = a.TxPool().NewCache(0)
	}
	return a.txCache
}

// Task is the execution context handed to slave functions — MoonGen's
// per-task Lua VM. It embeds the simulation process (Sleep/Yield/
// Running) and adds the blocking packet-IO idioms.
type Task struct {
	*sim.Proc
	app *App
}

// Cache returns the engine's shared per-core mempool cache (see
// App.TxCache).
func (t *Task) Cache() *mempool.Cache { return t.app.TxCache() }

// LaunchTask starts fn as a new task — mg.launchLua("slave", args...)
// with the args captured by the closure.
func (a *App) LaunchTask(name string, fn func(t *Task)) {
	p := a.Eng.Spawn(name, func(p *sim.Proc) {
		fn(&Task{Proc: p, app: a})
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

// Run runs until all tasks finish on their own.
func (a *App) Run() { a.Eng.RunAll() }

// Now returns the current simulated time.
func (a *App) Now() sim.Time { return a.Eng.Now() }

// backoff is the polling interval for busy-wait loops. DPDK
// applications busy-poll (§5.1); one µs keeps simulated polling cheap
// while staying far below any timing scale under test.
const backoff = sim.Microsecond

// SendAll enqueues the whole burst, busy-waiting while the descriptor
// ring is full — the blocking behaviour of MoonGen's queue:send(bufs).
// It returns the number actually sent; a short count happens only when
// the run ends mid-send (remaining buffers are freed). The stop
// boundary is checked before each push, so the frames handed to the
// NIC are exactly those pushed while the run was live — independent of
// how the caller grouped them into bursts, which is what pins the
// batch-size invariance of the transmit counters.
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
			t.Sleep(backoff)
		}
	}
}

// RecvPoll receives a burst, polling until at least one packet arrives
// or the run ends — the counterSlave loop of Listing 3.
func (t *Task) RecvPoll(q *nic.RxQueue, out []*mempool.Mbuf) int {
	for {
		if n := q.RecvBurst(out); n > 0 {
			return n
		}
		if !t.Running() {
			// Final drain.
			return q.RecvBurst(out)
		}
		t.Sleep(backoff)
	}
}
