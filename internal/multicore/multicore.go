// Package multicore is the sharded execution subsystem: it runs N
// independent deterministic sim.Engine shards on real goroutines, one
// per modeled core — the execution model behind the paper's §5
// multi-core scaling results (one slave task per core, each with its
// own queues and mempools, 178.5 Mpps across 12 cores in Figure 4).
//
// Each Shard owns a complete core.App (engine, devices, tasks); the
// shards share no simulation state, so every shard is individually
// reproducible and the group as a whole is deterministic at any core
// count: shard i's seed is derived from the base seed by a splitmix64
// step, independent of how many shards run or how the host schedules
// their goroutines. Results are combined after the barrier in shard
// order by the stats merge layer (stats.OnlineStats.Merge,
// stats.Counter.Merge, stats.Histogram.Merge), so merged measurements
// are exact and stable.
package multicore

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// ShardSeed derives the engine seed of shard i from a base seed. The
// derivation is sim.SplitMix64, so per-shard random streams are
// decorrelated (base+1 and shard 0 of base do not collide the way
// naive seed+i schemes do) and stable: shard i always gets the same
// seed no matter the core count.
func ShardSeed(base int64, shard int) int64 {
	return sim.SplitMix64(base, uint64(shard+1))
}

// Shard is one modeled core: an independent deterministic engine plus
// its identity within the group (also recorded as App.Shard). Per-core
// mempools and queue slices are created on the shard by whoever builds
// its testbed.
type Shard struct {
	// ID is the shard's index in [0, N).
	ID int
	// Seed is the shard's derived engine seed.
	Seed int64
	// App is the shard's private simulation app.
	App *core.App
}

// Group runs N shards. Building the group is cheap; the parallelism
// happens in Each/RunFor, which put every shard on its own goroutine —
// real host parallelism wrapping N deterministic simulations.
type Group struct {
	shards []*Shard
}

// NewGroup creates n shards with seeds derived from baseSeed.
func NewGroup(n int, baseSeed int64) *Group {
	if n < 1 {
		n = 1
	}
	g := &Group{shards: make([]*Shard, n)}
	for i := range g.shards {
		seed := ShardSeed(baseSeed, i)
		app := core.NewApp(seed)
		app.Shard = i
		g.shards[i] = &Shard{ID: i, Seed: seed, App: app}
	}
	return g
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.shards) }

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Each runs fn for every shard concurrently, one goroutine per shard,
// and waits for all of them — the fork/join of a master task launching
// one slave per core. fn must confine itself to its shard (and any
// slot of caller-owned result slices indexed by shard ID); the barrier
// at return publishes all shard writes to the caller. Panics in fn are
// re-raised on the caller after all shards stop. The returned error
// aggregates per-shard errors in shard order.
func (g *Group) Each(fn func(s *Shard) error) error {
	errs := make([]error, len(g.shards))
	type shardPanic struct {
		value interface{}
		stack []byte
	}
	panics := make([]*shardPanic, len(g.shards))
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[s.ID] = &shardPanic{value: r, stack: debug.Stack()}
				}
			}()
			errs[s.ID] = fn(s)
		}(s)
	}
	wg.Wait()
	var panicked []string
	for i, p := range panics {
		if p != nil {
			panicked = append(panicked, fmt.Sprintf("shard %d: %v\n%s", i, p.value, p.stack))
		}
	}
	if panicked != nil {
		// Re-raise with every shard's panic value and its original
		// stack, so the guard panics of the simulated testbed (double
		// frees, causality violations) keep pointing at the faulty
		// task instead of at this barrier.
		panic("multicore: " + strings.Join(panicked, "\n"))
	}
	var msgs []string
	for i, err := range errs {
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("shard %d: %v", i, err))
		}
	}
	if msgs != nil {
		return fmt.Errorf("multicore: %s", strings.Join(msgs, "; "))
	}
	return nil
}
