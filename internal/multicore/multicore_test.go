package multicore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

func TestShardSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 64; i++ {
		s := multicore.ShardSeed(1, i)
		if s2 := multicore.ShardSeed(1, i); s2 != s {
			t.Fatalf("shard %d seed not stable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d collide on seed %d", prev, i, s)
		}
		seen[s] = i
	}
	// Different base seeds must not produce shifted copies of the same
	// stream (the flaw of naive base+i derivation).
	if multicore.ShardSeed(1, 1) == multicore.ShardSeed(2, 0) {
		t.Fatal("base 1 shard 1 collides with base 2 shard 0")
	}
}

func TestGroupShards(t *testing.T) {
	g := multicore.NewGroup(4, 7)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	for i := 0; i < g.N(); i++ {
		s := g.Shard(i)
		if s.ID != i {
			t.Fatalf("shard %d misindexed", i)
		}
		if s.Seed != multicore.ShardSeed(7, i) {
			t.Fatalf("shard %d seed = %d", i, s.Seed)
		}
		if s.App == nil || s.App.Shard != i {
			t.Fatalf("shard %d app not tagged", i)
		}
	}
}

// shardLoad builds a generator→sink pair on the shard and floods it
// for window; it returns the NIC's transmitted-packet count.
func shardLoad(s *multicore.Shard, window sim.Duration) uint64 {
	app := s.App
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })
	pool := core.CreateMemPool(4096, nil)
	cache := pool.NewCache(256)
	q := tx.GetTxQueue(0)
	app.LaunchTask("tx", func(tk *core.Task) {
		bufs := make([]*mempool.Mbuf, mempool.DefaultBatchSize)
		for tk.Running() {
			n := cache.AllocBatch(bufs, 60)
			if n == 0 {
				tk.Sleep(sim.Microsecond)
				continue
			}
			tk.SendAll(q, bufs[:n])
		}
	})
	app.RunFor(window)
	return tx.CounterSnapshot().TxPackets
}

// TestGroupDeterministicAcrossRuns: the same seed yields bit-identical
// per-shard results no matter how the host schedules the goroutines.
func TestGroupDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		g := multicore.NewGroup(4, 42)
		out := make([]uint64, g.N())
		if err := g.Each(func(s *multicore.Shard) error {
			out[s.ID] = shardLoad(s, sim.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs across runs: %d vs %d", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("shard %d transmitted nothing", i)
		}
	}
}

// TestGroupScalesWithShards: k independent line-rate shards deliver k
// times one shard's packets once merged — the Figure 4 execution model.
func TestGroupScalesWithShards(t *testing.T) {
	total := func(k int) uint64 {
		g := multicore.NewGroup(k, 9)
		counts := make([]uint64, k)
		_ = g.Each(func(s *multicore.Shard) error {
			counts[s.ID] = shardLoad(s, sim.Millisecond)
			return nil
		})
		var sum uint64
		for _, c := range counts {
			sum += c
		}
		return sum
	}
	one, four := total(1), total(4)
	if four < 4*one-8 || four > 4*one+8 {
		t.Fatalf("4 shards = %d pkts, want ~4x one shard (%d)", four, one)
	}
}

func TestEachAggregatesErrors(t *testing.T) {
	g := multicore.NewGroup(3, 1)
	boom := errors.New("boom")
	err := g.Each(func(s *multicore.Shard) error {
		if s.ID == 1 {
			return fmt.Errorf("shard saw %w", boom)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestEachPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "shard 2") {
			t.Fatalf("recover = %v", r)
		}
	}()
	g := multicore.NewGroup(3, 1)
	_ = g.Each(func(s *multicore.Shard) error {
		if s.ID == 2 {
			panic("kaboom")
		}
		return nil
	})
}

// TestMergedShardStats ties the subsystem to the stats merge layer:
// per-shard counters merged across k shards describe the union.
func TestMergedShardStats(t *testing.T) {
	g := multicore.NewGroup(4, 11)
	counters := make([]*stats.Counter, g.N())
	_ = g.Each(func(s *multicore.Shard) error {
		c := stats.NewCounter(stats.CounterConfig{Name: "tx", Window: 100 * sim.Microsecond})
		pkts := shardLoad(s, sim.Millisecond)
		c.Update(int(pkts), int(pkts)*60, sim.Time(sim.Millisecond))
		c.Finalize(sim.Time(sim.Millisecond))
		counters[s.ID] = c
		return nil
	})
	merged := stats.NewCounter(stats.CounterConfig{Name: "merged", Window: 100 * sim.Microsecond})
	var want uint64
	for _, c := range counters {
		want += c.TotalPackets
		merged.Merge(c)
	}
	if merged.TotalPackets != want || want == 0 {
		t.Fatalf("merged = %d, want %d (> 0)", merged.TotalPackets, want)
	}
}
