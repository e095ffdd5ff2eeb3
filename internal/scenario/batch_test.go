package scenario_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestBatchInvariantMergedStats is the acceptance property of the
// batched datapath: for the deterministic patterns, Spec.Batch only
// changes how packets are grouped on their way to the descriptor ring
// (softcbr: how many slots one wake fills ahead) — every merged
// counter, flow count and report row is identical at Batch=1
// (per-packet) and Batch=32, on one core and on four sharded cores.
// softcbr at 20 Mpps offers more than line rate, so on one core the
// ring fills and the lookahead meets ring-full slots.
func TestBatchInvariantMergedStats(t *testing.T) {
	for _, c := range []struct {
		pattern scenario.Pattern
		rate    float64
		label   string
	}{
		{scenario.PatternSoftCBR, 2, "softcbr"},
		{scenario.PatternSoftCBR, 20, "softcbr@20mpps"},
		{scenario.PatternPoisson, 2, "poisson"},
	} {
		for _, cores := range []int{1, 4} {
			for _, seed := range []int64{1, 3} {
				name := string(c.pattern)
				t.Run(fmt.Sprintf("%s/cores=%d/seed=%d", c.label, cores, seed), func(t *testing.T) {
					run := func(batch int) string {
						spec := scenario.Spec{
							Pattern: c.pattern, RateMpps: c.rate,
							Runtime: 10 * sim.Millisecond, Seed: seed,
							Cores: cores, Batch: batch,
						}
						rep, err := scenario.Execute(name, spec, io.Discard)
						if err != nil {
							t.Fatal(err)
						}
						return fingerprint(rep)
					}
					one, many := run(1), run(32)
					if one != many {
						t.Errorf("batch=1 vs batch=32 reports differ:\n  1: %s\n 32: %s", one, many)
					}
				})
			}
		}
	}
}

// TestBatchInvariantSlowGridTelemetry pins the lookahead's window-edge
// bound: with slots longer than a telemetry window, slot times land on
// window edges, and a frame filled ahead across an edge would be
// committed before the edge's snapshot instead of after it. The model
// telemetry and the report at Batch 32 must match Batch 1's byte for
// byte, on one core and on two.
func TestBatchInvariantSlowGridTelemetry(t *testing.T) {
	for _, c := range []struct {
		name string
		rate float64 // Mpps: 2 ms, 1 ms and 4 ms slots
	}{
		{"softcbr", 0.0005},
		{"reorder", 0.001},
		{"overload-recover", 0.00025},
	} {
		for _, cores := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cores=%d", c.name, cores), func(t *testing.T) {
				run := func(batch int) (string, string) {
					sc, ok := scenario.Get(c.name)
					if !ok {
						t.Fatalf("scenario %q not registered", c.name)
					}
					spec := sc.DefaultSpec()
					spec.RateMpps = c.rate
					spec.Runtime = 20 * sim.Millisecond
					spec.Cores = cores
					spec.Batch = batch
					spec.TelemetryInterval = sim.Millisecond
					rep, err := scenario.Execute(c.name, spec, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					var csv strings.Builder
					if err := rep.Telemetry.WriteCSV(&csv, false); err != nil {
						t.Fatal(err)
					}
					return csv.String(), fingerprint(rep)
				}
				csv1, rep1 := run(1)
				csv32, rep32 := run(32)
				if csv1 != csv32 {
					t.Errorf("batch 1 vs 32 telemetry differs\n  1:\n%s\n 32:\n%s", csv1, csv32)
				}
				if rep1 != rep32 {
					t.Errorf("batch 1 vs 32 reports differ:\n  1: %s\n 32: %s", rep1, rep32)
				}
			})
		}
	}
}

// TestBatchInvariantDepartureTimestamps drives a scenario through its
// Env (single core, where the generator device is reachable) and pins
// the full departure-timestamp sequence within the window: Batch=1 and
// Batch=32 put every frame — real and CRC-gap filler — on the wire at
// the same instant.
func TestBatchInvariantDepartureTimestamps(t *testing.T) {
	for _, name := range []string{"softcbr", "poisson"} {
		t.Run(name, func(t *testing.T) {
			run := func(batch int) []sim.Time {
				sc, ok := scenario.Get(name)
				if !ok {
					t.Fatalf("scenario %q not registered", name)
				}
				spec := sc.DefaultSpec()
				spec.RateMpps = 2
				spec.Runtime = 5 * sim.Millisecond
				spec.Seed = 9
				spec.Batch = batch
				env := scenario.NewEnv(spec, io.Discard)
				var starts []sim.Time
				env.TX().SetTxTrace(func(q *nic.TxQueue, m *mempool.Mbuf, at sim.Time) {
					if at <= sim.Time(spec.Runtime) {
						starts = append(starts, at)
					}
				})
				if _, err := sc.Run(env); err != nil {
					t.Fatal(err)
				}
				return starts
			}
			one, many := run(1), run(32)
			if len(one) == 0 {
				t.Fatal("no departures traced")
			}
			if len(one) != len(many) {
				t.Fatalf("batch=1 emitted %d frames, batch=32 emitted %d", len(one), len(many))
			}
			for i := range one {
				if one[i] != many[i] {
					t.Fatalf("departure %d differs: %v vs %v", i, one[i], many[i])
				}
			}
		})
	}
}
