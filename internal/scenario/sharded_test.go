package scenario_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/multicore"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestShardSpecBudgetsSumExactly(t *testing.T) {
	spec := scenario.Spec{
		RateMpps: 3,
		Probes:   10,
		Samples:  101,
		Seed:     9,
		Flows:    []scenario.Flow{{Name: "a", RateMpps: 1.5}, {Name: "b", RateMpps: 0.5}},
		Cores:    4,
	}
	const k = 4
	var rate, flowA float64
	var probes, samples int
	for i := 0; i < k; i++ {
		ss := spec.ShardSpec(i, k)
		if ss.Cores != 1 {
			t.Fatalf("shard %d: Cores = %d, must not recurse", i, ss.Cores)
		}
		if ss.Seed != multicore.ShardSeed(9, i) {
			t.Fatalf("shard %d: seed = %d", i, ss.Seed)
		}
		rate += ss.RateMpps
		probes += ss.Probes
		samples += ss.Samples
		flowA += ss.Flows[0].RateMpps
	}
	if rate != spec.RateMpps || flowA != spec.Flows[0].RateMpps {
		t.Fatalf("rates do not sum: aggregate %v, flow a %v", rate, flowA)
	}
	if probes != spec.Probes || samples != spec.Samples {
		t.Fatalf("budgets do not sum: probes %d, samples %d", probes, samples)
	}
	// The original spec must not be mutated.
	if spec.Flows[0].RateMpps != 1.5 {
		t.Fatalf("ShardSpec mutated the parent spec: %v", spec.Flows[0].RateMpps)
	}
}

// TestCoresInvariantForDeterministicWorkload is the acceptance check:
// the deterministic software-paced CBR workload yields identical
// merged stats at any core count. ShardSpec splits the rate k ways and
// staggers the shards by one aggregate interval each, so the union of
// the shards' emission grids is exactly the single-core grid — NIC
// counters and per-flow sent counts match packet for packet.
func TestCoresInvariantForDeterministicWorkload(t *testing.T) {
	run := func(cores int) *scenario.Report {
		spec := scenario.Spec{
			Pattern: scenario.PatternSoftCBR, RateMpps: 2,
			Runtime: 10 * sim.Millisecond, Seed: 3, Cores: cores,
		}
		rep, err := scenario.Execute("softcbr", spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one := run(1)
	// Fixed-seed pin: 2 Mpps over 10 ms = 20000 packets on the grid;
	// the last few deliveries are still on the wire at the window edge.
	if one.TxPackets != 20000 || one.RxPackets != 19996 {
		t.Errorf("1-core baseline moved: tx=%d rx=%d, want 20000/19996", one.TxPackets, one.RxPackets)
	}
	for _, cores := range []int{2, 4, 8} {
		k := run(cores)
		if k.TxPackets != one.TxPackets || k.TxBytes != one.TxBytes ||
			k.RxPackets != one.RxPackets || k.RxBytes != one.RxBytes {
			t.Errorf("cores=%d: tx=%d/%d rx=%d/%d, want 1-core tx=%d/%d rx=%d/%d",
				cores, k.TxPackets, k.TxBytes, k.RxPackets, k.RxBytes,
				one.TxPackets, one.TxBytes, one.RxPackets, one.RxBytes)
		}
		if len(k.Flows) != 1 || k.Flows[0].TxPackets != one.Flows[0].TxPackets {
			t.Errorf("cores=%d: flow tx=%v, want %d", cores, k.Flows, one.Flows[0].TxPackets)
		}
	}
}

// TestCoresInvariantNonTickExactRate: the invariance must also hold
// when the packet period is not an integer number of picoseconds
// (1/3 µs here) — the aggregate tick is rounded once and shard grids
// are integer multiples of it, not independently rounded.
func TestCoresInvariantNonTickExactRate(t *testing.T) {
	run := func(cores int) uint64 {
		spec := scenario.Spec{
			Pattern: scenario.PatternSoftCBR, RateMpps: 3,
			Runtime: 10 * sim.Millisecond, Seed: 3, Cores: cores,
		}
		rep, err := scenario.Execute("softcbr", spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TxPackets
	}
	one := run(1)
	for _, cores := range []int{2, 3, 4} {
		if k := run(cores); k != one {
			t.Errorf("cores=%d: tx=%d, want %d", cores, k, one)
		}
	}
}

// TestSingleCoreOnlyRejected: sweep-backed scenarios refuse to shard
// instead of merging their rows into nonsense.
func TestSingleCoreOnlyRejected(t *testing.T) {
	spec := scenario.Spec{Cores: 4, Runtime: 2 * sim.Millisecond, Probes: 10}
	if _, err := scenario.Execute("timestamps", spec, io.Discard); err == nil {
		t.Fatal("sharded run of a SingleCoreOnly scenario did not error")
	}
	spec = scenario.Spec{Cores: 2, RateMpps: 0.5, Runtime: 2 * sim.Millisecond, Samples: 1000}
	if _, err := scenario.Execute("interarrival-moongen", spec, io.Discard); err == nil {
		t.Fatal("sharded interarrival run did not error")
	}
	// Scenarios with ratio rows (percentages, averages) refuse too.
	for _, name := range []string{"imix", "reflect"} {
		spec := scenario.Spec{Cores: 2, Runtime: 2 * sim.Millisecond}
		if _, err := scenario.Execute(name, spec, io.Discard); err == nil {
			t.Fatalf("sharded %s run did not error", name)
		}
	}
}

// TestShardedDeterministic: a sharded run is reproducible even though
// the shards execute on racing goroutines.
func TestShardedDeterministic(t *testing.T) {
	run := func() string {
		spec := scenario.Spec{
			Pattern: scenario.PatternPoisson, RateMpps: 2,
			Runtime: 5 * sim.Millisecond, Seed: 11, Cores: 4,
		}
		rep, err := scenario.Execute("poisson", spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(rep)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("sharded run not deterministic:\n run1: %s\n run2: %s", a, b)
	}
}

// TestShardedStreamsNothing: a shard's [rx] lines would count one
// shard's frames, so a sharded run streams none; the same run on one
// core streams its window and TOTAL lines.
func TestShardedStreamsNothing(t *testing.T) {
	for _, cores := range []int{1, 2} {
		spec := scenario.Spec{
			Pattern: scenario.PatternCBR, RateMpps: 1,
			Runtime: 25 * sim.Millisecond, Seed: 3, Cores: cores,
		}
		var out strings.Builder
		if _, err := scenario.Execute("cbr", spec, &out); err != nil {
			t.Fatal(err)
		}
		if streamed := strings.Contains(out.String(), "[rx]"); streamed != (cores == 1) {
			t.Errorf("cores=%d streamed:\n%s", cores, out.String())
		}
	}
}

// TestShardedFloodScales: at line rate each shard drives its own port
// pair, so Cores=4 moves ~4x the packets of Cores=1 — Figure 4's
// one-port-per-core scaling inside the scenario subsystem.
func TestShardedFloodScales(t *testing.T) {
	run := func(cores int) uint64 {
		spec := scenario.Spec{
			Pattern: scenario.PatternLineRate,
			Runtime: 5 * sim.Millisecond, Seed: 5, Cores: cores,
		}
		rep, err := scenario.Execute("flood", spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TxPackets
	}
	one, four := run(1), run(4)
	ratio := float64(four) / float64(one)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4-core flood = %d pkts, 1-core = %d (ratio %.2f, want ~4)", four, one, ratio)
	}
}

// TestShardedProbesMerge: the probe budget splits across shards and
// the merged latency histogram carries the union of the probes.
func TestShardedProbesMerge(t *testing.T) {
	spec := scenario.Spec{
		Pattern: scenario.PatternCBR, RateMpps: 1,
		Runtime: 10 * sim.Millisecond, Seed: 7, Probes: 40, Cores: 4,
	}
	rep, err := scenario.Execute("latency", spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency == nil {
		t.Fatal("no merged latency histogram")
	}
	got := rep.Latency.Count() + rep.LostProbes
	if got != 40 {
		t.Errorf("merged probes + lost = %d, want the full 40-probe budget", got)
	}
}

func TestMergeReports(t *testing.T) {
	h1 := stats.NewHistogram(64 * sim.Nanosecond)
	h1.Add(100 * sim.Nanosecond)
	h2 := stats.NewHistogram(64 * sim.Nanosecond)
	h2.Add(300 * sim.Nanosecond)
	a := &scenario.Report{
		Window: 10 * sim.Millisecond, TxPackets: 10, TxBytes: 600,
		RxPackets: 8, RxBytes: 480, Latency: h1,
		Flows: []scenario.FlowReport{{Name: "fg", TxPackets: 10, RxPackets: 8}},
		Rows:  []scenario.Row{{Label: "fillers", Value: 2, Unit: "packets"}},
		Notes: []string{"shared note"},
	}
	b := &scenario.Report{
		Window: 10 * sim.Millisecond, TxPackets: 20, TxBytes: 1200,
		RxPackets: 18, RxBytes: 1080, Latency: h2,
		Flows: []scenario.FlowReport{{Name: "fg", TxPackets: 20, RxPackets: 18}},
		Rows:  []scenario.Row{{Label: "fillers", Value: 3, Unit: "packets"}},
		Notes: []string{"shared note", "only in b"},
	}
	m := scenario.MergeReports([]*scenario.Report{a, b, nil})
	if m.TxPackets != 30 || m.RxPackets != 26 || m.Window != 10*sim.Millisecond {
		t.Fatalf("merged counters wrong: %+v", m)
	}
	if len(m.Flows) != 1 || m.Flows[0].TxPackets != 30 || m.Flows[0].RxPackets != 26 {
		t.Fatalf("merged flows wrong: %+v", m.Flows)
	}
	if len(m.Rows) != 1 || m.Rows[0].Value != 5 {
		t.Fatalf("merged rows wrong: %+v", m.Rows)
	}
	if m.Latency.Count() != 2 || m.Latency.Min() != 100*sim.Nanosecond || m.Latency.Max() != 300*sim.Nanosecond {
		t.Fatalf("merged latency wrong: count=%d", m.Latency.Count())
	}
	if len(m.Notes) != 2 {
		t.Fatalf("merged notes wrong: %v", m.Notes)
	}
	if m.RxMpps <= 0 || m.RxGbpsWire <= 0 {
		t.Fatalf("merged rates not recomputed: %v %v", m.RxMpps, m.RxGbpsWire)
	}
}

// TestWriteListSortedAlignedDeterministic covers the `moongen list`
// body: sorted names, a description on every line aligned past the
// longest name, and byte-identical output across calls.
func TestWriteListSortedAlignedDeterministic(t *testing.T) {
	var first, second strings.Builder
	scenario.WriteList(&first)
	scenario.WriteList(&second)
	if first.String() != second.String() {
		t.Fatal("list output not deterministic")
	}
	lines := strings.Split(strings.TrimRight(first.String(), "\n"), "\n")
	names := scenario.Names()
	if len(lines) != len(names) {
		t.Fatalf("%d lines for %d scenarios", len(lines), len(names))
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "  "+names[i]) {
			t.Errorf("line %d = %q, want name %q (sorted order)", i, line, names[i])
		}
		desc := line[2+width:]
		if !strings.HasPrefix(desc, "  ") || strings.TrimSpace(desc) == "" {
			t.Errorf("line %d: description misaligned or missing: %q", i, line)
		}
	}
}
