// Soak gate: the fault layer run long — thousands of link-flap cycles
// over ≥ 10 simulated seconds of CBR load on the sharded testbed, with
// the windowed model telemetry golden-gated byte-for-byte. The CI soak
// job runs this under the race detector; locally it is part of tier-1
// (`go test ./...`) and skipped in -short runs.
package repro

import (
	"io"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSoakLinkFlap runs the linkflap scenario for 10 simulated seconds
// (2000 flap cycles at the default 5 ms period, 20M slots at 2 Mpps)
// at the canonical sharded configuration and diffs the 100 ms-windowed
// model telemetry against testdata/golden/soak_linkflap.csv.
// Regenerate deliberately with:
//
//	go test -run TestSoakLinkFlap . -update
func TestSoakLinkFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run: skipped in -short mode")
	}
	sc, ok := scenario.Get("linkflap")
	if !ok {
		t.Fatal("linkflap not registered")
	}
	spec := sc.DefaultSpec()
	spec.Runtime = 10 * sim.Second
	spec.Seed = 5
	spec.Cores = 2
	spec.TelemetryInterval = 100 * sim.Millisecond
	rep, err := scenario.Execute("linkflap", spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil {
		t.Fatal("no telemetry series in the merged soak report")
	}

	// Structural sanity before the byte-level diff: every flap cycle
	// fired and recovered, and the wire-boundary drops reconcile with
	// the per-flow loss.
	var lost uint64
	for _, f := range rep.Flows {
		lost += f.Lost
		if f.LostInRecovery != 0 {
			t.Errorf("flow %s: %d losses attributed to recovery — linkflap loses frames only at the down wire", f.Name, f.LostInRecovery)
		}
	}
	if lost == 0 {
		t.Fatal("2000 flap cycles lost nothing")
	}

	var b strings.Builder
	if err := rep.Telemetry.WriteCSV(&b, false); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "soak_linkflap.csv", b.String())
}

// TestFaultLossSplitShardingInvariant pins the per-flow fault-boundary
// loss attribution across sharding: the report merge
// (scenario.MergeReports) must reproduce the single-core split exactly,
// flow by flow, for both fault-driven scenarios.
func TestFaultLossSplitShardingInvariant(t *testing.T) {
	type split struct {
		name                 string
		lost, during, recov  uint64
		txPackets, rxPackets uint64
	}
	collect := func(name string, cores int) []split {
		sc, _ := scenario.Get(name)
		spec := sc.DefaultSpec()
		spec.Runtime = 10 * sim.Millisecond
		spec.Seed = 5
		spec.Cores = cores
		rep, err := scenario.Execute(name, spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]split, len(rep.Flows))
		for i, f := range rep.Flows {
			out[i] = split{f.Name, f.Lost, f.LostDuringFault, f.LostInRecovery, f.TxPackets, f.RxPackets}
		}
		return out
	}
	for _, name := range []string{"linkflap", "overload-recover"} {
		want := collect(name, 1)
		var total uint64
		for _, s := range want {
			if s.lost != s.during+s.recov {
				t.Errorf("%s flow %s: split %d+%d does not cover lost=%d", name, s.name, s.during, s.recov, s.lost)
			}
			total += s.lost
		}
		if total == 0 {
			t.Errorf("%s: no losses at the canonical configuration — the pin is vacuous", name)
		}
		for _, cores := range []int{2, 4} {
			got := collect(name, cores)
			if len(got) != len(want) {
				t.Fatalf("%s cores=%d: %d flows, want %d", name, cores, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s cores=%d flow %s: %+v, want %+v", name, cores, want[i].name, got[i], want[i])
				}
			}
		}
	}
}
