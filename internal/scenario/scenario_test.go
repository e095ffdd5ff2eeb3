package scenario_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"

	// Registers the experiment-backed scenarios so the registry tests
	// cover everything `moongen list` shows.
	_ "repro/internal/experiments"
)

// testSpec shrinks a scenario's default spec to test scale without
// changing its character.
func testSpec(sc scenario.Scenario) scenario.Spec {
	spec := sc.DefaultSpec()
	spec.Seed = 7
	spec.Runtime = 2 * sim.Millisecond
	if spec.Steps > 1 {
		spec.Runtime = sim.Duration(spec.Steps) * sim.Millisecond
	}
	if spec.Probes > 40 {
		spec.Probes = 40
	}
	if spec.Samples > 2000 || spec.Samples == 0 {
		spec.Samples = 2000
	}
	return spec
}

// fingerprint reduces a report to the deterministic counters the
// determinism test compares across runs.
func fingerprint(r *scenario.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tx=%d/%d rx=%d/%d crc=%d missed=%d",
		r.TxPackets, r.TxBytes, r.RxPackets, r.RxBytes, r.RxCRCErrors, r.RxMissed)
	if r.Latency != nil {
		q1, q2, q3 := r.Latency.Quartiles()
		fmt.Fprintf(&b, " lat=%d/%v/%v/%v lost=%d", r.Latency.Count(), q1, q2, q3, r.LostProbes)
	}
	for _, f := range r.Flows {
		fmt.Fprintf(&b, " flow[%s]=%d/%d", f.Name, f.TxPackets, f.RxPackets)
		if f.Lost != 0 || f.Reordered != 0 || f.Duplicates != 0 {
			fmt.Fprintf(&b, " lost=%d reord=%d dup=%d", f.Lost, f.Reordered, f.Duplicates)
		}
		if f.Latency != nil {
			fmt.Fprintf(&b, "/%d", f.Latency.Count())
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %s=%g%s", row.Label, row.Value, row.Unit)
	}
	return b.String()
}

// TestRegistryEnumeration checks that the registry holds the full
// scenario set — the five ported cmd/moongen scenarios, the three new
// ones, and the experiment-backed wrappers — and that the `moongen
// list` body mentions every one.
func TestRegistryEnumeration(t *testing.T) {
	names := scenario.Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d scenarios (%v), want >= 8", len(names), names)
	}
	for _, want := range []string{
		"flood", "cbr", "poisson", "bursts", "latency", // ported
		"imix", "qos", "reflect", // new in this refactor
		"interarrival-moongen", "interarrival-pktgen", "interarrival-zsend", "timestamps", // experiment-backed
	} {
		if _, ok := scenario.Get(want); !ok {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
	var list strings.Builder
	scenario.WriteList(&list)
	for _, n := range names {
		if !strings.Contains(list.String(), n) {
			t.Errorf("list output does not mention %q:\n%s", n, list.String())
		}
	}
}

// TestScenariosDeterministic runs every registered scenario twice with
// the same seed and requires identical packet/byte counts, per-flow
// slices and result rows — the reproducibility contract of the
// simulated testbed.
func TestScenariosDeterministic(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, _ := scenario.Get(name)
			spec := testSpec(sc)
			first, err := scenario.Execute(name, spec, io.Discard)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			second, err := scenario.Execute(name, spec, io.Discard)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			f1, f2 := fingerprint(first), fingerprint(second)
			if f1 != f2 {
				t.Errorf("non-deterministic for seed %d:\n run1: %s\n run2: %s", spec.Seed, f1, f2)
			}
			if first.TxPackets == 0 && first.RxPackets == 0 && len(first.Rows) == 0 {
				t.Errorf("report is empty: %s", f1)
			}
		})
	}
}

// TestExecuteUnknown checks the error path the CLI relies on.
func TestExecuteUnknown(t *testing.T) {
	if _, err := scenario.Execute("no-such-scenario", scenario.Spec{}, io.Discard); err == nil {
		t.Fatal("Execute of unknown scenario did not error")
	}
}

// TestExecuteRejectsRateOffTheSlotGrid pins that Execute refuses, before
// anything runs, a rate whose slot tick rounds to 0 ps (the grid would
// never advance and the run would never end) or overflows, at any core
// count: the spec's rate or, where the scenario declares flows, a
// flow's. Every registered scenario is tried, so one that paces from
// the rate cannot hang here.
func TestExecuteRejectsRateOffTheSlotGrid(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		for _, rate := range []float64{1e300, 1e-300} {
			for _, cores := range []int{1, 2} {
				spec := sc.DefaultSpec()
				spec.Runtime, spec.Cores = sim.Microsecond, cores
				specs := []scenario.Spec{spec}
				specs[0].RateMpps = rate
				if len(spec.Flows) > 0 {
					spec.Flows = append([]scenario.Flow(nil), spec.Flows...)
					spec.Flows[0].RateMpps = rate
					specs = append(specs, spec)
				}
				for _, spec := range specs {
					done := make(chan error, 1)
					go func() {
						_, err := scenario.Execute(name, spec, io.Discard)
						done <- err
					}()
					select {
					case err := <-done:
						if err == nil || !strings.Contains(err.Error(), "is out of range: its slot tick") {
							t.Errorf("%s rate %g cores %d: error %v, want the slot tick rejected", name, rate, cores, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s rate %g cores %d: Execute ran instead of failing fast", name, rate, cores)
					}
				}
			}
		}
	}
}

// TestDefaultSpecsRunnable checks that every DefaultSpec is internally
// consistent (patterns needing rates declare one, flows are well
// formed) by validating the spec the scenario itself advertises.
func TestDefaultSpecsRunnable(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		spec := sc.DefaultSpec()
		switch spec.Pattern {
		case scenario.PatternCBR, scenario.PatternSoftCBR, scenario.PatternPoisson, scenario.PatternBursts:
			hasRate := spec.RateMpps > 0
			for _, f := range spec.Flows {
				hasRate = hasRate || f.RateMpps > 0
			}
			if !hasRate {
				t.Errorf("%s: pattern %s with no rate anywhere", name, spec.Pattern)
			}
		}
	}
}

// TestCollectDuTCountsInterruptsAtWindowEdge: the DuT interrupt rows
// are windowed like the rx counters — the count the forwarder held at
// the window edge, and that count over the runtime — not the run total
// that includes the interrupts of the post-stop drain.
func TestCollectDuTCountsInterruptsAtWindowEdge(t *testing.T) {
	sc, _ := scenario.Get("cbr")
	spec := sc.DefaultSpec()
	spec.UseDuT = true
	spec.RateMpps = 1
	spec.Runtime = 5 * sim.Millisecond
	env := scenario.NewEnv(spec, nil)
	eng := env.App().Eng
	var atEdge uint64
	eng.Schedule(eng.Now().Add(env.Spec.Runtime), func() { atEdge = env.Fwd().Interrupts })
	rep, err := sc.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if total := env.Fwd().Interrupts; total <= atEdge {
		t.Fatalf("no interrupt after the window edge (%d at the edge, %d in total): the run cannot tell a windowed count from a total", atEdge, total)
	}
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Label] = r.Value
	}
	if got := rows["DuT interrupts"]; got != float64(atEdge) {
		t.Errorf("DuT interrupts = %g, want %d at the window edge", got, atEdge)
	}
	if got, want := rows["DuT interrupt rate"], float64(atEdge)/spec.Runtime.Seconds(); got != want {
		t.Errorf("DuT interrupt rate = %g Hz, want %g", got, want)
	}
}

// TestDuTSinkBuildsNoReceivePool: the DuT bed's sink drain reads no
// payload, so after a poisson run through the DuT the sink port never
// received into a payload queue and reports no receive buffers.
func TestDuTSinkBuildsNoReceivePool(t *testing.T) {
	sc, _ := scenario.Get("poisson")
	spec := sc.DefaultSpec()
	spec.UseDuT = true
	spec.RateMpps = 1
	spec.Probes = 20
	spec.Runtime = 2 * sim.Millisecond
	env := scenario.NewEnv(spec, nil)
	rep, err := sc.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RxPackets == 0 {
		t.Fatal("the sink received nothing")
	}
	if n := env.RX().RxPoolAvail(); n != 0 {
		t.Errorf("the DuT sink reports %d receive buffers", n)
	}
}

// TestRxConsumingScenariosRejectDuT: a scenario that drains the sink's
// queue itself cannot run through the DuT, whose bed already drains
// that queue (count-only); it is refused before anything runs.
func TestRxConsumingScenariosRejectDuT(t *testing.T) {
	for _, name := range []string{"qos", "churn", "reorder", "loss-overload"} {
		sc, _ := scenario.Get(name)
		spec := sc.DefaultSpec()
		spec.UseDuT = true
		spec.Runtime = sim.Millisecond
		if _, err := scenario.Execute(name, spec, io.Discard); err == nil || !strings.Contains(err.Error(), "direct duplex testbed") {
			t.Errorf("%s with the DuT: err %v, want the direct-testbed refusal", name, err)
		}
	}
}
