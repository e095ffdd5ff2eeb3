package scenario_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// flowFingerprint reduces a report to the counters the invariance
// property is stated over: the port and per-flow transmit/receive
// counts and the sequence verdicts. Latency and inter-arrival
// distributions are excluded deliberately — wire timing legitimately
// differs between one shared wire and k private ones; the flow
// *accounting* must not.
func flowFingerprint(r *scenario.Report) string {
	s := fmt.Sprintf("port:tx=%d,rx=%d;", r.TxPackets, r.RxPackets)
	for _, f := range r.Flows {
		s += fmt.Sprintf("%s:tx=%d,rx=%d,lost=%d,reord=%d,dup=%d;",
			f.Name, f.TxPackets, f.RxPackets, f.Lost, f.Reordered, f.Duplicates)
	}
	return s
}

// flowRun is one input of the invariance pins; an empty pattern keeps
// the scenario's default (softcbr).
type flowRun struct {
	cores, batch int
	pattern      scenario.Pattern
}

func (r flowRun) String() string {
	return fmt.Sprintf("cores=%d batch=%d pattern=%q", r.cores, r.batch, r.pattern)
}

// patternRuns make load.pattern one more input of the pins: the
// slot-grid scenarios pace by the global slot grid whatever the
// pattern says, so every shard must stay on that grid under every
// pattern, not only under the softcbr default.
var patternRuns = []flowRun{
	{1, 32, scenario.PatternLineRate}, {2, 32, scenario.PatternLineRate}, {4, 32, scenario.PatternLineRate},
	{1, 32, scenario.PatternPoisson}, {2, 32, scenario.PatternPoisson}, {4, 32, scenario.PatternPoisson},
}

func runFlowScenario(t *testing.T, name string, r flowRun) *scenario.Report {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec := sc.DefaultSpec()
	spec.Runtime = 10 * sim.Millisecond
	spec.Seed = 5
	spec.Cores = r.cores
	spec.Batch = r.batch
	if r.pattern != "" {
		spec.Pattern = r.pattern
	}
	rep, err := scenario.Execute(name, spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLossOverloadInvariantAcrossCoresAndBatch is the acceptance pin
// of the RX analysis subsystem: the loss-overload scenario reports
// nonzero, deterministic per-flow loss at >line-rate offered load, and
// the per-flow counts are identical across Cores 1 vs 4, Batch 1 vs 32
// and load.pattern softcbr/linerate/poisson — the receive-side mirror
// of the TX batch invariance.
func TestLossOverloadInvariantAcrossCoresAndBatch(t *testing.T) {
	base := runFlowScenario(t, "loss-overload", flowRun{cores: 1, batch: 32})
	if len(base.Flows) != 4 {
		t.Fatalf("expected 4 flows, got %d", len(base.Flows))
	}
	for _, f := range base.Flows {
		if f.Lost == 0 {
			t.Errorf("flow %s: loss = 0, want nonzero at >line-rate offered load", f.Name)
		}
		if f.RxPackets == 0 || f.RxPackets != f.TxPackets {
			t.Errorf("flow %s: rx %d of tx %d (admitted packets must all arrive)",
				f.Name, f.RxPackets, f.TxPackets)
		}
	}
	want := flowFingerprint(base)
	for _, r := range append([]flowRun{{1, 1, ""}, {4, 32, ""}, {4, 1, ""}, {2, 32, ""}}, patternRuns...) {
		got := flowFingerprint(runFlowScenario(t, "loss-overload", r))
		if got != want {
			t.Errorf("%v: counts differ\n want %s\n  got %s", r, want, got)
		}
	}
}

// TestReorderInvariantAcrossCoresAndBatch: the reorder scenario's
// per-flow reorder and duplicate counts are likewise nonzero and
// invariant in Cores and Batch.
func TestReorderInvariantAcrossCoresAndBatch(t *testing.T) {
	base := runFlowScenario(t, "reorder", flowRun{cores: 1, batch: 32})
	for _, f := range base.Flows {
		if f.Reordered == 0 || f.Duplicates == 0 {
			t.Errorf("flow %s: reordered=%d dup=%d, want both nonzero", f.Name, f.Reordered, f.Duplicates)
		}
		if f.Lost != 0 {
			t.Errorf("flow %s: lost=%d, want 0 (every displaced packet arrives)", f.Name, f.Lost)
		}
	}
	want := flowFingerprint(base)
	for _, r := range []flowRun{{1, 1, ""}, {4, 32, ""}, {4, 1, ""}} {
		got := flowFingerprint(runFlowScenario(t, "reorder", r))
		if got != want {
			t.Errorf("%v: counts differ\n want %s\n  got %s", r, want, got)
		}
	}
}

// churnFingerprint reduces a churn report to its port counters and
// model rows: every scenario-specific row except the "(diag)" ones —
// the tracker footprint sums k independently-rounded shard tables
// (power-of-two slots, chunk-granular arenas), so its byte count
// legitimately varies with the core count while the flow accounting
// must not.
func churnFingerprint(r *scenario.Report) string {
	s := fmt.Sprintf("port:tx=%d,rx=%d;", r.TxPackets, r.RxPackets)
	for _, row := range r.Rows {
		if strings.Contains(row.Label, "(diag)") {
			continue
		}
		s += fmt.Sprintf("%s=%v;", row.Label, row.Value)
	}
	return s
}

// TestChurnInvariantAcrossCoresAndBatch extends the flow-accounting
// invariance pin to the churn scenario's arrival/departure process:
// flows started, tracked and active, attributed frames and the
// sequence verdicts (all zero on a clean run — nonzero would be a
// tracker defect) are identical across Cores, Batch and load.pattern
// whenever the core count divides the working set.
func TestChurnInvariantAcrossCoresAndBatch(t *testing.T) {
	base := runFlowScenario(t, "churn", flowRun{cores: 1, batch: 32})
	want := churnFingerprint(base)
	if !strings.Contains(want, "flows tracked") || strings.Contains(want, "flows tracked (rx)=0;") {
		t.Fatalf("base run tracked no flows: %s", want)
	}
	for _, lbl := range []string{"seq lost", "seq reordered", "seq duplicates"} {
		if !strings.Contains(want, lbl+"=0;") {
			t.Errorf("clean churn run must report %s=0: %s", lbl, want)
		}
	}
	for _, r := range append([]flowRun{{1, 1, ""}, {4, 32, ""}, {4, 1, ""}, {2, 32, ""}}, patternRuns...) {
		got := churnFingerprint(runFlowScenario(t, "churn", r))
		if got != want {
			t.Errorf("%v: churn rows differ\n want %s\n  got %s", r, want, got)
		}
	}
}

// TestChurnRejectsUnevenWorkingSet: a core count that does not divide
// the churn working set would split flows across shards; the scenario
// must refuse.
func TestChurnRejectsUnevenWorkingSet(t *testing.T) {
	sc, _ := scenario.Get("churn")
	spec := sc.DefaultSpec()
	spec.Runtime = sim.Millisecond
	spec.Cores = 3 // working set 1024
	if _, err := scenario.Execute("churn", spec, io.Discard); err == nil {
		t.Fatal("cores=3 with a 1024-flow working set did not error")
	}
}

// TestFlowScenarioRejectsUnevenSharding: a core count that does not
// divide the flow count would split a flow across shards and break the
// merge contract; the scenario must refuse instead of reporting wrong
// numbers.
func TestFlowScenarioRejectsUnevenSharding(t *testing.T) {
	sc, _ := scenario.Get("loss-overload")
	spec := sc.DefaultSpec()
	spec.Runtime = sim.Millisecond
	spec.Cores = 3 // 4 flows
	if _, err := scenario.Execute("loss-overload", spec, io.Discard); err == nil {
		t.Fatal("cores=3 with 4 flows did not error")
	}
}

// TestLossOverloadPinned pins the headline numbers of the canonical
// 10 ms seed-5 run: the admitted fraction of a 20 Mpps offered grid
// against the 14.88 Mpps 64-byte line rate, attributed per flow. Any
// change to the grid arithmetic, the admission model or the RX
// attribution path moves these.
func TestLossOverloadPinned(t *testing.T) {
	rep := runFlowScenario(t, "loss-overload", flowRun{cores: 1, batch: 32})
	var tx, lost uint64
	for _, f := range rep.Flows {
		tx += f.TxPackets
		lost += f.Lost
	}
	total := tx + lost
	if total == 0 {
		t.Fatal("no packets")
	}
	frac := float64(lost) / float64(total)
	// Offered 20 Mpps, capacity 14.88 Mpps: loss fraction 1-14.88/20 ≈ 25.6%.
	if frac < 0.24 || frac < 0.01 || frac > 0.27 {
		t.Errorf("loss fraction = %.4f, want ≈ 0.256", frac)
	}
	if rep.RxMissed != 0 || rep.RxCRCErrors != 0 {
		t.Errorf("sink dropped frames (missed %d, crc %d): the admission gate should be the only loss",
			rep.RxMissed, rep.RxCRCErrors)
	}
}
