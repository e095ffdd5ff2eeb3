package scenario_test

import (
	"io"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestLoadFlowRx pins the receive half of a load scenario's flow
// report. The load is the only flow on its receive port, so with no
// latency probes the flow received exactly the report's windowed rx
// count; with probes it received that count less the probes, and never
// more than it sent.
func TestLoadFlowRx(t *testing.T) {
	for _, name := range []string{"flood", "cbr"} {
		sc, _ := scenario.Get(name)
		for _, cores := range []int{1, 2} {
			for _, probes := range []int{0, 20} {
				spec := sc.DefaultSpec()
				spec.Runtime = 5 * sim.Millisecond
				spec.Cores = cores
				spec.Probes = probes
				rep, err := scenario.Execute(name, spec, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Flows) != 1 {
					t.Fatalf("%s cores=%d: %d flows, want 1", name, cores, len(rep.Flows))
				}
				f := rep.Flows[0]
				if probes == 0 {
					if f.RxPackets == 0 || f.RxPackets != rep.RxPackets {
						t.Errorf("%s cores=%d: flow rx %d, want the report's rx %d", name, cores, f.RxPackets, rep.RxPackets)
					}
					continue
				}
				if rep.Latency == nil || rep.Latency.Count() == 0 {
					t.Fatalf("%s cores=%d probes=%d: no probe measured", name, cores, probes)
				}
				if f.RxPackets > f.TxPackets || f.RxPackets >= rep.RxPackets {
					t.Errorf("%s cores=%d probes=%d: flow rx %d, want below the report's rx %d and at most tx %d",
						name, cores, probes, f.RxPackets, rep.RxPackets, f.TxPackets)
				}
			}
		}
	}
}
