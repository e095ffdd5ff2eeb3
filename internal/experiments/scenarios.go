package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// This file exposes the measurement-style experiments as registered
// scenarios, so `moongen <name>` and the example specs drive them through
// the same registry as the load scenarios. These wrappers build their
// own specialized testbeds (82580 receiver, calibrated cable sets) and
// therefore only consume the Env's Spec, not its default port pair.

// interArrivalScenario is one generator's inter-arrival measurement —
// the Figure 8 / Table 4 cell for that generator.
type interArrivalScenario struct {
	gen Generator
}

func (s interArrivalScenario) Name() string {
	switch s.gen {
	case GenMoonGen:
		return "interarrival-moongen"
	case GenPktgen:
		return "interarrival-pktgen"
	default:
		return "interarrival-zsend"
	}
}

func (s interArrivalScenario) Describe() string {
	return fmt.Sprintf("inter-arrival histogram of %s on an 82580 line-rate timestamper (Fig. 8)", s.gen)
}

func (s interArrivalScenario) DefaultSpec() scenario.Spec {
	return scenario.Spec{RateMpps: 0.5, Samples: 20000}
}

// SingleCoreOnly implements scenario.SingleCoreOnly: the measurement
// characterizes one generator on one timestamper; sharding it would
// sum distribution rows into nonsense.
func (interArrivalScenario) SingleCoreOnly() string {
	return "the inter-arrival measurement characterizes a single generator/timestamper pair"
}

func (s interArrivalScenario) Run(env *scenario.Env) (*scenario.Report, error) {
	spec := env.Spec
	pps := spec.RateMpps * 1e6
	if pps <= 0 {
		return nil, fmt.Errorf("interarrival needs a rate (got %v)", spec)
	}
	scale := ScaleTest
	if spec.Samples > 0 {
		scale.Samples = spec.Samples
	}
	res := RunInterArrival(scale, spec.Seed, s.gen, pps)

	rep := &scenario.Report{Window: sim.Duration(float64(scale.Samples) / pps * float64(sim.Second))}
	rep.Latency = res.Hist // inter-arrival distribution
	rep.TxPackets = res.Hist.Count()
	rep.RxPackets = res.Hist.Count()
	rep.RxMpps = float64(res.Hist.Count()) / rep.Window.Seconds() / 1e6
	rep.AddRow("micro-bursts (back-to-back)", res.MicroBurst*100, "%")
	for _, tol := range []int{64, 128, 256, 512} {
		rep.AddRow(fmt.Sprintf("within ±%d ns of target", tol), res.Within[tol]*100, "%")
	}
	rep.Notes = append(rep.Notes, "the latency histogram holds inter-arrival times, 64 ns bins")
	return rep, nil
}

// timestampsScenario is the Table 3 cable-calibration procedure:
// latency over several cable lengths, then a fit of the modulation
// constant k and the propagation speed vp.
type timestampsScenario struct{}

func (timestampsScenario) Name() string { return "timestamps" }
func (timestampsScenario) Describe() string {
	return "hardware-timestamp calibration over cable lengths, fits k and vp (Table 3)"
}

func (timestampsScenario) DefaultSpec() scenario.Spec {
	return scenario.Spec{Probes: 500}
}

// SingleCoreOnly implements scenario.SingleCoreOnly: the calibration
// sweeps cable lengths internally; summing fitted constants across
// shards would be meaningless.
func (timestampsScenario) SingleCoreOnly() string {
	return "the calibration sweep fits per-cable constants that must not be summed"
}

func (timestampsScenario) Run(env *scenario.Env) (*scenario.Report, error) {
	spec := env.Spec
	scale := ScaleTest
	if spec.Probes > 0 {
		scale.Probes = spec.Probes
	}
	res := RunTable3(scale, spec.Seed)
	rep := &scenario.Report{}
	rep.AddRow("82599 fiber k (paper 310.7)", res.FiberK, "ns")
	rep.AddRow("82599 fiber vp (paper 0.72)", res.FiberVPc, "c")
	rep.AddRow("X540 copper k (paper 2147.2)", res.CopperK, "ns")
	rep.AddRow("X540 copper vp (paper 0.69)", res.CopperVPc, "c")
	for _, v := range res.Fiber85Values {
		rep.AddRow("8.5 m fiber observation", v, "ns")
	}
	rep.Notes = append(rep.Notes, "paper: 8.5 m fiber is bimodal 345.6/358.4 ns on the 12.8 ns grid")
	return rep, nil
}

func init() {
	scenario.Register(interArrivalScenario{gen: GenMoonGen})
	scenario.Register(interArrivalScenario{gen: GenPktgen})
	scenario.Register(interArrivalScenario{gen: GenZsend})
	scenario.Register(timestampsScenario{})
}
