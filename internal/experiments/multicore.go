package experiments

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// MulticoreScalingResult is Figure 4 run on the multicore subsystem:
// real engine shards (one goroutine per modeled core), one 10 GbE port
// pair per core, a mempool per shard, and results combined through the
// stats merge layer.
type MulticoreScalingResult struct {
	Table
	// Mpps[i] is the merged rate with i+1 cores at 2 GHz (wire-capped:
	// the cost model sustains more than line rate, so every core pegs
	// its port — Figure 4's regime).
	Mpps []float64
	// MppsLow[i] is the same bed at 1.2 GHz, where the cost model is
	// the bottleneck and scaling is linear below the wire-rate ceiling.
	MppsLow []float64
	// Predicted[i]/PredictedLow[i] are the cost-model predictions
	// (i+1 cores times min(model rate, per-port line rate)).
	Predicted    []float64
	PredictedLow []float64
	// PerCoreMpps/PerCoreStd describe the distribution of per-core
	// window rates at 2 GHz and max cores, from the merged counters.
	PerCoreMpps float64
	PerCoreStd  float64
	// LineRateMpps is the per-port (= per-core) wire-rate ceiling.
	LineRateMpps float64
	// Simulated is the total modeled time covered (one measurement
	// window per series point; a point's shards run concurrently and
	// model the same window, so they count once). wall/Simulated is
	// the bed's cost per simulated second.
	Simulated sim.Duration
}

// runMulticorePoint measures one (cores, freq) point: a shard group
// runs the cost-model load concurrently, one shard and 10 GbE port
// pair per core, then the per-shard results merge in shard order —
// counts into a total, counters through Counter.Merge.
func runMulticorePoint(scale Scale, seed int64, cores int, w cpu.Workload, freq cpu.Freq) (mpps float64, merged *stats.Counter) {
	g := multicore.NewGroup(cores, seed)
	pkts := make([]uint64, cores)
	ctrs := make([]*stats.Counter, cores)
	_ = g.Each(func(s *multicore.Shard) error {
		l := &costLoad{freq: freq, workload: w, pktSize: 60, queues: buildPortPairs(s.App, nic.ChipX540, 1, 1)}
		n, _, cs := l.run(s.App, scale.Window)
		pkts[s.ID], ctrs[s.ID] = n, cs[0]
		return nil
	})
	merged = stats.NewCounter(stats.CounterConfig{Name: "merged", Format: stats.FormatNone})
	var total uint64
	for i := 0; i < cores; i++ {
		total += pkts[i]
		merged.Merge(ctrs[i])
	}
	return scale.pps(total) / 1e6, merged
}

// RunMulticoreScaling reproduces Figure 4's shape on the multicore
// subsystem: throughput versus core count with one 10 GbE port per
// core. At 2 GHz the simple UDP workload outruns the wire, so every
// core sits at the per-port wire-rate ceiling and the total climbs
// linearly to the paper's 178.5 Mpps at 12 cores; at 1.2 GHz the cost
// model is the bottleneck and the same bed scales linearly below the
// ceiling. Both series are compared against the cycle-cost prediction.
func RunMulticoreScaling(scale Scale, seed int64) *MulticoreScalingResult {
	const maxCores = 12
	w := cpu.SimpleUDPWorkload
	hi, lo := 2*cpu.GHz, 1.2*cpu.GHz
	res := &MulticoreScalingResult{}
	res.Title = "Figure 4 on the multicore subsystem: one engine shard and 10GbE port per core"
	res.Columns = []string{"Mpps @2GHz", "pred @2GHz", "Mpps @1.2GHz", "pred @1.2GHz"}
	res.LineRateMpps = wire.LineRatePPS(wire.Speed10G, 64) / 1e6

	perCore := func(f cpu.Freq) float64 {
		p := w.PPS(f) / 1e6
		if p > res.LineRateMpps {
			p = res.LineRateMpps
		}
		return p
	}
	for cores := 1; cores <= maxCores; cores++ {
		mhi, merged := runMulticorePoint(scale, seed+int64(cores), cores, w, hi)
		mlo, _ := runMulticorePoint(scale, seed+100+int64(cores), cores, w, lo)
		res.Simulated += 2 * scale.Window
		res.Mpps = append(res.Mpps, mhi)
		res.MppsLow = append(res.MppsLow, mlo)
		res.Predicted = append(res.Predicted, float64(cores)*perCore(hi))
		res.PredictedLow = append(res.PredictedLow, float64(cores)*perCore(lo))
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%d cores", cores),
			Values: []float64{mhi, float64(cores) * perCore(hi), mlo, float64(cores) * perCore(lo)},
		})
		if cores == maxCores {
			res.PerCoreMpps, res.PerCoreStd = merged.MppsStats()
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("per-port wire-rate ceiling: %.2f Mpps; paper: 178.5 Mpps at 120 Gbit/s with 12 cores", res.LineRateMpps),
		fmt.Sprintf("per-core window rates at 12 cores (merged counters): %.2f ± %.2f Mpps", res.PerCoreMpps, res.PerCoreStd),
		"shards are real goroutines: one deterministic engine, mempool and port pair per modeled core")
	return res
}
