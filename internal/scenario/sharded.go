package scenario

import (
	"fmt"
	"io"

	"repro/internal/multicore"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// share splits an integer budget across k shards: shard i of k gets
// total/k plus one unit of the remainder for the lowest shards, so the
// shares always sum to the total.
func share(total, i, k int) int {
	if total <= 0 {
		return 0
	}
	s := total / k
	if i < total%k {
		s++
	}
	return s
}

// slotGrid is one shard's slice of the global transmit grid: global
// slot j departs j·tick after the run start, and the shard owns the
// slots j ≡ index (mod stride). The aggregate tick is rounded to a
// picosecond once, from the unsplit rate — rounding 1/(rate/k) per
// shard instead would drift the shard grids off the single-core grid
// at rates whose period is not tick-exact — so every shard computes
// the same instant for a slot and the union of the k shard streams is
// exactly the one-core stream.
type slotGrid struct {
	tick          sim.Duration
	index, stride int
}

// slot returns the global index of the shard's n-th slot.
func (g slotGrid) slot(n uint64) uint64 { return uint64(g.index) + n*uint64(g.stride) }

// at returns the departure offset of the shard's n-th slot.
func (g slotGrid) at(n uint64) sim.Duration { return sim.Duration(g.slot(n)) * g.tick }

// slots returns the spec's slice of the global slot grid: the one
// ShardSpec set, or the whole grid at RateMpps for an unsharded run.
func (s Spec) slots() (slotGrid, error) {
	if s.grid.stride > 0 {
		return s.grid, nil
	}
	if s.RateMpps <= 0 {
		return slotGrid{}, fmt.Errorf("pattern %s needs a rate (got %v)", s.Pattern, s)
	}
	return slotGrid{tick: sim.FromSeconds(1 / (s.RateMpps * 1e6)), stride: 1}, nil
}

// ShardSpec returns the spec slice shard i of k runs: the aggregate
// rate and the probe/sample budgets are divided across shards (shares
// sum exactly to the originals), the seed is derived per shard, and
// Cores resets to 1 so a shard never recurses. Each shard models one
// core driving its own port pair — Figure 4's one-port-per-core bed.
func (s Spec) ShardSpec(i, k int) Spec {
	out := s
	out.Cores = 1
	out.Seed = multicore.ShardSeed(s.Seed, i)
	out.RateMpps = s.RateMpps / float64(k)
	// Shard i takes every k-th slot of the global grid, starting at
	// slot i, whatever the pattern: the slot-paced senders (softcbr and
	// the slot-grid scenarios) then compose exactly to the one-core
	// stream, and cbr delays its hardware shaper by the first slot's
	// offset, leaving only the shaper's modeled ±256 ns oscillation
	// (§7.3).
	if g, err := s.slots(); err == nil {
		g.index, g.stride = i, k
		out.grid = g
	}
	out.Probes = share(s.Probes, i, k)
	out.Samples = share(s.Samples, i, k)
	// Faults pass through unchanged (the struct copy shares the
	// read-only plan): fault events are global sim-time events, so
	// every shard applies the identical plan to its private testbed —
	// never a rate-split share of it.
	// A per-shard stream would carry partial counters; the merged
	// series in the final report is the sharded run's telemetry.
	out.TelemetryStream = nil
	if len(s.Flows) > 0 {
		out.Flows = make([]Flow, len(s.Flows))
		copy(out.Flows, s.Flows)
		for fi := range out.Flows {
			out.Flows[fi].RateMpps = s.Flows[fi].RateMpps / float64(k)
		}
	}
	return out
}

// executeSharded runs sc once per modeled core on a multicore group —
// independent engines on real goroutines, each against its own Env
// testbed built on the shard's app — and merges the per-shard reports
// in shard order. Every shard runs silently: a shard's streamed lines
// would carry its partial counters, so the merged report is the
// sharded run's output.
func executeSharded(sc Scenario, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	k := spec.Cores
	g := multicore.NewGroup(k, spec.Seed)
	reports := make([]*Report, k)
	err := g.Each(func(s *multicore.Shard) error {
		env := NewEnv(spec.ShardSpec(s.ID, k), io.Discard)
		env.Adopt(s.App)
		rep, err := sc.Run(env)
		if err != nil {
			return err
		}
		reports[s.ID] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := MergeReports(reports)
	rep.Notes = append(rep.Notes, fmt.Sprintf("merged from %d shards (one engine and port pair per core)", k))
	return rep, nil
}

// MergeReports aggregates per-shard reports into one: counters add,
// rates are recomputed over the merged window, latency histograms and
// flows (matched by name) merge via the stats merge layer, rows are
// summed by label, and notes are deduplicated. Reports must be merged
// in shard order for deterministic output; nil entries are skipped.
func MergeReports(reps []*Report) *Report {
	out := &Report{}
	flowIdx := map[string]int{}
	rowIdx := map[string]int{}
	noteSeen := map[string]bool{}
	var series []*telemetry.Series
	for _, r := range reps {
		if r == nil {
			continue
		}
		if r.Telemetry != nil {
			series = append(series, r.Telemetry)
		}
		if r.Window > out.Window {
			out.Window = r.Window
		}
		out.TxPackets += r.TxPackets
		out.TxBytes += r.TxBytes
		out.RxPackets += r.RxPackets
		out.RxBytes += r.RxBytes
		out.RxCRCErrors += r.RxCRCErrors
		out.RxMissed += r.RxMissed
		out.LostProbes += r.LostProbes
		if r.Latency != nil && r.Latency.Count() > 0 {
			if out.Latency == nil {
				out.Latency = stats.NewHistogram(r.Latency.BinWidth)
			}
			out.Latency.Merge(r.Latency)
		}
		for _, f := range r.Flows {
			i, ok := flowIdx[f.Name]
			if !ok {
				i = len(out.Flows)
				flowIdx[f.Name] = i
				out.Flows = append(out.Flows, FlowReport{Name: f.Name})
			}
			out.Flows[i].TxPackets += f.TxPackets
			out.Flows[i].RxPackets += f.RxPackets
			out.Flows[i].Lost += f.Lost
			out.Flows[i].Reordered += f.Reordered
			out.Flows[i].Duplicates += f.Duplicates
			out.Flows[i].LostDuringFault += f.LostDuringFault
			out.Flows[i].LostInRecovery += f.LostInRecovery
			if f.Latency != nil && f.Latency.Count() > 0 {
				if out.Flows[i].Latency == nil {
					out.Flows[i].Latency = stats.NewHistogram(f.Latency.BinWidth)
				}
				out.Flows[i].Latency.Merge(f.Latency)
			}
		}
		for _, row := range r.Rows {
			i, ok := rowIdx[row.Label]
			if !ok {
				i = len(out.Rows)
				rowIdx[row.Label] = i
				out.Rows = append(out.Rows, Row{Label: row.Label, Unit: row.Unit})
			}
			out.Rows[i].Value += row.Value
		}
		for _, n := range r.Notes {
			if !noteSeen[n] {
				noteSeen[n] = true
				out.Notes = append(out.Notes, n)
			}
		}
	}
	if secs := out.Window.Seconds(); secs > 0 {
		out.RxMpps = float64(out.RxPackets) / secs / 1e6
		out.RxGbpsWire = float64(out.RxBytes+out.RxPackets*(proto.FCSLen+proto.WireOverhead)) * 8 / secs / 1e9
	}
	if len(series) > 0 {
		merged, err := telemetry.MergeSeries(series)
		if err != nil {
			out.Notes = append(out.Notes, "telemetry merge failed: "+err.Error())
		} else {
			out.Telemetry = merged
		}
	}
	return out
}
