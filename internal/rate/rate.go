// Package rate implements traffic patterns and rate-control mechanisms:
//
//   - patterns: constant bit rate, Poisson processes, bursts, custom
//     inter-departure processes (§8.3);
//   - the paper's novel CRC-gap software rate control (§8): filling
//     inter-packet gaps with invalid frames so the wire stays saturated
//     and gap lengths — not DMA timing — define departure times;
//   - behavioural models of the software rate control in existing
//     packet generators (Pktgen-DPDK's single-packet push and zsend's
//     burstiness), calibrated against Table 4 and Figure 8, used as the
//     comparison baselines.
package rate

import (
	"math"
	"math/rand"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Pattern generates inter-departure gaps between consecutive packets
// (start-of-frame to start-of-frame).
type Pattern interface {
	// NextGap returns the next inter-departure time.
	NextGap(rng *rand.Rand) sim.Duration
}

// CBR is a constant-bit-rate pattern: every gap equals Interval.
type CBR struct{ Interval sim.Duration }

// NewCBRPPS builds a CBR pattern from a packet rate.
func NewCBRPPS(pps float64) CBR { return CBR{Interval: sim.FromSeconds(1 / pps)} }

// NextGap implements Pattern.
func (c CBR) NextGap(*rand.Rand) sim.Duration { return c.Interval }

// Poisson is a Poisson arrival process: exponentially distributed gaps
// with the given mean — the pattern that "stresses buffers as the DuT
// becomes temporarily overloaded" (§8.3).
type Poisson struct{ MeanInterval sim.Duration }

// NewPoissonPPS builds a Poisson pattern from an average packet rate.
func NewPoissonPPS(pps float64) Poisson { return Poisson{MeanInterval: sim.FromSeconds(1 / pps)} }

// NextGap implements Pattern.
func (p Poisson) NextGap(rng *rand.Rand) sim.Duration {
	return sim.Duration(rng.ExpFloat64() * float64(p.MeanInterval))
}

// Bursts sends packets back-to-back in groups of Size, with pauses
// between groups chosen so the average rate matches — l2-bursts.lua.
type Bursts struct {
	Size int
	// AvgInterval is the average per-packet interval (1/pps).
	AvgInterval sim.Duration
	// BackToBack is the wire-limited minimum gap within a burst.
	BackToBack sim.Duration

	pos int
}

// NextGap implements Pattern.
func (b *Bursts) NextGap(*rand.Rand) sim.Duration {
	b.pos++
	if b.pos%b.Size != 0 {
		return b.BackToBack
	}
	// Gap after a burst restores the average.
	total := sim.Duration(b.Size) * b.AvgInterval
	inBurst := sim.Duration(b.Size-1) * b.BackToBack
	return total - inBurst
}

// Custom wraps a function as a Pattern.
type Custom struct {
	Fn func(rng *rand.Rand) sim.Duration
}

// NextGap implements Pattern.
func (c Custom) NextGap(rng *rand.Rand) sim.Duration { return c.Fn(rng) }

// --- CRC-gap software rate control (§8) -----------------------------

// GapFiller converts target inter-packet gaps into sequences of invalid
// filler frames. All sizes here are wire bytes: frame + FCS + preamble +
// SFD + IFG, matching the paper's "wire-length" convention (minimum
// emittable 33 bytes; MoonGen enforces 76 by default).
type GapFiller struct {
	// ByteTime is the serialization time of one byte.
	ByteTime sim.Duration
	// MinFillerWire is the minimum filler wire length (default 76:
	// 8 bytes less than a regular minimum frame, §8.1).
	MinFillerWire int
	// MaxFillerWire is the maximum filler wire length (1538 wire
	// bytes: a 1514 B frame + FCS + overhead).
	MaxFillerWire int

	// debt accumulates unrepresentable gap bytes; they are paid back
	// by lengthening later gaps, so the average rate stays exact while
	// individual short gaps lose precision (§8.4).
	debt int64
	// Skipped counts gaps that could not be represented exactly.
	Skipped uint64
	// Emitted counts filler frames produced.
	Emitted uint64

	// fills is FillGap's result buffer, reused across calls.
	fills []int
}

// DefaultMinFillerWire is MoonGen's enforced filler minimum (§8.1):
// generating frames shorter than this puts the NIC into its runt-rate
// regime, so 76 wire bytes (56 frame+FCS bytes) is the default floor.
const DefaultMinFillerWire = 76

// HardMinFillerWire is the absolute NIC limit: frames below 33 wire
// bytes are refused by the hardware (§8.1).
const HardMinFillerWire = 33

// NewGapFiller builds a filler for the given link byte time.
func NewGapFiller(byteTime sim.Duration) *GapFiller {
	return &GapFiller{
		ByteTime:      byteTime,
		MinFillerWire: DefaultMinFillerWire,
		MaxFillerWire: proto.WireLen(proto.MaxFrameSize),
	}
}

// GapToWireBytes converts a time gap to wire bytes (rounded to the
// 0.8 ns granularity at 10 GbE).
func (g *GapFiller) GapToWireBytes(gap sim.Duration) int64 {
	return int64(math.Round(float64(gap) / float64(g.ByteTime)))
}

// FillGap returns the filler wire lengths to emit after a packet so the
// next packet starts gapBytes of wire time later. A nil result means
// back-to-back. Unrepresentable remainders go into the debt account.
// The result is the filler's own buffer: it stays valid only until the
// next FillGap call.
func (g *GapFiller) FillGap(gapBytes int64) []int {
	gapBytes += g.debt
	g.debt = 0
	if gapBytes <= 0 {
		return nil
	}
	if gapBytes < int64(g.MinFillerWire) {
		// Gap too short to represent: skip the filler and lengthen a
		// later gap instead (§8.4) — high accuracy, lower precision.
		g.debt = gapBytes
		g.Skipped++
		return nil
	}
	out := g.fills[:0]
	for gapBytes > 0 {
		switch {
		case gapBytes <= int64(g.MaxFillerWire):
			out = append(out, int(gapBytes))
			gapBytes = 0
		case gapBytes < int64(g.MaxFillerWire+g.MinFillerWire):
			// Avoid an unrepresentable remainder: split evenly.
			half := int(gapBytes / 2)
			out = append(out, half, int(gapBytes)-half)
			gapBytes = 0
		default:
			out = append(out, g.MaxFillerWire)
			gapBytes -= int64(g.MaxFillerWire)
		}
	}
	g.fills = out
	g.Emitted += uint64(len(out))
	return out
}

// Debt returns the current unrepresented gap debt in wire bytes.
func (g *GapFiller) Debt() int64 { return g.debt }

// --- Behavioural models of existing software rate control -----------

// SoftPush models classic software rate control as in Pktgen-DPDK
// (§7.1, Figure 5): the software pushes one packet at a time and the
// NIC fetches it asynchronously via DMA, so inter-departure times carry
// fetch jitter, and under load the software misses deadlines and emits
// back-to-back pairs. Calibrated against Table 4's Pktgen-DPDK rows.
type SoftPush struct {
	Interval   sim.Duration
	BackToBack sim.Duration
	// BurstProb is the probability a deadline miss produces a
	// back-to-back pair. Derived from rate by NewSoftPushPPS.
	BurstProb float64

	pending sim.Duration // time owed after a burst to keep the average
}

// NewSoftPushPPS calibrates the model for a target rate on a link with
// the given back-to-back time. The burst probability grows superlinearly
// with load (Table 4: 0.01% at 500 kpps, 14.2% at 1000 kpps on GbE).
func NewSoftPushPPS(pps float64, backToBack sim.Duration) *SoftPush {
	util := pps * float64(backToBack) / float64(sim.Second)
	burst := 0.0
	if util > 0.3 {
		burst = math.Pow((util-0.3)/0.4, 3) * 0.15
	}
	if burst > 0.9 {
		burst = 0.9
	}
	return &SoftPush{
		Interval:   sim.FromSeconds(1 / pps),
		BackToBack: backToBack,
		BurstProb:  burst,
	}
}

// NextGap implements Pattern.
func (s *SoftPush) NextGap(rng *rand.Rand) sim.Duration {
	if s.pending > 0 {
		// After a burst, stretch the next gap to keep the average.
		gap := s.Interval + s.pending
		s.pending = 0
		return gap + softJitter(rng)
	}
	if rng.Float64() < s.BurstProb {
		s.pending = s.Interval - s.BackToBack
		return s.BackToBack
	}
	return s.Interval + softJitter(rng)
}

// softJitter is the DMA-fetch timing noise of the push model: wider
// than the hardware shaper's oscillation (Table 4: 37.7% within ±64 ns
// versus MoonGen's 49.9%), with a heavy tail.
func softJitter(rng *rand.Rand) sim.Duration {
	u := rng.Float64()
	var ns float64
	switch {
	case u < 0.38:
		ns = rng.Float64()*128 - 64
	case u < 0.72:
		ns = 64 + rng.Float64()*64
		if rng.Intn(2) == 0 {
			ns = -ns
		}
	case u < 0.93:
		ns = 128 + rng.Float64()*128
		if rng.Intn(2) == 0 {
			ns = -ns
		}
	default:
		ns = 256 + rng.Float64()*1750
		if rng.Intn(2) == 0 {
			ns = -ns / 2 // early pushes are bounded by the previous packet
		}
	}
	return sim.FromNanoseconds(ns)
}

// Bursty models zsend 6.0.2's observed behaviour (§7.3): a large
// fraction of packets leave back-to-back (28.6% at 500 kpps, 52% at
// 1000 kpps — "indicating a bug in the PF_RING ZC framework"), with
// the remaining gaps widely scattered.
type Bursty struct {
	Interval   sim.Duration
	BackToBack sim.Duration
	// MeanBurst is the average burst length.
	MeanBurst float64

	left int // packets remaining in the current burst
}

// NewBurstyPPS calibrates the zsend model for a target rate: the mean
// burst length interpolates between Table 4's micro-burst fractions.
func NewBurstyPPS(pps float64, backToBack sim.Duration) *Bursty {
	// Micro-burst fraction f = (L-1)/L  =>  L = 1/(1-f).
	f := 0.286 + (pps-500e3)/500e3*(0.52-0.286)
	if f < 0.05 {
		f = 0.05
	}
	if f > 0.8 {
		f = 0.8
	}
	return &Bursty{
		Interval:   sim.FromSeconds(1 / pps),
		BackToBack: backToBack,
		MeanBurst:  1 / (1 - f),
	}
}

// NextGap implements Pattern.
func (b *Bursty) NextGap(rng *rand.Rand) sim.Duration {
	if b.left > 0 {
		b.left--
		return b.BackToBack
	}
	// Draw the next burst length (geometric with mean MeanBurst).
	p := 1 / b.MeanBurst
	n := 1
	for rng.Float64() > p && n < 64 {
		n++
	}
	b.left = n - 1
	// The inter-burst gap restores the average rate, with large
	// software-timer jitter (the Figure 8 zsend histograms spread over
	// microseconds).
	gap := float64(n) * float64(b.Interval)
	gap -= float64(b.left) * float64(b.BackToBack)
	jitter := (rng.Float64()*2 - 1) * 0.35 * gap
	return sim.Duration(gap + jitter)
}
