package rate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestCBR(t *testing.T) {
	p := NewCBRPPS(1e6)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if g := p.NextGap(rng); g != sim.Microsecond {
			t.Fatalf("gap = %v", g)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	p := NewPoissonPPS(1e6)
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(p.NextGap(rng))
	}
	mean := sum / n
	if math.Abs(mean-float64(sim.Microsecond))/float64(sim.Microsecond) > 0.01 {
		t.Fatalf("mean gap = %f ps", mean)
	}
}

func TestPoissonCV(t *testing.T) {
	// Exponential gaps have coefficient of variation 1.
	p := NewPoissonPPS(1e6)
	rng := rand.New(rand.NewSource(3))
	var sum, sumsq float64
	const n = 100000
	for i := 0; i < n; i++ {
		g := float64(p.NextGap(rng))
		sum += g
		sumsq += g * g
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if cv := std / mean; math.Abs(cv-1) > 0.02 {
		t.Fatalf("cv = %f, want 1", cv)
	}
}

func TestBurstsAverage(t *testing.T) {
	b2b := wire.FrameTime(wire.Speed10G, 64)
	b := &Bursts{Size: 8, AvgInterval: sim.Microsecond, BackToBack: b2b}
	rng := rand.New(rand.NewSource(4))
	var total sim.Duration
	const n = 8 * 1000
	for i := 0; i < n; i++ {
		total += b.NextGap(rng)
	}
	avg := float64(total) / n
	if math.Abs(avg-float64(sim.Microsecond))/float64(sim.Microsecond) > 0.001 {
		t.Fatalf("avg gap = %f ps", avg)
	}
}

func TestGapFillerExactGaps(t *testing.T) {
	g := NewGapFiller(wire.ByteTime(wire.Speed10G))
	// 1 µs gap at 10 GbE = 1250 wire bytes.
	fills := g.FillGap(1250)
	var sum int
	for _, f := range fills {
		if f < g.MinFillerWire || f > g.MaxFillerWire {
			t.Fatalf("filler %d outside [%d,%d]", f, g.MinFillerWire, g.MaxFillerWire)
		}
		sum += f
	}
	if sum != 1250 {
		t.Fatalf("fillers sum to %d, want 1250", sum)
	}
	if g.Debt() != 0 {
		t.Fatalf("debt = %d", g.Debt())
	}
}

func TestGapFillerShortGapDebt(t *testing.T) {
	g := NewGapFiller(wire.ByteTime(wire.Speed10G))
	// 40 wire bytes (32 ns): below the 76-byte floor -> skipped.
	if fills := g.FillGap(40); fills != nil {
		t.Fatalf("short gap produced fillers %v", fills)
	}
	if g.Debt() != 40 || g.Skipped != 1 {
		t.Fatalf("debt=%d skipped=%d", g.Debt(), g.Skipped)
	}
	// Next gap absorbs the debt.
	fills := g.FillGap(100)
	var sum int
	for _, f := range fills {
		sum += f
	}
	if sum != 140 {
		t.Fatalf("fillers sum to %d, want 140", sum)
	}
	if g.Debt() != 0 {
		t.Fatalf("debt = %d after payback", g.Debt())
	}
}

// Property: for any gap sequence, total filler bytes + residual debt
// equals total requested gap bytes (the average-rate accuracy claim of
// §8.4), and every filler respects the min/max bounds.
func TestGapFillerConservationProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		g := NewGapFiller(wire.ByteTime(wire.Speed10G))
		var want, got int64
		for _, raw := range gaps {
			gap := int64(raw)
			want += gap
			for _, fl := range g.FillGap(gap) {
				if fl < g.MinFillerWire || fl > g.MaxFillerWire {
					return false
				}
				got += int64(fl)
			}
		}
		return got+g.Debt() == want
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGapFillerLargeGapSplitting(t *testing.T) {
	g := NewGapFiller(wire.ByteTime(wire.Speed10G))
	// A gap slightly above MaxFillerWire must not leave an
	// unrepresentable remainder.
	gap := int64(g.MaxFillerWire + 10)
	fills := g.FillGap(gap)
	var sum int64
	for _, f := range fills {
		if f < g.MinFillerWire || f > g.MaxFillerWire {
			t.Fatalf("filler %d out of bounds", f)
		}
		sum += int64(f)
	}
	if sum != gap {
		t.Fatalf("sum = %d, want %d", sum, gap)
	}
}

func TestMinRepresentableGap(t *testing.T) {
	g := NewGapFiller(wire.ByteTime(wire.Speed10G))
	// The smallest exact gap is one minimum filler: 76 bytes × 0.8 ns
	// = 60.8 ns (§8.1).
	if got := sim.Duration(g.MinFillerWire) * g.ByteTime; got != sim.FromNanoseconds(60.8) {
		t.Fatalf("min gap = %v", got)
	}
}

func TestGapToWireBytes(t *testing.T) {
	g := NewGapFiller(wire.ByteTime(wire.Speed10G))
	if b := g.GapToWireBytes(800 * sim.Picosecond); b != 1 {
		t.Fatalf("0.8ns = %d bytes", b)
	}
	if b := g.GapToWireBytes(sim.Microsecond); b != 1250 {
		t.Fatalf("1us = %d bytes", b)
	}
}

// TestSoftPushMicroBurstGrowth: the push model's deadline misses grow
// superlinearly with rate (Table 4: 0.01% at 500 kpps vs 14.2% at
// 1000 kpps on GbE).
func TestSoftPushMicroBurstGrowth(t *testing.T) {
	b2b := wire.FrameTime(wire.Speed1G, 64)
	rng := rand.New(rand.NewSource(6))
	frac := func(pps float64) float64 {
		p := NewSoftPushPPS(pps, b2b)
		n, bursts := 200000, 0
		for i := 0; i < n; i++ {
			if p.NextGap(rng) <= b2b {
				bursts++
			}
		}
		return float64(bursts) / float64(n)
	}
	at500k := frac(500e3)
	at1M := frac(1000e3)
	if at500k > 0.01 {
		t.Fatalf("500kpps micro-bursts = %.4f, want <1%%", at500k)
	}
	if at1M < 0.08 || at1M > 0.25 {
		t.Fatalf("1Mpps micro-bursts = %.4f, want ~14%%", at1M)
	}
	if at1M < 10*at500k {
		t.Fatalf("burst growth not superlinear: %.5f -> %.5f", at500k, at1M)
	}
}

// TestBurstyMicroBurstFractions reproduces zsend's Table 4 micro-burst
// fractions: ~28.6% at 500 kpps and ~52% at 1000 kpps.
func TestBurstyMicroBurstFractions(t *testing.T) {
	b2b := wire.FrameTime(wire.Speed1G, 64)
	rng := rand.New(rand.NewSource(7))
	frac := func(pps float64) float64 {
		p := NewBurstyPPS(pps, b2b)
		n, bursts := 200000, 0
		for i := 0; i < n; i++ {
			if p.NextGap(rng) <= b2b {
				bursts++
			}
		}
		return float64(bursts) / float64(n)
	}
	if f := frac(500e3); math.Abs(f-0.286) > 0.03 {
		t.Fatalf("zsend 500kpps micro-bursts = %.3f, want ~0.286", f)
	}
	if f := frac(1000e3); math.Abs(f-0.52) > 0.04 {
		t.Fatalf("zsend 1Mpps micro-bursts = %.3f, want ~0.52", f)
	}
}

// TestSoftPushAverageRate: despite jitter and bursts the average rate
// stays on target (the tools are inaccurate in timing, not in rate).
func TestSoftPushAverageRate(t *testing.T) {
	b2b := wire.FrameTime(wire.Speed1G, 64)
	for _, pps := range []float64{500e3, 1000e3} {
		p := NewSoftPushPPS(pps, b2b)
		rng := rand.New(rand.NewSource(8))
		var sum float64
		const n = 300000
		for i := 0; i < n; i++ {
			sum += float64(p.NextGap(rng))
		}
		rate := float64(n) / (sum / float64(sim.Second))
		if math.Abs(rate-pps)/pps > 0.02 {
			t.Fatalf("softpush avg rate at %.0f = %.0f", pps, rate)
		}
	}
}

func TestBurstyAverageRate(t *testing.T) {
	b2b := wire.FrameTime(wire.Speed1G, 64)
	p := NewBurstyPPS(500e3, b2b)
	rng := rand.New(rand.NewSource(9))
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += float64(p.NextGap(rng))
	}
	rate := float64(n) / (sum / float64(sim.Second))
	if math.Abs(rate-500e3)/500e3 > 0.03 {
		t.Fatalf("zsend avg rate = %.0f", rate)
	}
}

func TestCustomPattern(t *testing.T) {
	c := Custom{Fn: func(*rand.Rand) sim.Duration { return 42 }, Label: "x"}
	if c.NextGap(nil) != 42 || c.Name() != "x" {
		t.Fatal("custom pattern broken")
	}
}

func TestPatternNames(t *testing.T) {
	if (CBR{}).Name() != "cbr" || (Poisson{}).Name() != "poisson" {
		t.Fatal("names wrong")
	}
	if (&Bursts{Size: 4}).Name() != "bursts-4" {
		t.Fatal("bursts name wrong")
	}
}
