package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestOnlineStats(t *testing.T) {
	var o OnlineStats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.Count() != 8 {
		t.Fatalf("count = %d", o.Count())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %f", o.Mean())
	}
	if math.Abs(o.Std()-2) > 1e-12 {
		t.Fatalf("std = %f", o.Std())
	}
}

func TestOnlineStatsMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var o OnlineStats
		var sum float64
		for _, x := range xs {
			x = math.Mod(x, 1e6) // avoid float blowups
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			o.Add(x)
			sum += x
		}
		if len(xs) == 0 {
			return o.Mean() == 0
		}
		return math.Abs(o.Mean()-sum/float64(len(xs))) < 1e-6*(1+math.Abs(sum))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRates(t *testing.T) {
	c := NewCounter(CounterConfig{Name: "tx", Window: sim.Millisecond})
	// 1000 packets of 60 B per ms for 10 ms = 1 Mpps, 0.48 Gbit/s.
	for ms := 0; ms < 10; ms++ {
		for i := 0; i < 10; i++ {
			now := sim.Time(ms)*sim.Time(sim.Millisecond) + sim.Time(i*100)*sim.Time(sim.Microsecond)
			c.Update(100, 100*60, now)
		}
	}
	c.Finalize(sim.Time(10 * sim.Millisecond))
	mean, std := c.MppsStats()
	if math.Abs(mean-1.0) > 0.01 {
		t.Fatalf("mpps = %f ± %f", mean, std)
	}
	if std > 0.02 {
		t.Fatalf("std = %f for constant rate", std)
	}
	if gb := c.byteRate.Mean(); math.Abs(gb-0.48) > 0.01 {
		t.Fatalf("gbps = %f", gb)
	}
	if c.TotalPackets != 10000 {
		t.Fatalf("total = %d", c.TotalPackets)
	}
}

func TestCounterPlainOutput(t *testing.T) {
	var buf bytes.Buffer
	c := NewCounter(CounterConfig{Name: "rx", Format: FormatPlain, Out: &buf, Window: sim.Millisecond})
	c.Update(1000, 60000, sim.Time(500*sim.Microsecond))
	c.Update(1000, 60000, sim.Time(1500*sim.Microsecond)) // closes window 1
	c.Finalize(sim.Time(2 * sim.Millisecond))
	out := buf.String()
	if !strings.Contains(out, "[rx]") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("output = %q", out)
	}
}

func TestCounterFinalizeIdempotent(t *testing.T) {
	var buf bytes.Buffer
	c := NewCounter(CounterConfig{Name: "x", Format: FormatPlain, Out: &buf})
	c.Update(1, 60, 0)
	c.Finalize(sim.Time(sim.Second))
	n := buf.Len()
	c.Finalize(sim.Time(2 * sim.Second))
	if buf.Len() != n {
		t.Fatal("second Finalize produced output")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	for i := 1; i <= 100; i++ {
		h.Add(sim.Duration(i) * 10 * sim.Nanosecond) // 10..1000 ns
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 10*sim.Nanosecond || h.Max() != 1000*sim.Nanosecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m != sim.Duration(5050)*sim.Nanosecond/10 {
		t.Fatalf("mean = %v", m)
	}
	// The median sample, 500 ns, lies in the 64 ns bucket [448, 512).
	if med := h.Percentile(50); med != 448*sim.Nanosecond {
		t.Fatalf("median = %v, want the bucket edge 448ns", med)
	}
	q1, q2, q3 := h.Quartiles()
	if !(q1 < q2 && q2 < q3) {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestHistogramFractionWithin(t *testing.T) {
	h := NewHistogram(sim.Nanosecond)
	center := 2 * sim.Microsecond
	for i := -100; i <= 100; i++ {
		h.Add(center + sim.Duration(i)*sim.Nanosecond)
	}
	if f := h.FractionWithin(center, 50*sim.Nanosecond); math.Abs(f-101.0/201) > 0.001 {
		t.Fatalf("within ±50ns = %f", f)
	}
	if f := h.FractionWithin(center, 200*sim.Nanosecond); f != 1 {
		t.Fatalf("within ±200ns = %f", f)
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewHistogram(sim.Nanosecond)
	h.Add(672 * sim.Nanosecond)
	h.Add(672 * sim.Nanosecond)
	h.Add(2 * sim.Microsecond)
	h.Add(2 * sim.Microsecond)
	if f := h.FractionBelow(700 * sim.Nanosecond); f != 0.5 {
		t.Fatalf("below = %f", f)
	}
}

func TestHistogramBins(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	h.Add(10 * sim.Nanosecond)  // bin 0
	h.Add(70 * sim.Nanosecond)  // bin 1
	h.Add(100 * sim.Nanosecond) // bin 1
	bins := h.Bins()
	if len(bins) != 2 || bins[0].Count != 1 || bins[1].Count != 2 {
		t.Fatalf("bins = %+v", bins)
	}
	if bins[1].Lo != 64*sim.Nanosecond {
		t.Fatalf("bin 1 starts at %v, want 64ns", bins[1].Lo)
	}
}

// Property: percentiles are monotone in p.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(64 * sim.Nanosecond)
		for _, v := range raw {
			h.Add(sim.Duration(v) * sim.Nanosecond)
		}
		last := sim.Duration(-1)
		for p := 5.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- merge semantics: sharded == unsharded ---------------------------

// TestOnlineStatsMergeProperty: splitting a sample stream over k shards
// and merging equals accumulating it unsharded.
func TestOnlineStatsMergeProperty(t *testing.T) {
	f := func(raw []uint32, kRaw uint8) bool {
		k := int(kRaw)%7 + 1
		var whole OnlineStats
		shards := make([]OnlineStats, k)
		for i, v := range raw {
			x := float64(v) / 1e3
			whole.Add(x)
			shards[i%k].Add(x)
		}
		var merged OnlineStats
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged.Count() != whole.Count() {
			return false
		}
		if whole.Count() == 0 {
			return true
		}
		scale := 1 + math.Abs(whole.Mean())
		return math.Abs(merged.Mean()-whole.Mean()) < 1e-9*scale &&
			math.Abs(merged.Variance()-whole.Variance()) < 1e-6*(1+whole.Variance())
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramMergeProperty: a histogram sharded k ways and merged is
// exactly the unsharded histogram — counts, moments, min/max, bins and
// percentiles.
func TestHistogramMergeProperty(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw)%5 + 1
		whole := NewHistogram(64 * sim.Nanosecond)
		shards := make([]*Histogram, k)
		for i := range shards {
			shards[i] = NewHistogram(64 * sim.Nanosecond)
		}
		for i, v := range raw {
			d := sim.Duration(v) * sim.Nanosecond
			whole.Add(d)
			shards[i%k].Add(d)
		}
		merged := NewHistogram(64 * sim.Nanosecond)
		for _, s := range shards {
			merged.Merge(s)
		}
		if merged.Count() != whole.Count() {
			return false
		}
		if whole.Count() == 0 {
			return true
		}
		if merged.Min() != whole.Min() || merged.Max() != whole.Max() ||
			merged.Mean() != whole.Mean() || merged.Std() != whole.Std() {
			return false
		}
		wb, mb := whole.Bins(), merged.Bins()
		if len(wb) != len(mb) {
			return false
		}
		for i := range wb {
			if wb[i] != mb[i] {
				return false
			}
		}
		for p := 10.0; p <= 100; p += 10 {
			if merged.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeBinWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge of mismatched bin widths did not panic")
		}
	}()
	a := NewHistogram(64 * sim.Nanosecond)
	b := NewHistogram(32 * sim.Nanosecond)
	b.Add(sim.Microsecond)
	a.Merge(b)
}

func TestCounterMerge(t *testing.T) {
	// Two shards each running 1 Mpps over the same 10 ms span merge
	// into: 2x the totals and a per-window rate population whose mean
	// is still 1 Mpps.
	mk := func() *Counter {
		c := NewCounter(CounterConfig{Name: "tx", Window: sim.Millisecond})
		for ms := 0; ms < 10; ms++ {
			c.Update(1000, 1000*60, sim.Time(ms)*sim.Time(sim.Millisecond)+sim.Time(500*sim.Microsecond))
		}
		c.Finalize(sim.Time(10 * sim.Millisecond))
		return c
	}
	a, b := mk(), mk()
	a.Merge(b)
	if a.TotalPackets != 20000 {
		t.Fatalf("merged total = %d", a.TotalPackets)
	}
	mean, std := a.MppsStats()
	if math.Abs(mean-1.0) > 0.01 || std > 0.02 {
		t.Fatalf("merged per-window rate = %f ± %f, want 1 ± 0", mean, std)
	}
}

// TestCounterMergeFreshTargetAdoptsEpoch: merging into a counter that
// never saw data must take the source's window grid, so windows the
// merged counter closes line up with the measurement and not with
// time zero.
func TestCounterMergeFreshTargetAdoptsEpoch(t *testing.T) {
	src := NewCounter(CounterConfig{Name: "tx", Window: sim.Millisecond, Start: sim.Time(5*sim.Millisecond) + 300})
	src.Update(10000, 10000*60, sim.Time(15*sim.Millisecond))
	src.Finalize(sim.Time(15 * sim.Millisecond))
	merged := NewCounter(CounterConfig{Name: "merged"})
	merged.Merge(src)
	if merged.windowStart != src.windowStart {
		t.Fatalf("merged window grid starts at %v, want source's %v", merged.windowStart, src.windowStart)
	}
}

func TestHistogramStd(t *testing.T) {
	h := NewHistogram(sim.Nanosecond)
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(sim.Duration(v) * sim.Nanosecond)
	}
	if s := h.Std(); s != 2*sim.Nanosecond {
		t.Fatalf("std = %v", s)
	}
}

// TestHistogramDenseOutlierFallback pins the dense-window fast path:
// samples inside the window and far outliers (which fall back to the
// sparse map) must produce exactly the same bins and fractions
// as a map-only histogram would — the dense store is an optimization,
// not a behavior change.
func TestHistogramDenseOutlierFallback(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	// Anchor lands around the first sample; these stay dense.
	for i := 0; i < 100; i++ {
		h.Add(sim.Duration(1000+i) * sim.Nanosecond)
	}
	// Far outliers: way outside any 8192-bin window at 64 ns bins.
	h.Add(5 * sim.Second)
	h.Add(-3 * sim.Second)
	if h.bins == nil {
		t.Fatal("outliers did not reach the sparse map")
	}
	if h.Count() != 102 {
		t.Fatalf("count = %d, want 102", h.Count())
	}
	var total uint64
	for _, b := range h.Bins() {
		total += b.Count
	}
	if total != 102 {
		t.Fatalf("bins sum to %d, want 102", total)
	}
	bins := h.Bins()
	for i := 1; i < len(bins); i++ {
		if bins[i-1].Lo >= bins[i].Lo {
			t.Fatalf("bins not ascending at %d: %v >= %v", i, bins[i-1].Lo, bins[i].Lo)
		}
	}
	if got := h.FractionBelow(0); got != 1.0/102 {
		t.Fatalf("FractionBelow(0) = %v, want %v", got, 1.0/102)
	}
	if h.Max() != 5*sim.Second || h.Min() != -3*sim.Second {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestHistogramAddZeroAlloc pins the per-packet recording contract:
// Add on the dense window performs no allocations.
func TestHistogramAddZeroAlloc(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	for i := 0; i < 128; i++ {
		h.Add(sim.Duration(i) * sim.Microsecond / 4)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Add(sim.Duration(i%128) * sim.Microsecond / 4)
		i++
	})
	if allocs > 0 {
		t.Fatalf("dense-window Add allocates %.1f objects per call, want 0", allocs)
	}
}

// refHistogram is the sorted-sample reference for Histogram: it keeps
// every sample, sorts them all for each query and floors each answer to
// the bucket grid, which is what a histogram at a declared resolution
// must give. It has no cap, and Merge appends.
type refHistogram struct {
	width   sim.Duration
	samples []sim.Duration
}

func newRefHistogram(width sim.Duration) *refHistogram { return &refHistogram{width: width} }

func (r *refHistogram) Add(d sim.Duration)     { r.samples = append(r.samples, d) }
func (r *refHistogram) Merge(o *refHistogram)  { r.samples = append(r.samples, o.samples...) }
func (r *refHistogram) Count() uint64          { return uint64(len(r.samples)) }
func (r *refHistogram) sorted() []sim.Duration { slices.Sort(r.samples); return r.samples }

// floor returns the grid point at or below d: d less its non-negative
// remainder modulo the width.
func (r *refHistogram) floor(d sim.Duration) sim.Duration {
	return d - ((d%r.width)+r.width)%r.width
}

func (r *refHistogram) Percentile(p float64) sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	s := r.sorted()
	return r.floor(s[int(p/100*float64(len(s)-1))])
}

func (r *refHistogram) fraction(keep func(lo sim.Duration) bool) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range r.samples {
		if keep(r.floor(s)) {
			n++
		}
	}
	return float64(n) / float64(len(r.samples))
}

func (r *refHistogram) FractionWithin(center, tol sim.Duration) float64 {
	return r.fraction(func(lo sim.Duration) bool { return lo >= center-tol && lo <= center+tol })
}

func (r *refHistogram) FractionBelow(limit sim.Duration) float64 {
	return r.fraction(func(lo sim.Duration) bool { return lo <= limit })
}

func (r *refHistogram) Bins() []Bin {
	var out []Bin
	for _, s := range r.sorted() {
		lo := r.floor(s)
		if n := len(out); n > 0 && out[n-1].Lo == lo {
			out[n-1].Count++
		} else {
			out = append(out, Bin{Lo: lo, Count: 1})
		}
	}
	return out
}

// diffRef compares every query of h with the reference r — count, bins,
// percentiles at fixed and random p, and fractions around samples and
// random points — and describes the first disagreement, or returns "".
func diffRef(h *Histogram, r *refHistogram, rng *rand.Rand) string {
	if h.Count() != r.Count() {
		return fmt.Sprintf("count %d, reference %d", h.Count(), r.Count())
	}
	if hb, rb := h.Bins(), r.Bins(); !slices.Equal(hb, rb) {
		return fmt.Sprintf("bins %v, reference %v", hb, rb)
	}
	ps := []float64{0, 1, 25, 50, 75, 99, 99.9, 100, 100 * rng.Float64(), 100 * rng.Float64()}
	for _, p := range ps {
		if got, want := h.Percentile(p), r.Percentile(p); got != want {
			return fmt.Sprintf("Percentile(%v) = %v, reference %v", p, got, want)
		}
	}
	points := []sim.Duration{0, -1, 1, sim.Duration(rng.Int63n(1<<40) - 1<<39)}
	if len(r.samples) > 0 {
		for i := 0; i < 3; i++ {
			points = append(points, r.samples[rng.Intn(len(r.samples))]+sim.Duration(rng.Int63n(int64(2*r.width)))-r.width)
		}
	}
	for _, x := range points {
		if got, want := h.FractionBelow(x), r.FractionBelow(x); got != want {
			return fmt.Sprintf("FractionBelow(%v) = %v, reference %v", x, got, want)
		}
		tol := sim.Duration(rng.Int63n(int64(4 * r.width)))
		if got, want := h.FractionWithin(x, tol), r.FractionWithin(x, tol); got != want {
			return fmt.Sprintf("FractionWithin(%v, %v) = %v, reference %v", x, tol, got, want)
		}
	}
	return ""
}

// latencyRun draws n samples of one shape: wide uniform, heavy ties,
// constant, ascending, descending, or far outliers that leave the
// dense bucket window on both sides.
func latencyRun(rng *rand.Rand, n int) []sim.Duration {
	out := make([]sim.Duration, n)
	base := sim.Duration(1+rng.Intn(20)) * sim.Microsecond
	step := sim.Duration(rng.Intn(200)) * sim.Nanosecond
	shape := rng.Intn(6)
	for i := range out {
		switch shape {
		case 0:
			out[i] = base + sim.Duration(rng.Int63n(int64(20*sim.Microsecond)))
		case 1:
			out[i] = base + sim.Duration(rng.Intn(4))*sim.Microsecond
		case 2:
			out[i] = base
		case 3:
			out[i] = base + sim.Duration(i)*step
		case 4:
			out[i] = base - sim.Duration(i)*step
		case 5:
			out[i] = sim.Duration(rng.Intn(7)-3) * sim.Second
		}
	}
	return out
}

// TestHistogramPercentileMatchesFullSort pins every query to the
// sorted-sample reference over random interleavings of Add, Merge (from
// sources that were queried before) and queries, at the paper's 64 ns
// and at a width that puts most samples off the grid.
func TestHistogramPercentileMatchesFullSort(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		width := 64 * sim.Nanosecond
		if trial%2 == 1 {
			width = sim.Duration(1 + rng.Int63n(int64(100*sim.Nanosecond)))
		}
		h, ref := NewHistogram(width), newRefHistogram(width)
		src, srcRef := NewHistogram(width), newRefHistogram(width)
		check := func(step int, hist *Histogram, r *refHistogram) {
			t.Helper()
			if d := diffRef(hist, r, rng); d != "" {
				t.Fatalf("trial %d (width %v) step %d: %s", trial, width, step, d)
			}
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				for _, d := range latencyRun(rng, 1+rng.Intn(40)) {
					h.Add(d)
					ref.Add(d)
				}
			case op < 6:
				for _, d := range latencyRun(rng, 1+rng.Intn(40)) {
					src.Add(d)
					srcRef.Add(d)
				}
			case op < 7:
				check(step, src, srcRef)
			case op < 8:
				h.Merge(src)
				ref.Merge(srcRef)
				if rng.Intn(2) == 0 {
					src, srcRef = NewHistogram(width), newRefHistogram(width)
				}
			default:
				check(step, h, ref)
			}
		}
		check(-1, h, ref)
	}
}

// TestHistogramNegativeSamplesFloor pins the floor bucket key on
// negative samples off the grid: -1 ps belongs to the bucket
// [-BinWidth, 0), whose lower edge is below it, not to bucket 0.
func TestHistogramNegativeSamplesFloor(t *testing.T) {
	const width = 64 * sim.Nanosecond
	h, ref := NewHistogram(width), newRefHistogram(width)
	for _, d := range []sim.Duration{-1, -width + 1, -width, -width - 1, -3*width - 17, 1, width - 1, width + 5, 0} {
		h.Add(d)
		ref.Add(d)
	}
	if d := diffRef(h, ref, rand.New(rand.NewSource(1))); d != "" {
		t.Fatal(d)
	}
	if got := h.Percentile(0); got != -4*width {
		t.Fatalf("Percentile(0) = %v, want the lower edge %v of -3·width-17ps", got, -4*width)
	}
	if got := h.FractionBelow(-1); got != 5.0/9 {
		t.Fatalf("FractionBelow(-1ps) = %v, want 5/9", got)
	}
}

// TestHistogramAboveMillionSamples adds more than 2^20 picosecond
// latencies at the flows' 1 ns resolution and checks the quartiles and
// fractions against the sorted reference. Sharded three ways and
// merged, it must equal the unsharded histogram.
func TestHistogramAboveMillionSamples(t *testing.T) {
	const n, k = 1<<20 + 5000, 3
	rng := rand.New(rand.NewSource(9))
	whole, ref := NewHistogram(sim.Nanosecond), newRefHistogram(sim.Nanosecond)
	var shards [k]*Histogram
	for i := range shards {
		shards[i] = NewHistogram(sim.Nanosecond)
	}
	for i := 0; i < n; i++ {
		d := 2150*sim.Nanosecond + sim.Duration(rng.Int63n(int64(10*sim.Nanosecond)))
		whole.Add(d)
		ref.Add(d)
		shards[i%k].Add(d)
	}
	if d := diffRef(whole, ref, rng); d != "" {
		t.Fatal(d)
	}
	merged := NewHistogram(sim.Nanosecond)
	for _, s := range shards {
		merged.Merge(s)
	}
	if d := diffRef(merged, ref, rng); d != "" {
		t.Fatalf("merged: %s", d)
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() || merged.Mean() != whole.Mean() {
		t.Fatalf("merged min/max/mean %v/%v/%v, unsharded %v/%v/%v",
			merged.Min(), merged.Max(), merged.Mean(), whole.Min(), whole.Max(), whole.Mean())
	}
}

// FuzzHistogram runs arbitrary values — negatives, ties and outliers far
// outside the dense window — through Add and a k-way shard Merge at an
// arbitrary width, and compares both histograms with the sorted
// reference.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(64000), uint8(2))
	f.Add([]byte{1, 255, 255, 255, 255, 2, 0, 0, 0, 1, 0, 128, 0, 0, 0}, uint32(1000), uint8(0))
	f.Add([]byte{3, 7, 7, 7, 7, 3, 7, 7, 7, 7, 0, 200, 1, 2, 3}, uint32(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, widthRaw uint32, split uint8) {
		width := sim.Duration(1 + widthRaw%200000)
		k := int(split%4) + 1
		whole, ref := NewHistogram(width), newRefHistogram(width)
		shards := make([]*Histogram, k)
		for i := range shards {
			shards[i] = NewHistogram(width)
		}
		for i := 0; i+5 <= len(data) && i < 5*4096; i += 5 {
			v := sim.Duration(int32(binary.LittleEndian.Uint32(data[i+1:])))
			switch data[i] % 4 {
			case 0:
				v <<= 20 // far outliers, up to ±2^51 ps
			case 1:
				v %= 1000 // ties around zero
			}
			whole.Add(v)
			ref.Add(v)
			shards[(i/5)%k].Add(v)
		}
		merged := NewHistogram(width)
		for _, s := range shards {
			merged.Merge(s)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		if d := diffRef(whole, ref, rng); d != "" {
			t.Fatalf("width %v: %s", width, d)
		}
		if d := diffRef(merged, ref, rng); d != "" {
			t.Fatalf("width %v, %d shards merged: %s", width, k, d)
		}
	})
}

// TestHistogramWindowedPercentileZeroAlloc pins the telemetry query
// contract: a steady-state window — new samples, then p50 and p99 —
// allocates nothing, with outliers on both sides of the dense window.
func TestHistogramWindowedPercentileZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(64 * sim.Nanosecond)
	for i := 0; i < 1<<14; i++ {
		h.Add(sim.Microsecond + sim.Duration(rng.Int63n(int64(20*sim.Microsecond))))
	}
	h.Add(-sim.Second)
	h.Add(sim.Second)
	h.Percentile(50)
	window := func() {
		for i := 0; i < 100; i++ {
			h.Add(sim.Microsecond + sim.Duration(rng.Int63n(int64(20*sim.Microsecond))))
		}
		h.Percentile(50)
		h.Percentile(99)
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("windowed query allocates %.1f objects per window, want 0", allocs)
	}
}

var durationSink sim.Duration

// BenchmarkHistogramWindowedPercentile prices one telemetry window of a
// flow's latency quantiles: 500 new samples on top of a resident history
// of 2^20, then p50 and p99 — what FlowProbe asks of every tracked flow
// each window.
func BenchmarkHistogramWindowedPercentile(b *testing.B) {
	const history, window = 1 << 20, 500
	rng := rand.New(rand.NewSource(1))
	lat := func() sim.Duration {
		return sim.Microsecond + sim.Duration(rng.Int63n(int64(20*sim.Microsecond)))
	}
	h := NewHistogram(64 * sim.Nanosecond)
	for i := 0; i < history; i++ {
		h.Add(lat())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			h.Add(lat())
		}
		durationSink = h.Percentile(50) + h.Percentile(99)
	}
}
