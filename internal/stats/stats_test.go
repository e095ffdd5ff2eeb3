package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

func TestCounterCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	c := NewCounter(CounterConfig{Name: "rx", Format: FormatCSV, Out: &buf, Window: sim.Millisecond})
	c.Update(100, 6000, sim.Time(2*sim.Millisecond))
	c.Finalize(sim.Time(3 * sim.Millisecond))
	out := buf.String()
	if !strings.HasPrefix(out, "counter,time_s,mpps,gbps") {
		t.Fatalf("missing CSV header: %q", out)
	}
	if !strings.Contains(out, "rx,total,100,6000") {
		t.Fatalf("missing total line: %q", out)
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
	med := h.Median()
	if med < 490*sim.Nanosecond || med > 510*sim.Nanosecond {
		t.Fatalf("median = %v", med)
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

func TestHistogramBinsAndCSV(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	h.Add(10 * sim.Nanosecond)  // bin 0
	h.Add(70 * sim.Nanosecond)  // bin 1
	h.Add(100 * sim.Nanosecond) // bin 1
	bins := h.Bins()
	if len(bins) != 2 || bins[0].Count != 1 || bins[1].Count != 2 {
		t.Fatalf("bins = %+v", bins)
	}
	var buf bytes.Buffer
	h.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "64.0,2,0.666667") {
		t.Fatalf("csv = %q", buf.String())
	}
}

// TestHistogramPercentileBinFallback exercises the bin-based percentile
// path by overflowing the sample buffer.
func TestHistogramPercentileBinFallback(t *testing.T) {
	h := NewHistogram(sim.Nanosecond)
	h.maxSamples = 10
	for i := 0; i < 1000; i++ {
		h.Add(sim.Duration(i) * sim.Nanosecond)
	}
	med := h.Median()
	if med < 480*sim.Nanosecond || med > 520*sim.Nanosecond {
		t.Fatalf("fallback median = %v", med)
	}
	// FractionWithin/Below fall back too.
	if f := h.FractionBelow(499 * sim.Nanosecond); math.Abs(f-0.5) > 0.01 {
		t.Fatalf("fallback below = %f", f)
	}
	if f := h.FractionWithin(500*sim.Nanosecond, 100*sim.Nanosecond); math.Abs(f-0.2) > 0.02 {
		t.Fatalf("fallback within = %f", f)
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

// TestHistogramCSVRoundTrip: WriteCSV output, read back row by row into
// a fresh histogram (count samples at each bin's lower edge), writes
// out byte-identical.
func TestHistogramCSVRoundTrip(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		h.Add(sim.Duration(rng.Intn(100000)) * sim.Nanosecond)
	}
	var first bytes.Buffer
	h.WriteCSV(&first)
	parsed := NewHistogram(h.BinWidth)
	for _, row := range strings.Split(strings.TrimSpace(first.String()), "\n")[1:] {
		var lo, p float64
		var n int
		if _, err := fmt.Sscanf(row, "%g,%d,%g", &lo, &n, &p); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		for i := 0; i < n; i++ {
			parsed.Add(sim.FromNanoseconds(lo))
		}
	}
	if parsed.Count() != h.Count() {
		t.Fatalf("parsed count = %d, want %d", parsed.Count(), h.Count())
	}
	var second bytes.Buffer
	parsed.WriteCSV(&second)
	if first.String() != second.String() {
		t.Fatalf("csv round trip mismatch:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
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
// sparse map) must produce exactly the same bins, fractions and CSV
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
// once the sample reservoir is full, Add on the dense window performs
// no allocations.
func TestHistogramAddZeroAlloc(t *testing.T) {
	h := NewHistogram(64 * sim.Nanosecond)
	h.maxSamples = 64
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

// refHistogram is the full-sort reference for Histogram's percentiles:
// the same bucket counts and capped sample buffer, but every exact query
// re-sorts the whole buffer in place and the bin fallback sorts every
// bucket key, as Histogram did before its queries became incremental.
// Sorting in place matters: Merge carries the source's samples over in
// their current order, so which samples survive a cap depends on it.
type refHistogram struct {
	binWidth   sim.Duration
	bins       map[int64]uint64
	count      uint64
	max        sim.Duration
	samples    []sim.Duration
	maxSamples int
}

func newRefHistogram(binWidth sim.Duration, maxSamples int) *refHistogram {
	return &refHistogram{binWidth: binWidth, bins: map[int64]uint64{}, max: math.MinInt64, maxSamples: maxSamples}
}

func (r *refHistogram) Add(d sim.Duration) {
	r.count++
	r.max = max(r.max, d)
	r.bins[int64(d)/int64(r.binWidth)]++
	if len(r.samples) < r.maxSamples {
		r.samples = append(r.samples, d)
	}
}

func (r *refHistogram) Merge(o *refHistogram) {
	r.count += o.count
	r.max = max(r.max, o.max)
	for k, v := range o.bins {
		r.bins[k] += v
	}
	if room := r.maxSamples - len(r.samples); room > 0 {
		r.samples = append(r.samples, o.samples[:min(room, len(o.samples))]...)
	}
}

func (r *refHistogram) Percentile(p float64) sim.Duration {
	if r.count == 0 {
		return 0
	}
	if uint64(len(r.samples)) == r.count {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		return r.samples[int(p/100*float64(len(r.samples)-1))]
	}
	keys := make([]int64, 0, len(r.bins))
	for k := range r.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	target := uint64(p / 100 * float64(r.count))
	var cum uint64
	for _, k := range keys {
		cum += r.bins[k]
		if cum >= target {
			return sim.Duration(k * int64(r.binWidth))
		}
	}
	return r.max
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

// TestHistogramPercentileMatchesFullSort pins the incremental query to
// the full-sort reference over random interleavings of Add, Merge
// (into targets whose samples are partly sorted by earlier queries, from
// sources in the same state) and queries at random p, with and without
// a small sample cap that pushes the histogram onto its bin fallback.
func TestHistogramPercentileMatchesFullSort(t *testing.T) {
	const width = 64 * sim.Nanosecond
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		maxSamples := 1 << 20
		if trial%2 == 1 {
			maxSamples = 10 + rng.Intn(300)
		}
		h, ref := NewHistogram(width), newRefHistogram(width, maxSamples)
		h.maxSamples = maxSamples
		src, srcRef := NewHistogram(width), newRefHistogram(width, maxSamples)
		src.maxSamples = maxSamples
		check := func(step int, hist *Histogram, r *refHistogram, p float64) {
			t.Helper()
			if got, want := hist.Percentile(p), r.Percentile(p); got != want {
				t.Fatalf("trial %d step %d: Percentile(%v) = %v, full sort gives %v", trial, step, p, got, want)
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
				check(step, src, srcRef, 100*rng.Float64())
			case op < 8:
				h.Merge(src)
				ref.Merge(srcRef)
				if rng.Intn(2) == 0 {
					src, srcRef = NewHistogram(width), newRefHistogram(width, maxSamples)
					src.maxSamples = maxSamples
				}
			default:
				check(step, h, ref, 100*rng.Float64())
			}
		}
		for _, p := range []float64{0, 1, 25, 50, 75, 99, 99.9, 100} {
			check(-1, h, ref, p)
		}
		var total uint64
		bins := h.Bins()
		for i, b := range bins {
			total += b.Count
			if b.Count != ref.bins[int64(b.Lo)/int64(width)] || (i > 0 && bins[i-1].Lo >= b.Lo) {
				t.Fatalf("trial %d: bin %d = %+v out of order or miscounted", trial, i, b)
			}
		}
		if len(bins) != len(ref.bins) || total != ref.count {
			t.Fatalf("trial %d: %d bins holding %d samples, reference has %d holding %d", trial, len(bins), total, len(ref.bins), ref.count)
		}
	}
}

// TestHistogramWindowedPercentileZeroAlloc pins the telemetry query
// contract: a steady-state window — no more new samples than the window
// before, then p50 and p99 — allocates nothing, on the exact path and,
// once the sample cap is passed, on the bin fallback.
func TestHistogramWindowedPercentileZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(64 * sim.Nanosecond)
	// Room for the history and every measured window, so the sample
	// buffer itself never grows during the measurement.
	h.samples = make([]sim.Duration, 0, 1<<16)
	for i := 0; i < 1<<14; i++ {
		h.Add(sim.Microsecond + sim.Duration(rng.Int63n(int64(20*sim.Microsecond))))
	}
	h.Add(-sim.Second) // outliers on both sides of the dense window
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
		t.Fatalf("exact windowed query allocates %.1f objects per window, want 0", allocs)
	}
	h.maxSamples = len(h.samples)
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("bin-fallback windowed query allocates %.1f objects per window, want 0", allocs)
	}
}

var durationSink sim.Duration

// BenchmarkHistogramWindowedPercentile prices one telemetry window of a
// flow's latency quantiles: 500 new samples on top of a resident history
// of 2^20, then p50 and p99 — what FlowProbe asks of every tracked flow
// each window. The cap is raised so every window stays on the exact
// path, and the buffer is sized up front so the timing is the query's.
func BenchmarkHistogramWindowedPercentile(b *testing.B) {
	const history, window = 1 << 20, 500
	rng := rand.New(rand.NewSource(1))
	lat := func() sim.Duration {
		return sim.Microsecond + sim.Duration(rng.Int63n(int64(20*sim.Microsecond)))
	}
	h := NewHistogram(64 * sim.Nanosecond)
	h.maxSamples = history + (b.N+1)*window
	h.samples = make([]sim.Duration, 0, h.maxSamples)
	for i := 0; i < history; i++ {
		h.Add(lat())
	}
	h.Percentile(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			h.Add(lat())
		}
		durationSink = h.Percentile(50) + h.Percentile(99)
	}
}
