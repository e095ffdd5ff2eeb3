// Package stats reimplements MoonGen's stats.lua: transmit/receive
// counters that sample rates over regular intervals and report mean ±
// standard deviation, with plain and CSV output formats, plus the
// histogram type used for latency and inter-arrival distributions
// (64 ns bins in the paper's Figure 8).
package stats

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/sim"
)

// OnlineStats accumulates mean and standard deviation incrementally
// (Welford's algorithm).
type OnlineStats struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (o *OnlineStats) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Merge folds other into o so that o describes the union of both
// sample sets exactly — the parallel Welford combination (Chan et al.).
// Merging shards of a stream in any order yields the same count, mean
// and variance as accumulating the stream unsharded, up to float
// rounding. other is not modified.
func (o *OnlineStats) Merge(other *OnlineStats) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	n1, n2 := float64(o.n), float64(other.n)
	d := other.mean - o.mean
	n := n1 + n2
	o.mean += d * n2 / n
	o.m2 += other.m2 + d*d*n1*n2/n
	o.n += other.n
}

// Count returns the number of samples.
func (o *OnlineStats) Count() uint64 { return o.n }

// Mean returns the sample mean.
func (o *OnlineStats) Mean() float64 { return o.mean }

// Variance returns the population variance.
func (o *OnlineStats) Variance() float64 {
	if o.n == 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Std returns the population standard deviation.
func (o *OnlineStats) Std() float64 { return math.Sqrt(o.Variance()) }

// Format selects a counter output format. MoonGen defaults to CSV "for
// easy post-processing"; the example scripts use plain.
type Format int

// Formats.
const (
	FormatPlain Format = iota
	FormatCSV
	FormatNone // collect silently; read via accessors
)

// Counter tracks packet and byte counts and samples throughput over
// fixed windows of simulated time. It is the common core of MoonGen's
// manual TX counters and RX packet counters.
type Counter struct {
	Name   string
	format Format
	out    io.Writer
	window sim.Duration

	windowStart sim.Time
	winPkts     uint64
	winBytes    uint64

	TotalPackets uint64
	TotalBytes   uint64

	pktRate  OnlineStats // Mpps per window
	byteRate OnlineStats // Gbit/s (wire rate incl. framing not added here)

	finalized bool
}

// CounterConfig configures a Counter.
type CounterConfig struct {
	Name   string
	Format Format
	Out    io.Writer
	// Window is the sampling interval (default 1 simulated second —
	// MoonGen prints once a second; simulations usually pass ms).
	Window sim.Duration
	// Start is the counter's epoch.
	Start sim.Time
}

// NewCounter creates a counter.
func NewCounter(cfg CounterConfig) *Counter {
	if cfg.Window <= 0 {
		cfg.Window = sim.Second
	}
	c := &Counter{
		Name:        cfg.Name,
		format:      cfg.Format,
		out:         cfg.Out,
		window:      cfg.Window,
		windowStart: cfg.Start,
	}
	if c.out == nil {
		c.format = FormatNone
	}
	if c.format == FormatCSV && c.out != nil {
		fmt.Fprintf(c.out, "counter,time_s,mpps,gbps\n")
	}
	return c
}

// Update adds n packets of the given total byte size at time now —
// MoonGen's txCtr:updateWithSize(sent, size). Closing windows emits
// one rate sample each.
func (c *Counter) Update(n int, bytes int, now sim.Time) {
	for now.Sub(c.windowStart) >= c.window {
		c.closeWindow()
	}
	c.winPkts += uint64(n)
	c.winBytes += uint64(bytes)
	c.TotalPackets += uint64(n)
	c.TotalBytes += uint64(bytes)
}

// CountPacket adds a single packet (rx counter idiom).
func (c *Counter) CountPacket(bytes int, now sim.Time) { c.Update(1, bytes, now) }

func (c *Counter) closeWindow() {
	secs := c.window.Seconds()
	mpps := float64(c.winPkts) / secs / 1e6
	gbps := float64(c.winBytes) * 8 / secs / 1e9
	c.pktRate.Add(mpps)
	c.byteRate.Add(gbps)
	c.windowStart = c.windowStart.Add(c.window)
	c.winPkts, c.winBytes = 0, 0
	switch c.format {
	case FormatPlain:
		fmt.Fprintf(c.out, "[%s] %.2f Mpps, %.2f Gbit/s\n", c.Name, mpps, gbps)
	case FormatCSV:
		fmt.Fprintf(c.out, "%s,%.6f,%.4f,%.4f\n", c.Name, c.windowStart.Seconds(), mpps, gbps)
	}
}

// Finalize closes the last window and prints the summary — the
// counters' finalize() in Listing 2/3. Safe to call once.
func (c *Counter) Finalize(now sim.Time) {
	if c.finalized {
		return
	}
	c.finalized = true
	for now.Sub(c.windowStart) >= c.window && c.windowStart.Add(c.window) <= now {
		c.closeWindow()
	}
	switch c.format {
	case FormatPlain:
		fmt.Fprintf(c.out, "[%s] TOTAL: %d packets, %d bytes, %.2f ± %.2f Mpps, %.2f ± %.2f Gbit/s\n",
			c.Name, c.TotalPackets, c.TotalBytes,
			c.pktRate.Mean(), c.pktRate.Std(), c.byteRate.Mean(), c.byteRate.Std())
	case FormatCSV:
		fmt.Fprintf(c.out, "%s,total,%d,%d\n", c.Name, c.TotalPackets, c.TotalBytes)
	}
}

// Merge folds a per-shard counter into c: totals add and the window
// rate samples of both counters combine into one population, so the
// merged MppsStats describe the distribution of per-core window rates
// across all shards. Merge the shards of one run in shard order for a
// deterministic result; the counters should cover the same simulated
// span (one measurement window per core, as in the paper's per-core
// slave counters). other is not modified.
func (c *Counter) Merge(other *Counter) {
	if c.TotalPackets == 0 && c.TotalBytes == 0 && c.pktRate.Count() == 0 {
		// Fresh target: adopt the source's window grid, so windows the
		// merged counter closes later line up with the shards' rather
		// than with time zero.
		c.windowStart = other.windowStart
	}
	c.TotalPackets += other.TotalPackets
	c.TotalBytes += other.TotalBytes
	c.winPkts += other.winPkts
	c.winBytes += other.winBytes
	c.pktRate.Merge(&other.pktRate)
	c.byteRate.Merge(&other.byteRate)
}

// MppsStats returns the mean and stddev of the per-window packet rate.
func (c *Counter) MppsStats() (mean, std float64) { return c.pktRate.Mean(), c.pktRate.Std() }

// Histogram is a fixed-bin-width histogram over durations, the tool
// behind Figure 8 (inter-arrival times, 64 ns bins) and the latency
// distributions of Figures 10/11. It also tracks exact order statistics
// via a sample buffer for percentile queries.
type Histogram struct {
	BinWidth sim.Duration

	// dense is the fixed-resolution fast path: a window of
	// denseBins contiguous buckets anchored around the first recorded
	// sample. The per-packet recording path is then a bounds check and
	// an array increment — no map hashing and no allocation. Samples
	// outside the window fall back to the sparse map; bins is nil
	// until the first outlier, so well-behaved distributions never
	// allocate it. Bin keys and counts are identical to the map-only
	// implementation, so every CSV and percentile is unchanged.
	dense   []uint64
	denseLo int64

	bins map[int64]uint64
	// outliers lists the keys of bins, so percentile queries and Bins
	// can walk the buckets in key order without allocating; it is
	// re-sorted lazily after a new outlier key arrives.
	outliers       []int64
	outliersSorted bool

	count uint64
	sum   float64
	sumsq float64
	min   sim.Duration
	max   sim.Duration

	// samples retains raw values for exact percentiles. Capped to
	// avoid unbounded growth; above the cap, percentiles come from
	// bins (precision = BinWidth, fine for 64 ns bins).
	// samples[:sortedN] is ascending; a query sorts only the tail
	// recorded since the previous one and merges it in through
	// scratch, which is reused from query to query.
	samples    []sim.Duration
	maxSamples int
	sortedN    int
	scratch    []sim.Duration
}

// denseBins is the width of the dense bucket window (64 kB of
// counters): ±2048 bins of slack below the anchor and the rest above.
// With the paper's 64 ns bins that is a ±131 µs / +393 µs window —
// wide enough that latency and inter-arrival distributions stay
// entirely on the fast path, while pathological outliers degrade to
// the map instead of growing the array.
const denseBins = 8192

// NewHistogram creates a histogram with the given bin width (64 ns in
// the paper's measurements).
func NewHistogram(binWidth sim.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = 64 * sim.Nanosecond
	}
	return &Histogram{
		BinWidth:   binWidth,
		min:        math.MaxInt64,
		max:        math.MinInt64,
		maxSamples: 1 << 20,
	}
}

// binKey returns the bucket index of d (truncating division, exactly
// as the map keys have always been computed).
func (h *Histogram) binKey(d sim.Duration) int64 { return int64(d) / int64(h.BinWidth) }

// anchorDense places the dense window around the first observed key:
// a quarter of the window below (distributions skew upward from their
// first sample), the rest above.
func (h *Histogram) anchorDense(key int64) {
	h.dense = make([]uint64, denseBins)
	h.denseLo = key - denseBins/4
}

// addBin increments one bucket through the dense window or, for
// outliers, the sparse map.
func (h *Histogram) addBin(key int64, n uint64) {
	if h.dense == nil {
		h.anchorDense(key)
	}
	if idx := key - h.denseLo; idx >= 0 && idx < denseBins {
		h.dense[idx] += n
		return
	}
	if h.bins == nil {
		h.bins = make(map[int64]uint64)
	}
	keys := len(h.bins)
	h.bins[key] += n
	if len(h.bins) != keys {
		h.outliers = append(h.outliers, key)
		h.outliersSorted = false
	}
}

// Add records one duration.
func (h *Histogram) Add(d sim.Duration) {
	h.count++
	f := float64(d)
	h.sum += f
	h.sumsq += f * f
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.addBin(h.binKey(d), 1)
	if len(h.samples) < h.maxSamples {
		h.samples = append(h.samples, d)
	}
}

// Merge folds other into h so that h describes the union of both
// sample sets. Bin counts, count, sum, sum of squares and min/max
// combine exactly; raw samples are carried over up to h's sample cap,
// so percentiles stay exact as long as the merged histogram remains
// under the cap (above it they degrade to bin precision, as always).
// Bin widths must match. other is not modified.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.BinWidth != other.BinWidth {
		panic(fmt.Sprintf("stats: merging histograms with bin widths %v and %v", h.BinWidth, other.BinWidth))
	}
	h.count += other.count
	h.sum += other.sum
	h.sumsq += other.sumsq
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	if h.dense == nil && other.dense != nil {
		// Fresh target: adopt the source's dense anchor so shard
		// histograms merged in order stay on the fast path.
		h.dense = make([]uint64, denseBins)
		h.denseLo = other.denseLo
	}
	other.eachBin(func(k int64, v uint64) { h.addBin(k, v) })
	if room := h.maxSamples - len(h.samples); room > 0 {
		take := other.samples
		if len(take) > room {
			take = take[:room]
		}
		h.samples = append(h.samples, take...)
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// FootprintBytes returns the histogram's resident memory: the dense
// bucket window, the retained sample buffer and its merge scratch, and
// an estimate for the sparse overflow map (per-entry key+count plus
// bucket overhead, and the entry's slot in the sorted key list). The
// flow tracker uses it to account lazily created per-flow histograms
// in its table-footprint diagnostics.
func (h *Histogram) FootprintBytes() uint64 {
	return uint64(len(h.dense))*8 + uint64(cap(h.samples)+cap(h.scratch))*8 + uint64(len(h.bins))*32
}

// Mean returns the sample mean.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.count))
}

// Std returns the population standard deviation.
func (h *Histogram) Std() sim.Duration {
	if h.count == 0 {
		return 0
	}
	m := h.sum / float64(h.count)
	v := h.sumsq/float64(h.count) - m*m
	if v < 0 {
		v = 0
	}
	return sim.Duration(math.Sqrt(v))
}

// Min returns the smallest sample.
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// ensureSorted makes samples ascending. Only the tail recorded since
// the last query is sorted; it is then merged into the sorted prefix
// backwards and in place: each new sample, largest first, gallops down
// the prefix to its slot and the prefix run above it moves up in one
// copy. A query thus costs its new samples plus one move of the prefix
// above the smallest of them, not a re-sort of the whole history.
func (h *Histogram) ensureSorted() {
	s, n := h.samples, h.sortedN
	h.sortedN = len(s)
	tail := s[n:]
	if len(tail) == 0 {
		return
	}
	slices.Sort(tail)
	if n == 0 || s[n-1] <= tail[0] {
		return
	}
	h.scratch = append(h.scratch[:0], tail...)
	hi := n // s[:hi] is the prefix not yet moved
	for j := len(h.scratch) - 1; j >= 0; j-- {
		v := h.scratch[j]
		lo := gallopAbove(s[:hi], v)
		copy(s[lo+j+1:hi+j+1], s[lo:hi])
		s[lo+j] = v
		hi = lo
	}
}

// gallopAbove returns the index of the first value above v in the
// ascending s, probing back from the end in doubling steps and then
// bisecting the last step. Its cost grows with the log of the distance
// from the end, so placing descending values one after another in
// shrinking prefixes costs the gaps between them, not the prefix.
func gallopAbove(s []sim.Duration, v sim.Duration) int {
	lo, hi := len(s)-1, len(s) // s[hi:] is above v
	for step := 1; lo > 0 && s[lo] > v; step *= 2 {
		hi = lo
		lo = max(len(s)-2*step, 0)
	}
	lo = max(lo, 0)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] > v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Percentile returns the p-th percentile (0 < p ≤ 100).
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if uint64(len(h.samples)) == h.count {
		h.ensureSorted()
		idx := int(p / 100 * float64(len(h.samples)-1))
		return h.samples[idx]
	}
	// Bin-based fallback.
	target := uint64(p / 100 * float64(h.count))
	var cum uint64
	q := h.max
	h.eachBinAscending(func(k int64, c uint64) bool {
		cum += c
		if cum >= target {
			q = sim.Duration(k * int64(h.BinWidth))
			return false
		}
		return true
	})
	return q
}

// Median returns the 50th percentile.
func (h *Histogram) Median() sim.Duration { return h.Percentile(50) }

// Quartiles returns the 25th, 50th and 75th percentiles — the series
// plotted in Figures 10 and 11.
func (h *Histogram) Quartiles() (q1, q2, q3 sim.Duration) {
	return h.Percentile(25), h.Percentile(50), h.Percentile(75)
}

// FractionWithin returns the fraction of samples within ±tol of center,
// the Table 4 bucket metric (±64/128/256/512 ns around the target
// inter-arrival time).
func (h *Histogram) FractionWithin(center, tol sim.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	if uint64(len(h.samples)) == h.count {
		n := 0
		for _, s := range h.samples {
			if s >= center-tol && s <= center+tol {
				n++
			}
		}
		return float64(n) / float64(h.count)
	}
	lo, hi := int64(center-tol)/int64(h.BinWidth), int64(center+tol)/int64(h.BinWidth)
	var cum uint64
	h.eachBin(func(k int64, v uint64) {
		if k >= lo && k <= hi {
			cum += v
		}
	})
	return float64(cum) / float64(h.count)
}

// FractionBelow returns the fraction of samples ≤ limit — the
// micro-burst metric (inter-arrival ≤ back-to-back time).
func (h *Histogram) FractionBelow(limit sim.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	if uint64(len(h.samples)) == h.count {
		n := 0
		for _, s := range h.samples {
			if s <= limit {
				n++
			}
		}
		return float64(n) / float64(h.count)
	}
	key := int64(limit) / int64(h.BinWidth)
	var cum uint64
	h.eachBin(func(k int64, v uint64) {
		if k <= key {
			cum += v
		}
	})
	return float64(cum) / float64(h.count)
}

// Bin is one histogram bucket.
type Bin struct {
	Lo    sim.Duration
	Count uint64
}

// eachBin visits every non-empty bucket (dense window, then sparse
// outliers) in unspecified order. Counts are exact; callers needing
// ascending order use eachBinAscending.
func (h *Histogram) eachBin(f func(key int64, count uint64)) {
	for i, v := range h.dense {
		if v != 0 {
			f(h.denseLo+int64(i), v)
		}
	}
	for k, v := range h.bins {
		f(k, v)
	}
}

// eachBinAscending visits the non-empty buckets in ascending key order
// until f returns false: outliers below the dense window, the window,
// then outliers above it. The window is anchored before any outlier is
// counted and never moves, so no outlier key falls inside it.
func (h *Histogram) eachBinAscending(f func(key int64, count uint64) bool) {
	if !h.outliersSorted {
		slices.Sort(h.outliers)
		h.outliersSorted = true
	}
	i := 0
	for ; i < len(h.outliers) && h.outliers[i] < h.denseLo; i++ {
		if !f(h.outliers[i], h.bins[h.outliers[i]]) {
			return
		}
	}
	for j, v := range h.dense {
		if v != 0 && !f(h.denseLo+int64(j), v) {
			return
		}
	}
	for _, k := range h.outliers[i:] {
		if !f(k, h.bins[k]) {
			return
		}
	}
}

// Bins returns the non-empty buckets in ascending order.
func (h *Histogram) Bins() []Bin {
	var out []Bin
	h.eachBinAscending(func(k int64, c uint64) bool {
		out = append(out, Bin{Lo: sim.Duration(k * int64(h.BinWidth)), Count: c})
		return true
	})
	return out
}

// WriteCSV dumps "bin_lo_ns,count,probability" rows.
func (h *Histogram) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "bin_lo_ns,count,probability\n")
	for _, b := range h.Bins() {
		fmt.Fprintf(w, "%.1f,%d,%.6f\n", b.Lo.Nanoseconds(), b.Count, float64(b.Count)/float64(h.count))
	}
}
