// Package ptpclk models the IEEE 1588 timestamping clocks on Intel
// NICs and the clock synchronization algorithm MoonGen builds on them
// (paper §6).
//
// Each network port has an independent free-running clock. The paper's
// measured properties are encoded directly:
//
//   - 82599/X540 at 10 GbE tick at 156.25 MHz → 6.4 ns precision; at
//     1 GbE the frequency drops to 15.625 MHz → 64 ns.
//   - On the 82599 the timer register increments only every *two* clock
//     cycles: granularity 12.8 ns while timestamping operates at 6.4 ns,
//     which produces the bimodal latency measurements in Table 3.
//   - The 82580 (GbE) timestamps with 64 ns precision plus a constant
//     phase offset k·8 ns that changes on every reset.
//   - Clocks on different ports drift; the worst case the paper observed
//     is 35 µs/s between a mainboard NIC and a discrete NIC.
//   - Reads over PCIe occasionally return outliers (~5% of reads), which
//     is why the sync algorithm reads 7 times and takes the median.
package ptpclk

import (
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Clock is a simulated NIC timestamping clock.
type Clock struct {
	eng *sim.Engine

	// tick is the timer-register granularity: the value read is
	// quantized to a multiple of tick (plus phase).
	tick sim.Duration

	// phase is a constant offset below one tick, modeling the 82580's
	// "t = n·64ns + k·8ns where k varies between resets".
	phase sim.Duration

	// offset is the current difference between this clock and simulated
	// wall time (adjusted by Adjust).
	offset sim.Duration

	// driftPPM is the clock's frequency error in parts per million
	// relative to wall time. 35 µs/s == 35 ppm.
	driftPPM float64

	// driftEpoch is the wall time at which offset was last valid;
	// accumulated drift is (now-driftEpoch) * driftPPM / 1e6.
	driftEpoch sim.Time

	sync func() // SetSync hook

	// readOutlierProb is the probability that a PCIe register read
	// returns a bogus value (paper §6.2: ~5%).
	readOutlierProb float64

	rng *rand.Rand
}

// Config configures a clock.
type Config struct {
	// TickNS is the timer granularity in nanoseconds (6.4 for X540 at
	// 10 GbE, 12.8 for the 82599 timer register, 64 for GbE chips).
	TickNS float64
	// PhaseNS is a constant sub-tick phase offset (82580: k·8 ns).
	PhaseNS float64
	// DriftPPM is the frequency error versus wall time.
	DriftPPM float64
	// ReadOutlierProb is the probability of a bogus register read.
	ReadOutlierProb float64
	// InitialOffset desynchronizes the clock at creation.
	InitialOffset sim.Duration
}

// New creates a clock bound to the engine's timeline.
func New(eng *sim.Engine, cfg Config) *Clock {
	if cfg.TickNS == 0 {
		cfg.TickNS = 6.4
	}
	return &Clock{
		eng:             eng,
		tick:            sim.FromNanoseconds(cfg.TickNS),
		phase:           sim.FromNanoseconds(cfg.PhaseNS),
		offset:          cfg.InitialOffset,
		driftPPM:        cfg.DriftPPM,
		driftEpoch:      eng.Now(),
		readOutlierProb: cfg.ReadOutlierProb,
		rng:             eng.Rand(),
	}
}

// Tick returns the timer granularity.
func (c *Clock) Tick() sim.Duration { return c.tick }

// raw returns the un-quantized clock value at wall time now.
func (c *Clock) raw(now sim.Time) sim.Time {
	drift := sim.Duration(float64(now.Sub(c.driftEpoch)) * c.driftPPM / 1e6)
	return now.Add(c.offset + drift)
}

// quantize snaps a raw value to the register granularity.
func (c *Clock) quantize(t sim.Time) sim.Time {
	if c.tick <= 0 {
		return t
	}
	q := (int64(t) - int64(c.phase)) / int64(c.tick)
	return sim.Time(q*int64(c.tick) + int64(c.phase))
}

// Timestamp returns the clock value latched for a packet at the current
// instant — what the NIC hardware writes into its timestamp register.
// It is always quantized and never an outlier: the latch is on-chip.
func (c *Clock) Timestamp() sim.Time {
	return c.quantize(c.raw(c.eng.Now()))
}

// TimestampAt returns the latched value for an event at wall time t
// (used by the NIC model when it knows the exact MAC-level instant).
func (c *Clock) TimestampAt(t sim.Time) sim.Time {
	return c.quantize(c.raw(t))
}

// Read models a software register read over PCIe: usually the quantized
// clock value, occasionally (readOutlierProb) garbage.
func (c *Clock) Read() sim.Time {
	v := c.Timestamp()
	if c.readOutlierProb > 0 && c.rng.Float64() < c.readOutlierProb {
		// An outlier: a value off by up to ±1 µs, the "randomly
		// distributed outliers" of §6.2.
		off := sim.Duration(c.rng.Int63n(int64(2*sim.Microsecond))) - sim.Microsecond
		return v.Add(off)
	}
	return v
}

// SetSync installs fn to run before the clock is stepped (Adjust,
// SetDriftPPM), so a port pulls its due arrivals before they are
// stamped by the stepped clock.
func (c *Clock) SetSync(fn func()) { c.sync = fn }

// Adjust shifts the clock by delta using the NIC's atomic
// read-modify-write timer adjustment (required for PTP, §6.2).
func (c *Clock) Adjust(delta sim.Duration) {
	if c.sync != nil {
		c.sync()
	}
	// Fold accumulated drift into the offset so the adjustment is
	// atomic with respect to the drift model.
	now := c.eng.Now()
	c.offset = c.raw(now).Sub(now) + delta
	c.driftEpoch = now
}

// SetDriftPPM changes the drift rate (e.g. when a link renegotiates).
func (c *Clock) SetDriftPPM(ppm float64) {
	if c.sync != nil {
		c.sync()
	}
	now := c.eng.Now()
	c.offset = c.raw(now).Sub(now)
	c.driftEpoch = now
	c.driftPPM = ppm
}

// Offset returns the clock's current total deviation from wall time.
func (c *Clock) Offset() sim.Duration {
	return c.raw(c.eng.Now()).Sub(c.eng.Now())
}

// SyncSamples is the number of paired reads the synchronization
// procedure performs. With a 5% outlier probability per read, 7 samples
// give > 99.999% probability of at least 3 clean measurements (§6.2).
const SyncSamples = 7

// Sync synchronizes clock b to clock a using MoonGen's algorithm:
// read a then b, then b then a; if the two differences agree the clocks
// were read consistently. Repeat SyncSamples times, take the median
// difference, and adjust b. Returns the applied correction.
//
// The residual error after Sync is at most one timer tick (±1 cycle,
// §6.2), i.e. 19.2 ns worst case for two 6.4 ns clocks plus quantization.
func Sync(a, b *Clock) sim.Duration {
	tol := int64(a.tick)
	if int64(b.tick) > tol {
		tol = int64(b.tick)
	}
	tol *= 2
	var validBuf, allBuf [SyncSamples]int64
	valid, all := validBuf[:0], allBuf[:0]
	for i := 0; i < SyncSamples; i++ {
		// Read in both orders: a then b, then b then a. The two
		// differences agree iff the clocks were read consistently
		// (no outlier hit and, on hardware, constant PCIe latency).
		d1 := int64(a.Read()) - int64(b.Read())
		d2 := int64(a.Read()) - int64(b.Read())
		all = append(all, d1)
		if abs64(d1-d2) <= tol {
			valid = append(valid, (d1+d2)/2)
		}
	}
	if len(valid) == 0 {
		// Vanishingly unlikely with 7 samples at 5% outlier rate
		// (§6.2: >99.999% chance of ≥3 clean measurements); fall back
		// to the plain median.
		valid = all
	}
	slices.Sort(valid)
	med := valid[len(valid)/2]
	b.Adjust(sim.Duration(med))
	return sim.Duration(med)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// MeasureDrift estimates the drift rate between two clocks by sampling
// their difference over the given interval. It mirrors the paper's
// drift.lua measurement. The result is in PPM (µs per second).
func MeasureDrift(p *sim.Proc, a, b *Clock, interval sim.Duration) float64 {
	start := int64(a.Timestamp() - b.Timestamp())
	p.Sleep(interval)
	end := int64(a.Timestamp() - b.Timestamp())
	return float64(end-start) / float64(interval) * 1e6
}
