// Package sim provides a deterministic discrete-event simulation engine
// with picosecond resolution.
//
// The engine is the time substrate for the whole testbed: NIC DMA engines,
// MAC transmitters, wire propagation, DuT forwarders and generator tasks
// are all simulated processes scheduled on one timing wheel (wheel.go; a
// binary heap remains as the reference scheduler). Picoseconds are
// used because the finest granularity in the reproduced paper is 0.8 ns
// (one byte time at 10 GbE), which is exactly 800 ps; int64 picoseconds
// represent every quantity in the paper without rounding.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation time in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulation time in picoseconds.
type Duration int64

// Common durations. These mirror time.Duration's constants but are
// picosecond-based.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel Time after every representable event.
const Never Time = math.MaxInt64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	neg := d < 0
	if neg {
		d = -d
	}
	var s string
	switch {
	case d < Nanosecond:
		s = fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		s = fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		s = fmt.Sprintf("%.4gus", d.Microseconds())
	case d < Second:
		s = fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		s = fmt.Sprintf("%.6gs", d.Seconds())
	}
	if neg {
		return "-" + s
	}
	return s
}

// FromSeconds converts seconds to a Duration, rounding to the nearest
// picosecond.
func FromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// FromNanoseconds converts nanoseconds to a Duration, rounding to the
// nearest picosecond.
func FromNanoseconds(ns float64) Duration {
	return Duration(math.Round(ns * float64(Nanosecond)))
}
