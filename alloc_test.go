// Zero steady-state allocation gate: every registered scenario, run at
// its default spec, allocates nothing per packet once its testbed is
// built. The paper's generator reaches line rate by recycling packet
// buffers (DPDK mempools, a reused bufArray — §4.2); the simulator's
// event path holds itself to the same rule, so its cost per packet is
// simulation work, not garbage collection.
package repro

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// maxAllocsPerUnit bounds the heap allocations per extra packet (or
// extra sample) between a short and a long run of the same spec.
const maxAllocsPerUnit = 0.001

// A run makes a few allocations that do not scale with its length:
// goroutine structures the runtime does not reuse, one more doubling of
// a sample slice. The short run does at least minUnits of work (a spec
// whose 10 ms run sends fewer packets is lengthened) and the long run
// longRatio times as much, which keeps those few well under the bound.
const (
	minUnits  = 10000
	longRatio = 4
)

// sampleDriven lists the scenarios whose work grows with Spec.Samples
// rather than Spec.Runtime: each sweeps its own testbeds until it has
// its samples.
var sampleDriven = map[string]bool{
	"interarrival-moongen": true,
	"interarrival-pktgen":  true,
	"interarrival-zsend":   true,
	"timestamps":           true,
}

// allocRun executes the spec three times and returns the fewest heap
// allocations one run made (the runtime's own allocations only ever add
// to a run's count) and the units of work a run did: transmitted
// packets, or samples.
func allocRun(t *testing.T, name string, sp scenario.Spec, samples bool) (mallocs, units uint64) {
	t.Helper()
	mallocs = math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := scenario.Execute(name, sp, io.Discard)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		units = rep.TxPackets
		if samples {
			units = uint64(sp.Samples)
		}
	}
	return mallocs, units
}

// TestZeroSteadyStateAllocs runs every registered scenario's default
// spec at two lengths, at Cores 1 and 2, and bounds the allocations
// the longer run adds per extra unit of work. Not parallel: the
// allocation counters are process-wide.
func TestZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		for _, cores := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				short := sc.DefaultSpec()
				short.Cores = cores
				if cores > 1 {
					if sco, ok := sc.(scenario.SingleCoreOnly); ok {
						t.Skipf("refuses cores=%d: %s", cores, sco.SingleCoreOnly())
					}
					if err := scenario.CheckPartition(sc, short); err != nil {
						t.Skipf("refuses cores=%d: %v", cores, err)
					}
				}
				samples := sampleDriven[name]
				scale := func(sp scenario.Spec, k int) scenario.Spec {
					if samples {
						sp.Samples *= k
					} else {
						sp.Runtime *= sim.Duration(k)
					}
					return sp
				}
				if samples {
					short.Samples = 1000
				} else {
					short.Runtime = 10 * sim.Millisecond
				}
				// The first run also warms up one-time state.
				if _, u := allocRun(t, name, short, samples); u < minUnits {
					if u == 0 {
						t.Fatal("the run did no work")
					}
					short = scale(short, int((minUnits+u-1)/u))
				}
				m1, u1 := allocRun(t, name, short, samples)
				m2, u2 := allocRun(t, name, scale(short, longRatio), samples)
				if u2 <= u1 {
					t.Fatalf("the longer run did no extra work: %d units vs %d", u2, u1)
				}
				per := (float64(m2) - float64(m1)) / float64(u2-u1)
				t.Logf("%d allocs in %d units, %d allocs in %d units: %.5f per extra unit", m1, u1, m2, u2, per)
				if per > maxAllocsPerUnit {
					t.Errorf("%.5f allocations per extra unit, want <= %g", per, maxAllocsPerUnit)
				}
			})
		}
	}
}
