// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the simulated testbed it
// needs, produces a typed result, and can print the same rows/series
// the paper reports. cmd/benchtab and the top-level benchmarks are thin
// wrappers around these runners.
//
// Every §5 throughput point (Figures 2-4, the frequency and frame-size
// sweeps, the cost estimate) runs one load, costLoad: one task per
// modeled core paced by the cycle-cost model, counting what the NICs
// transmit after a warmup. Figures 2 and 3 share ports across cores on
// one engine; Figure 4 and the multicore scaling series run one engine
// shard per core on real goroutines.
//
// Scale parameters: every runner takes a Scale that trades run time for
// statistical depth. ScaleTest keeps the full test suite fast;
// ScaleFull approaches the paper's sample counts.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Scale controls simulated duration and sample counts.
type Scale struct {
	// Window is the measurement window per data point.
	Window sim.Duration
	// Probes is the number of timestamped probes per data point.
	Probes int
	// Samples is the number of packets for distribution measurements.
	Samples int
	// Reps is the number of repetitions for error bars.
	Reps int
}

// ScaleTest is the fast CI scale.
var ScaleTest = Scale{
	Window:  2 * sim.Millisecond,
	Probes:  150,
	Samples: 30000,
	Reps:    2,
}

// ScaleFull approaches the paper's sample sizes (≥500k timestamps,
// ≥1M inter-arrivals, 30 s runs scaled down to simulation budgets).
var ScaleFull = Scale{
	Window:  20 * sim.Millisecond,
	Probes:  2000,
	Samples: 500000,
	Reps:    5,
}

// Row is one line of a printed table.
type Row struct {
	Label  string
	Values []float64
}

// Table is a generic experiment result: a header plus rows.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	fmt.Fprintf(w, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-34s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%16.4g", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
