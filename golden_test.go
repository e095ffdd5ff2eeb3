// Golden-run gate: a reduced-scale slice of the paper experiments and
// the flow-tracked scenarios is rendered to canonical CSV artifacts
// and diffed byte-for-byte against the committed files under
// testdata/golden/. Everything rendered here is a deterministic
// function of the seed, so any drift — a model change, a statistics
// regression, an accidental reordering — fails CI with a readable
// diff instead of slipping through as a silent number shift.
//
// Regenerate after an intentional change with:
//
//	go test -run TestExperimentsGolden -short . -update
package repro

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden artifacts instead of diffing")

// tableCSV renders an experiments.Table canonically.
func tableCSV(w io.Writer, tb *experiments.Table) {
	fmt.Fprintf(w, "title,%s\n", tb.Title)
	fmt.Fprintf(w, "columns,%s\n", strings.Join(tb.Columns, ","))
	for _, r := range tb.Rows {
		fmt.Fprintf(w, "row,%s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range tb.Notes {
		fmt.Fprintf(w, "note,%s\n", n)
	}
}

// reportCSV renders a scenario.Report canonically: the counter
// baseline, per-flow slices with the sequence verdicts, result rows
// and notes. Latency histograms are reduced to count and quartiles.
func reportCSV(w io.Writer, rep *scenario.Report) {
	fmt.Fprintf(w, "scenario,%s\n", rep.Scenario)
	fmt.Fprintf(w, "window_ms,%g\n", rep.Window.Seconds()*1e3)
	fmt.Fprintf(w, "counters,tx=%d,txbytes=%d,rx=%d,rxbytes=%d,crc=%d,missed=%d\n",
		rep.TxPackets, rep.TxBytes, rep.RxPackets, rep.RxBytes, rep.RxCRCErrors, rep.RxMissed)
	for _, f := range rep.Flows {
		fmt.Fprintf(w, "flow,%s,tx=%d,rx=%d,lost=%d,reordered=%d,dup=%d",
			f.Name, f.TxPackets, f.RxPackets, f.Lost, f.Reordered, f.Duplicates)
		if f.LostDuringFault != 0 || f.LostInRecovery != 0 {
			// The fault-boundary loss split, present only in fault-driven
			// scenarios so fault-free goldens keep their line format.
			fmt.Fprintf(w, ",lost_fault=%d,lost_recovery=%d", f.LostDuringFault, f.LostInRecovery)
		}
		if f.Latency != nil && f.Latency.Count() > 0 {
			q1, q2, q3 := f.Latency.Quartiles()
			fmt.Fprintf(w, ",latn=%d,q=%g/%g/%g", f.Latency.Count(),
				q1.Nanoseconds(), q2.Nanoseconds(), q3.Nanoseconds())
		}
		fmt.Fprintln(w)
	}
	for _, row := range rep.Rows {
		fmt.Fprintf(w, "row,%s,%g,%s\n", row.Label, row.Value, row.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note,%s\n", n)
	}
}

// goldenCompare diffs got against testdata/golden/<name> (or rewrites
// the file with -update).
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	goldenCheck(t, name, got, nil)
}

// goldenCheck is goldenCompare for a CSV whose columns cols describes
// (nil for free-form artifacts): a mismatch then names every differing
// column and marks it model or diag.
func goldenCheck(t *testing.T, name, got string, cols []telemetry.ColumnMeta) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden artifact (run `go test -run TestExperimentsGolden -short . -update`): %v", err)
	}
	if string(want) == got {
		return
	}
	// Point at the first divergent line for a readable failure.
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			t.Fatalf("%s: line %d differs\n golden: %q\n  fresh: %q\n%s(regenerate with -update if intentional)",
				name, i+1, a, b, csvColumnDiff(wl, gl, cols))
		}
	}
	t.Fatalf("%s differs from golden (run with -update if intentional)", name)
}

// csvColumnDiff lists the columns in which two CSV renderings of a
// telemetry series differ in any row, each with its class, e.g.
// "differing columns: engine.events (diag), tx.tx_pkts (model)". It
// returns "" when cols is nil or the headers differ.
func csvColumnDiff(want, got []string, cols []telemetry.ColumnMeta) string {
	if cols == nil || len(want) == 0 || len(got) == 0 || want[0] != got[0] {
		return ""
	}
	class := map[string]string{}
	for _, c := range cols {
		class[c.Name] = "model"
		if c.Diag {
			class[c.Name] = "diag"
		}
	}
	header := strings.Split(want[0], ",")
	differs := make([]bool, len(header))
	for i := 1; i < len(want) || i < len(got); i++ {
		var a, b []string
		if i < len(want) {
			a = strings.Split(want[i], ",")
		}
		if i < len(got) {
			b = strings.Split(got[i], ",")
		}
		if slices.Equal(a, b) {
			continue
		}
		for c := range header {
			if c >= len(a) || c >= len(b) || a[c] != b[c] {
				differs[c] = true
			}
		}
	}
	var names []string
	for c, d := range differs {
		if d {
			cl := class[header[c]]
			if cl == "" {
				cl = "index" // window, t_ns
			}
			names = append(names, fmt.Sprintf("%s (%s)", header[c], cl))
		}
	}
	return "differing columns: " + strings.Join(names, ", ") + "\n"
}

// runGoldenScenario executes a scenario at the canonical golden
// configuration (10 ms, seed 5) on the given number of sharded cores:
// two puts the merge path inside the gate, one serves the scenarios
// that refuse sharding. withTelemetry additionally records the 1 ms
// telemetry series.
func runGoldenScenario(t *testing.T, name string, cores int, withTelemetry bool) *scenario.Report {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec := sc.DefaultSpec()
	spec.Runtime = 10 * sim.Millisecond
	spec.Seed = 5
	spec.Cores = cores
	if withTelemetry {
		spec.TelemetryInterval = sim.Millisecond
	}
	rep, err := scenario.Execute(name, spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// goldenTelemetryCSV renders the golden scenario's merged telemetry
// series with the diagnostic columns included: at the pinned
// configuration every column — engine internals and latency quantiles
// included — is a deterministic function of the seed, so the full
// series is golden-gateable even though only the model columns are
// invariant across core counts.
func goldenTelemetryCSV(t *testing.T, name string) (string, []telemetry.ColumnMeta) {
	t.Helper()
	rep := runGoldenScenario(t, name, 2, true)
	if rep.Telemetry == nil {
		t.Fatalf("%s: no telemetry series in the merged report", name)
	}
	var b strings.Builder
	if err := rep.Telemetry.WriteCSV(&b, true); err != nil {
		t.Fatal(err)
	}
	return b.String(), rep.Telemetry.Cols
}

// goldenCompareTelemetry runs a scenario's golden telemetry series and
// diffs it against testdata/golden/<file>.
func goldenCompareTelemetry(t *testing.T, file, scenario string) {
	t.Helper()
	got, cols := goldenTelemetryCSV(t, scenario)
	goldenCheck(t, file, got, cols)
}

// TestExperimentsGolden is the CI golden-run job's entry point
// (`go test -run TestExperiments -short`).
func TestExperimentsGolden(t *testing.T) {
	t.Run("table1", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, experiments.RunTable1())
		goldenCompare(t, "table1.csv", b.String())
	})
	t.Run("table2", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, experiments.RunTable2())
		goldenCompare(t, "table2.csv", b.String())
	})
	t.Run("fig2", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunFig2(experiments.ScaleTest, 2).Table)
		goldenCompare(t, "fig2.csv", b.String())
	})
	t.Run("table4", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunTable4(experiments.ScaleTest, 10).Table)
		goldenCompare(t, "table4.csv", b.String())
	})
	t.Run("loss-overload", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "loss-overload", 2, false))
		goldenCompare(t, "loss_overload.csv", b.String())
	})
	t.Run("reorder", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "reorder", 2, false))
		goldenCompare(t, "reorder.csv", b.String())
	})
	t.Run("telemetry-softcbr", func(t *testing.T) {
		goldenCompareTelemetry(t, "telemetry_softcbr.csv", "softcbr")
	})
	t.Run("telemetry-loss-overload", func(t *testing.T) {
		goldenCompareTelemetry(t, "telemetry_loss_overload.csv", "loss-overload")
	})
	t.Run("linkflap", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "linkflap", 2, false))
		goldenCompare(t, "linkflap.csv", b.String())
	})
	t.Run("overload-recover", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "overload-recover", 2, false))
		goldenCompare(t, "overload_recover.csv", b.String())
	})
	// The linkflap telemetry golden includes the diagnostic columns, so
	// the injector's recovery latency (fault.recovery_ns) is pinned
	// byte-for-byte at the canonical two-core configuration.
	t.Run("telemetry-linkflap", func(t *testing.T) {
		goldenCompareTelemetry(t, "telemetry_linkflap.csv", "linkflap")
	})
	// The remaining slot-grid TX users: churn's fid/seq patching,
	// softcbr's plain grid and reflect's echo/ARP requester (reflect
	// refuses sharding, so it runs on one core).
	t.Run("churn", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "churn", 2, false))
		goldenCompare(t, "churn.csv", b.String())
	})
	t.Run("softcbr", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "softcbr", 2, false))
		goldenCompare(t, "softcbr.csv", b.String())
	})
	t.Run("reflect", func(t *testing.T) {
		var b strings.Builder
		reportCSV(&b, runGoldenScenario(t, "reflect", 1, false))
		goldenCompare(t, "reflect.csv", b.String())
	})
	// The burst TX users: UDPFlood (flood, qos), HWRateTx (cbr; two
	// cores exercise the phase Delay), GapTx (poisson, bursts) and
	// imix's per-packet sends (imix refuses sharding, so one core).
	for _, sc := range []struct {
		name  string
		cores int
	}{{"flood", 2}, {"cbr", 2}, {"poisson", 2}, {"bursts", 2}, {"qos", 2}, {"imix", 1}} {
		t.Run(sc.name, func(t *testing.T) {
			var b strings.Builder
			reportCSV(&b, runGoldenScenario(t, sc.name, sc.cores, false))
			goldenCompare(t, sc.name+".csv", b.String())
		})
	}
	// The other §5 throughput tables, all paced by the cycle-cost
	// model: the XL710 size sweep on one engine, Figure 4 and the
	// multicore scaling series on engine shards, the frequency and
	// frame-size sweeps and the cost estimate on one core (seeds as in
	// the experiments unit tests); then GapTx through the DuT in the
	// Figure 10 sweep.
	t.Run("fig3", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunFig3(experiments.ScaleTest, 3).Table)
		goldenCompare(t, "fig3.csv", b.String())
	})
	t.Run("multicore-scaling", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunMulticoreScaling(experiments.ScaleTest, 4).Table)
		goldenCompare(t, "multicore_scaling.csv", b.String())
	})
	t.Run("fig4", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunFig4(experiments.ScaleTest, 4).Table)
		goldenCompare(t, "fig4.csv", b.String())
	})
	t.Run("freq-sweep", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunFreqSweep(experiments.ScaleTest, 1).Table)
		goldenCompare(t, "freq_sweep.csv", b.String())
	})
	t.Run("size-sweep", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunSizeSweep(experiments.ScaleTest, 6).Table)
		goldenCompare(t, "size_sweep.csv", b.String())
	})
	t.Run("cost-estimate", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunCostEstimate(experiments.ScaleTest, 5).Table)
		goldenCompare(t, "cost_estimate.csv", b.String())
	})
	t.Run("fig10", func(t *testing.T) {
		var b strings.Builder
		tableCSV(&b, &experiments.RunFig10(experiments.ScaleTest, 10).Table)
		goldenCompare(t, "fig10.csv", b.String())
	})
}
