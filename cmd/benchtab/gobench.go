package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one parsed `go test -bench` line: the standard ns/op
// and allocation columns plus every custom b.ReportMetric metric (the
// figure benchmarks report their headline numbers that way).
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// BenchBaseline is the committed BENCH_*.json document.
type BenchBaseline struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Command    string        `json:"command"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchPass is one `go test -bench` invocation. The baseline is built
// from several: the figure benchmarks run once (they simulate whole
// experiments and report deterministic headline metrics), while
// sub-millisecond micro benchmarks run at -benchtime 100x — at one
// iteration their ns/op is timer-granularity noise, which is exactly
// the kind of phantom regression a perf gate must not alert on. Later
// passes override same-name results from earlier ones, and the
// recorded iteration counts distinguish the two regimes in the JSON.
type benchPass struct {
	name      string
	pkg       string // package path relative to the module root
	benchRE   string
	benchtime string
	count     int // -count repetitions (0 = 1); the fastest run is kept
}

var benchPasses = []benchPass{
	{name: "figures", pkg: ".", benchRE: ".", benchtime: "1x"},
	{name: "micro", pkg: ".",
		benchRE:   "^(BenchmarkSimulatedLineRate|BenchmarkSpecCompiledLineRate|BenchmarkTelemetryOverhead|BenchmarkFaultInjectorOverhead|BenchmarkTxBurstSteadyState|BenchmarkRxBurstSteadyState|BenchmarkCRCGapScheduling)$",
		benchtime: "100x", count: 3},
	{name: "engine", pkg: "./internal/sim", benchRE: "^Benchmark(Engine|ProcContextSwitch$)", benchtime: "100x", count: 3},
	{name: "flow", pkg: "./internal/flow", benchRE: "^BenchmarkFlowTracker", benchtime: "100x", count: 3},
	{name: "stats", pkg: "./internal/stats", benchRE: "^BenchmarkHistogramWindowedPercentile$", benchtime: "100x", count: 3},
}

// benchCommand is the recorded description of the invocation set.
const benchCommand = "go test -run NONE -bench <pass> -benchmem -benchtime {1x figures, 100x -count=3 micro+engine+flow+stats, best kept}"

// args builds the go test argument list. Profile paths, when set, get
// the pass name appended so the passes do not overwrite each other.
func (p benchPass) args(cpuProfile, memProfile string) []string {
	a := []string{"test", "-run", "NONE", "-bench", p.benchRE, "-benchmem", "-benchtime", p.benchtime}
	if p.count > 1 {
		a = append(a, "-count", strconv.Itoa(p.count))
	}
	if cpuProfile != "" {
		a = append(a, "-cpuprofile", profilePath(cpuProfile, p.name))
	}
	if memProfile != "" {
		a = append(a, "-memprofile", profilePath(memProfile, p.name))
	}
	if cpuProfile != "" || memProfile != "" {
		// Profiling keeps the test binary around; park it in the temp
		// dir instead of the repository.
		a = append(a, "-o", filepath.Join(os.TempDir(), "benchtab-"+p.name+".test"))
	}
	return append(a, p.pkg)
}

// profilePath appends the pass name to a profile file path.
func profilePath(base, pass string) string { return base + "." + pass }

// betterResult decides which of two same-name benchmark lines to keep:
// more iterations wins (the longer-benchtime micro pass over the 1x
// figures pass), then the faster of -count repetitions — the workload
// is deterministic, so the minimum is the least-noise estimate and
// what keeps the recorded sim/wall ratio stable on shared runners.
func betterResult(a, b BenchResult) bool {
	if a.Iterations != b.Iterations {
		return a.Iterations > b.Iterations
	}
	return a.NsPerOp < b.NsPerOp
}

// runBenchResults runs the benchmark passes and returns the merged
// parsed results. With profiling enabled, each pass writes
// <path>.<pass> cpu/heap profiles for `go tool pprof` — the same
// binary the CI gate runs doubles as the diagnosis tool.
func runBenchResults(cpuProfile, memProfile string) ([]BenchResult, error) {
	// The benchmarks live in the module; resolve its root so -gobench
	// works from any working directory.
	moduleRoot := ""
	if root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output(); err == nil {
		moduleRoot = strings.TrimSpace(string(root))
	}
	// go test resolves relative profile paths against its own working
	// directory (the module root below) — anchor them to the caller's
	// cwd so they land where -out does.
	if abs, err := filepath.Abs(cpuProfile); cpuProfile != "" && err == nil {
		cpuProfile = abs
	}
	if abs, err := filepath.Abs(memProfile); memProfile != "" && err == nil {
		memProfile = abs
	}
	var merged []BenchResult
	index := map[string]int{}
	for _, pass := range benchPasses {
		args := pass.args(cpuProfile, memProfile)
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleRoot
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("benchtab: go %s: %w", strings.Join(args, " "), err)
		}
		results, err := parseGoBench(bytes.NewReader(out))
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if i, ok := index[r.Name]; ok {
				if betterResult(r, merged[i]) {
					merged[i] = r
				}
				continue
			}
			index[r.Name] = len(merged)
			merged = append(merged, r)
		}
		if cpuProfile != "" {
			fmt.Printf("pass %s: cpu profile %s\n", pass.name, profilePath(cpuProfile, pass.name))
		}
		if memProfile != "" {
			fmt.Printf("pass %s: mem profile %s\n", pass.name, profilePath(memProfile, pass.name))
		}
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("benchtab: no benchmark lines in go test output")
	}
	return merged, nil
}

// runGoBench runs the benchmark passes and writes the parsed baseline
// to path.
func runGoBench(path, cpuProfile, memProfile string) error {
	results, err := runBenchResults(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	return writeBaseline(path, results)
}

// gatedBenchmarks are the hot-path benchmarks the -check gate guards:
// the batched TX/RX datapaths, the event-scheduler core (the timing
// wheel's schedule/fire loop and the engine ↔ process switch), the
// per-window latency-quantile query, and the figure-level scaling runs
// whose allocation counts the zero-alloc sweep is accountable for.
var gatedBenchmarks = map[string]bool{
	"BenchmarkTable1PacketIO":        true,
	"BenchmarkSimulatedLineRate":     true,
	"BenchmarkSpecCompiledLineRate":  true,
	"BenchmarkTelemetryOverhead":     true,
	"BenchmarkFaultInjectorOverhead": true,
	"BenchmarkTxBurstSteadyState":    true,
	"BenchmarkRxBurstSteadyState":    true,
	"BenchmarkMulticoreScaling":      true,
	"BenchmarkCRCGapScheduling":      true,
	"BenchmarkEngineSchedule":        true,
	"BenchmarkProcContextSwitch":     true,
	"BenchmarkFig2MultiCoreScaling":  true,
	"BenchmarkFig4Scaling120G":       true,
	"BenchmarkFlowTrackerMillion":    true,
	"BenchmarkFlowTrackerChurn":      true,

	"BenchmarkHistogramWindowedPercentile": true,
}

// footprintGated marks gated benchmarks whose memory numbers are
// near-deterministic at a fixed iteration count and therefore gated
// like allocs/op: B/op (bytes allocated during the timed loop — 0 for
// the steady-state million-flow bench, arena/rehash growth for the
// churn bench) within the alloc threshold plus a small absolute slack,
// and the custom B/flow resident-footprint metric within the same
// relative threshold. This is the table-footprint gate: a record
// layout or slot-geometry change that bloats the flat table shows up
// here before it shows up in production memory graphs.
var footprintGated = map[string]bool{
	"BenchmarkFlowTrackerMillion": true,
	"BenchmarkFlowTrackerChurn":   true,
}

// footprintMetric is the custom metric carrying resident table bytes
// per tracked flow.
const footprintMetric = "B/flow"

// allocThreshold is the allowed relative allocs/op regression.
// Allocation counts are near-deterministic, so this is the gate's
// precise signal: a TX loop growing a per-packet allocation trips it
// immediately.
const allocThreshold = 0.25

// nsThreshold is the allowed relative ns/op regression. Wall timings
// at -benchtime 1x vary by tens of percent across machines and runs
// (the committed baseline is recorded wherever the last refresh ran),
// so only catastrophic slowdowns — an accidental de-batching, an
// event-storm regression — are actionable; finer timing moves are
// tracked by refreshing the baseline, not by this gate.
const nsThreshold = 1.5

// nsCheckFloor exempts microsecond-scale benchmarks from the timing
// check entirely: even averaged over a 100x micro pass, their ns/op
// moves with shared-runner scheduling noise; their near-deterministic
// allocs/op remains gated.
const nsCheckFloor = 10e3 // ns/op

// simWallMetric is the custom metric unit the simulator-speed
// benchmarks report: simulated time over wall time (> 1 means faster
// than realtime). It is recorded into the baseline like any other
// custom metric and guarded by the gate with the same catastrophic
// threshold as ns/op — it is wall-clock derived and just as noisy, so
// only a collapse (an accidental de-batching, an event storm) is
// actionable.
const simWallMetric = "sim/wall"

// writeBaseline marshals results into the committed baseline format.
func writeBaseline(path string, results []BenchResult) error {
	doc := BenchBaseline{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Command:    benchCommand,
		Benchmarks: results,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(results), path)
	return nil
}

// checkGoBench runs the benchmarks fresh and compares the gated
// subset against the committed baseline at path, failing on allocs/op
// or catastrophic ns/op regressions. When outPath is non-empty the
// fresh run is also written there in the baseline format, so CI can
// upload it as an artifact for post-hoc triage with a single
// benchmark run. Profile paths, when set, are passed through to the
// benchmark runs so a failing gate ships the evidence along with the
// verdict.
func checkGoBench(path, outPath, cpuProfile, memProfile string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchtab: read baseline: %w", err)
	}
	var base BenchBaseline
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("benchtab: parse baseline %s: %w", path, err)
	}
	baseline := map[string]BenchResult{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	fresh, err := runBenchResults(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeBaseline(outPath, fresh); err != nil {
			return err
		}
	}
	var (
		regressions []string
		rows        []deltaRow
	)
	compared := 0
	seen := map[string]bool{}
	for _, r := range fresh {
		if !gatedBenchmarks[r.Name] {
			continue
		}
		seen[r.Name] = true
		row := deltaRow{name: r.Name, fresh: r}
		b, ok := baseline[r.Name]
		if !ok {
			rows = append(rows, row)
			continue
		}
		row.base, row.hasBase = b, true
		rows = append(rows, row)
		compared++
		if b.NsPerOp >= nsCheckFloor && r.NsPerOp > b.NsPerOp*(1+nsThreshold) {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%)",
					r.Name, b.NsPerOp, r.NsPerOp, (r.NsPerOp/b.NsPerOp-1)*100))
		}
		// Alloc counts are near-deterministic; allow the threshold plus
		// a small absolute slack for warmup noise.
		if r.AllocsPerOp > b.AllocsPerOp*(1+allocThreshold)+2 {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %.0f -> %.0f", r.Name, b.AllocsPerOp, r.AllocsPerOp))
		}
		// Table-footprint gate: timed-loop bytes and resident B/flow are
		// as deterministic as alloc counts for the flow benchmarks.
		if footprintGated[r.Name] {
			if r.BPerOp > b.BPerOp*(1+allocThreshold)+64 {
				regressions = append(regressions,
					fmt.Sprintf("%s: B/op %.0f -> %.0f", r.Name, b.BPerOp, r.BPerOp))
			}
			bf, bok := b.Metrics[footprintMetric]
			ff, fok := r.Metrics[footprintMetric]
			if bok && fok && ff > bf*(1+allocThreshold) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.1f -> %.1f (flow-table footprint regressed beyond %.0f%%)",
						r.Name, footprintMetric, bf, ff, allocThreshold*100))
			}
		}
		// sim/wall collapse gate: the ratio is wall-derived, so reuse
		// the catastrophic ns threshold and floor rather than invent a
		// tighter (and noisier) one.
		bw, bok := b.Metrics[simWallMetric]
		fw, fok := r.Metrics[simWallMetric]
		if bok && fok && b.NsPerOp >= nsCheckFloor && fw < bw/(1+nsThreshold) {
			regressions = append(regressions,
				fmt.Sprintf("%s: sim/wall %.3f -> %.3f (simulator speed collapsed beyond the %.1fx threshold)",
					r.Name, bw, fw, 1+nsThreshold))
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	printDeltaTable(rows)
	// A guarded benchmark vanishing from the fresh run (renamed or
	// deleted) is itself a gate failure: its pin would otherwise
	// silently stop being checked.
	guarded := make([]string, 0, len(gatedBenchmarks))
	for name := range gatedBenchmarks {
		guarded = append(guarded, name)
	}
	sort.Strings(guarded)
	for _, name := range guarded {
		if _, inBase := baseline[name]; inBase && !seen[name] {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline but missing from the fresh run", name))
		}
	}
	if compared == 0 {
		return fmt.Errorf("benchtab: baseline %s contains no gated benchmarks to compare", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchtab: hot-path perf regressions vs %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("no hot-path regressions vs %s (%d benchmarks: allocs within %.0f%%, ns and sim/wall within %.1fx)\n",
		path, compared, allocThreshold*100, 1+nsThreshold)
	return nil
}

// deltaRow pairs one gated benchmark's fresh result with its baseline
// entry (absent for benchmarks that are new this run).
type deltaRow struct {
	name    string
	fresh   BenchResult
	base    BenchResult
	hasBase bool
}

// deltaHeader names the table columns: old -> new with a relative
// delta for the wall-derived numbers, old -> new for the deterministic
// allocation counts.
var deltaHeader = []string{"benchmark", "old ns/op", "new ns/op", "delta",
	"old allocs", "new allocs", "old sim/wall", "new sim/wall", "delta"}

// cells renders one row of the delta table; "-" marks a missing side
// (no baseline entry, or a benchmark that does not report sim/wall).
func (d deltaRow) cells() []string {
	c := []string{d.name, "-", fmt.Sprintf("%.0f", d.fresh.NsPerOp), "(new)",
		"-", fmt.Sprintf("%.0f", d.fresh.AllocsPerOp), "-", "-", ""}
	fw, fok := d.fresh.Metrics[simWallMetric]
	if fok {
		c[7] = fmt.Sprintf("%.3f", fw)
	}
	if !d.hasBase {
		return c
	}
	c[1] = fmt.Sprintf("%.0f", d.base.NsPerOp)
	if d.base.NsPerOp > 0 {
		c[3] = fmt.Sprintf("%+.1f%%", (d.fresh.NsPerOp/d.base.NsPerOp-1)*100)
	}
	c[4] = fmt.Sprintf("%.0f", d.base.AllocsPerOp)
	if bw, ok := d.base.Metrics[simWallMetric]; ok {
		c[6] = fmt.Sprintf("%.3f", bw)
		if fok && bw > 0 {
			c[8] = fmt.Sprintf("%+.1f%%", (fw/bw-1)*100)
		}
	}
	return c
}

// printDeltaTable writes the benchstat-style old-vs-new table to
// stdout, and — when running under GitHub Actions — appends the same
// table as markdown to the job summary ($GITHUB_STEP_SUMMARY), so a
// gate run is readable at a glance without opening the raw JSON
// artifacts.
func printDeltaTable(rows []deltaRow) {
	widths := make([]int, len(deltaHeader))
	for i, h := range deltaHeader {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = row.cells()
		for i, c := range cells[r] {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cs []string) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  %-*s", widths[0], cs[0])
		for i := 1; i < len(cs); i++ {
			fmt.Fprintf(&sb, "  %*s", widths[i], cs[i])
		}
		return sb.String()
	}
	fmt.Println(line(deltaHeader))
	for _, cs := range cells {
		fmt.Println(line(cs))
	}
	writeStepSummary(deltaHeader, cells)
}

// writeStepSummary appends the delta table as a markdown table to the
// GitHub Actions job summary file, if one is advertised.
func writeStepSummary(header []string, cells [][]string) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	var sb strings.Builder
	sb.WriteString("### benchtab gate: old vs new\n\n")
	sb.WriteString("| " + strings.Join(header, " | ") + " |\n")
	sb.WriteString("|:---|")
	for range header[1:] {
		sb.WriteString("---:|")
	}
	sb.WriteString("\n")
	for _, cs := range cells {
		sb.WriteString("| " + strings.Join(cs, " | ") + " |\n")
	}
	sb.WriteString("\n")
	f.WriteString(sb.String())
}

// parseGoBench extracts benchmark lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkName-8  1  12345 ns/op  99 B/op  4 allocs/op  17.2 some-metric
func parseGoBench(r *bytes.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark... --- SKIP"
		}
		res := BenchResult{
			Name:       strings.SplitN(fields[0], "-", 2)[0],
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// The remainder alternates "value unit".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchtab: bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				res.Metrics[unit] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		out = append(out, res)
	}
	return out, sc.Err()
}
