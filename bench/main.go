// Command bench is MoonGen's user-path benchmark: it times the exact
// path `moongen run spec.yaml` takes — spec.Load, Document.Compile,
// scenario.Execute — on the committed workload specs in workloads/,
// checks every run's output, and prints each metric by name and unit.
// A traced run (-trace 1) gives per-layer numbers instead: spans around
// the benchmark's calls, the layers' public counters, and a CPU profile
// of the same path attributed to the layer packages.
//
// Every measured run is a fresh child process (the benchmark re-executes
// itself), one at a time: a closed loop with a single client. See
// README.md for the metrics, the workloads and how to read a trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run.
var endToEnd = []metricDef{
	{"ns_per_pkt", "ns"},
	{"sim_wall", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints.
var perLayer = append([]metricDef{
	{"spec.load_ms", "ms"},
	{"scenario.build_ms", "ms"},
	{"scenario.launch_ms", "ms"},
	{"scenario.drain_ms", "ms"},
	{"sim.window_ms_p50", "ms"},
	{"sim.window_ms_p99", "ms"},
	{"sim.windows", "count"},
	{"sim.window_growth", "ratio"},
	{"sim.events_per_pkt", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.promotions_per_kpkt", "count"},
	{"sim.max_slot_depth", "count"},
	{"multicore.shard_skew", "ratio"},
	{"multicore.par_eff", "ratio"},
	{"nic.rx_missed", "count"},
	{"wire.dropped_frames", "count"},
	{"dut.forwarded", "count"},
	{"dut.interrupts", "count"},
	{"fault.fired", "count"},
	{"fault.frames_dropped", "count"},
	{"telemetry.windows", "count"},
	{"flow.bytes_per_flow", "B"},
	{"runtime.allocs_per_pkt", "count"},
	{"runtime.bytes_per_pkt", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{bucketHandoff + ".ns_per_pkt", "ns"},
	{bucketGC + ".ns_per_pkt", "ns"},
	{bucketOther + ".ns_per_pkt", "ns"},
	{"trace.samples", "count"},
	{"trace.cpu_ns_per_pkt", "ns"},
	{"trace.attributed_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"host.cal_ms", "ms"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	defs := make([]metricDef, len(layers))
	for i, l := range layers {
		defs[i] = metricDef{l + ".self_ns_per_pkt", "ns"}
	}
	return defs
}

const (
	// setupChildren is how many fresh processes time the cold set-up.
	setupChildren = 21
	// minChildren is the fewest timed children behind a median.
	minChildren = 3
	// minSamples is the CPU profile samples a traced run collects.
	minSamples = 2000
	// profilePeriod is runtime/pprof's sampling period (100 Hz). Linux
	// checks CPU-time timers on the scheduler tick, so a rate above the
	// kernel's tick rate loses samples.
	profilePeriod = 10 * time.Millisecond
	// traceBudget bounds a traced run's profiling phase.
	traceBudget = 120 * time.Second
)

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// samples is the CPU profile samples a traced run collects.
	samples int
	// scale multiplies every workload's runtime; the smoke test runs
	// the workloads at a fraction of their length.
	scale float64
	// run performs one child run: in a fresh process normally, in the
	// calling one under test.
	run func(childArgs) (childResult, error)
	// calibrate times the calibration kernel; tests substitute a
	// constant.
	calibrate func() time.Duration
	out       io.Writer
	// outDir receives a traced run's profiles and spans.
	outDir string
}

// metric is one reported value: the median of its samples, with their
// quartiles and count.
type metric struct {
	metricDef
	summary
}

// result is a workload's outcome.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

// tally records checks: a verdict list from one child, or an identity
// comparison of two reports.
func (r *result) tally(checks []checkResult) {
	for _, c := range checks {
		r.attempted++
		if !c.OK {
			r.failed++
			r.failures = append(r.failures, strings.TrimSpace(c.Name+": "+c.Detail))
		}
	}
}

// sameReports checks that every child printed the reference report.
func (r *result) sameReports(what, ref string, runs []childResult) {
	for _, c := range runs {
		r.tally([]checkResult{verdict(what, c.Report == ref, "reports differ:\n%s\nvs\n%s", ref, c.Report)})
	}
}

func main() {
	child := flag.String("child", "", "internal: run one child with these JSON arguments")
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "simulation seed, replacing the spec's")
	seconds := flag.Float64("seconds", 15, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		samples: minSamples, scale: 1, run: execChild, calibrate: calibrate,
		out: os.Stdout, outDir: "out",
	}
	ok, err := runAll(cfg, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// workloadNames lists the benchmark's workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloadChecks))
	for n := range workloadChecks {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// runAll measures each named workload and prints its table. The last
// line is one JSON object: the workload's result, or with several
// workloads their union, each metric prefixed by its workload.
func runAll(cfg config, names []string) (bool, error) {
	fmt.Fprintf(cfg.out, "# moongen user-path benchmark: seed %d, %gs per workload, trace %v\n", cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(cfg.out, "# host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, w := range names {
		res, err := runWorkload(cfg, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w, err)
		}
		printResult(cfg.out, w, res)
		line.Attempted += res.attempted
		line.Failed += res.failed
		for _, m := range res.metrics {
			name := m.name
			if len(names) > 1 {
				name = w + "." + name
			}
			line.Metrics[name] = value{m.Median, m.unit}
		}
	}
	line.Correct = line.Failed == 0
	js, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(cfg.out, string(js))
	return line.Correct, nil
}

// runWorkload measures one workload: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runWorkload(cfg config, w string) (*result, error) {
	if _, ok := workloadChecks[w]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(workloadNames(), ", "))
	}
	base := childArgs{Workload: w, Seed: cfg.seed}
	name, sp, err := loadSpec(base)
	if err != nil {
		return nil, err
	}
	if cfg.scale != 1 {
		base.Runtime = sim.Duration(float64(sp.Runtime) * cfg.scale)
		sp.Runtime = base.Runtime
	}
	fmt.Fprintf(cfg.out, "\n## %s: %s/%s.yaml, scenario %s, runtime %v, cores %d\n",
		w, workloadDir, w, name, sp.Runtime, max(sp.Cores, 1))
	if cfg.trace {
		return traceWorkload(cfg, base, sp.Cores)
	}
	return timeWorkload(cfg, base)
}

// timeWorkload produces the end-to-end metrics: the cold set-up first,
// then timed children until the measuring time is spent.
func timeWorkload(cfg config, base childArgs) (*result, error) {
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// The set-up children take milliseconds each, so one calibration on
	// either side of them serves them all.
	setupArgs := base
	setupArgs.Mode, setupArgs.Runtime = modeSetup, sim.Microsecond
	before := cfg.calibrate()
	var setup []float64
	for range setupChildren {
		c, err := cfg.run(setupArgs)
		if err != nil {
			return nil, err
		}
		setup = append(setup, float64(c.WallNS)/1e9)
	}
	s := &childRunner{cfg: cfg, last: cfg.calibrate()}
	for i := range setup {
		setup[i] = scaled(setup[i], (before+s.last)/2)
	}
	timedArgs := base
	timedArgs.Mode = modeTimed
	timed, err := s.runMany(timedArgs, minChildren, deadline)
	if err != nil {
		return nil, err
	}
	res := &result{}
	for _, c := range timed {
		res.tally(c.Checks)
	}
	res.sameReports("same-seed runs print identical reports", timed[0].Report, timed[1:])
	res.metrics = []metric{
		{endToEnd[0], summarize(each(timed, scaledNsPerPkt))},
		{endToEnd[1], summarize(each(timed, func(c childResult) float64 {
			return float64(c.SimNS) / scaled(float64(c.WallNS), c.Cal)
		}))},
		{endToEnd[2], summarize(setup)},
		{endToEnd[3], summarize(each(timed, func(c childResult) float64 { return float64(c.PeakRSSKB) / 1024 }))},
	}
	fmt.Fprintf(cfg.out, "# calibration kernel %.2f ms (reference %v); unscaled ns_per_pkt %.1f\n",
		median(each(timed, func(c childResult) float64 { return float64(c.Cal) / 1e6 })), calRef, median(each(timed, nsPerPkt)))
	return res, nil
}

// traceWorkload produces the per-layer metrics. Untraced children (and,
// for a sharded spec, single-core companions) run for the measuring
// time as the overhead and parallel-efficiency baselines; traced
// children then run until their profiles hold enough samples.
func traceWorkload(cfg config, base childArgs, cores int) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	stale, _ := filepath.Glob(filepath.Join(cfg.outDir, base.Workload+"-*.pprof"))
	for _, f := range stale {
		_ = os.Remove(f) // a leftover profile is harmless; it is just not read
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	timedArgs := base
	timedArgs.Mode = modeTimed
	companionArgs := timedArgs
	companionArgs.Cores = 1
	s := &childRunner{cfg: cfg}
	var untraced, companions []childResult
	for len(untraced) < minChildren || time.Now().Before(deadline) {
		c, err := s.run(timedArgs)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, c)
		if cores > 1 {
			if c, err = s.run(companionArgs); err != nil {
				return nil, err
			}
			companions = append(companions, c)
		}
	}
	// Profiles hold slightly fewer samples than CPU time predicts, hence
	// the 5% margin on the CPU time collected.
	var traced []childResult
	var profiles []string
	var cpu time.Duration
	stop := time.Now().Add(traceBudget)
	for len(traced) == 0 || (cpu < time.Duration(cfg.samples)*profilePeriod*21/20 && time.Now().Before(stop)) {
		a := base
		a.Mode = modeTraced
		a.Profile = filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d.pprof", base.Workload, len(traced)))
		c, err := s.run(a)
		if err != nil {
			return nil, err
		}
		traced = append(traced, c)
		profiles = append(profiles, a.Profile)
		cpu += time.Duration(c.CPUNS)
	}
	stacks, err := readProfiles(profiles)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, base.Workload+".spans.jsonl"), traced); err != nil {
		return nil, err
	}

	res := &result{}
	for _, c := range slices.Concat(untraced, companions, traced) {
		res.tally(c.Checks)
	}
	ref := untraced[0].Report
	res.sameReports("same-seed runs print identical reports", ref, untraced[1:])
	res.sameReports("traced report equals the untraced one", ref, traced)
	if len(companions) > 0 {
		res.sameReports("same-seed runs print identical reports", companions[0].Report, companions[1:])
	}
	res.metrics = layerMetrics(untraced, companions, traced, profileCost(stacks), cores)
	fmt.Fprintf(cfg.out, "# %d untraced, %d companion and %d traced runs in %.1fs; spans in %s/%s.spans.jsonl\n",
		len(untraced), len(companions), len(traced), time.Since(start).Seconds(), cfg.outDir, base.Workload)
	return res, nil
}

// layerMetrics computes every per-layer metric: the traced children's
// own values, their pooled window timings, the profile's cost per
// packet, and the comparisons with the untraced and companion runs.
// Like the end-to-end times, every time is scaled to the reference host.
func layerMetrics(untraced, companions, traced []childResult, cost map[string]time.Duration, cores int) []metric {
	isTime := map[string]bool{}
	for _, d := range perLayer {
		isTime[d.name] = d.unit == "ms" || d.unit == "ns"
	}
	values := map[string][]float64{}
	var windows, growth, cals []float64
	var pkts uint64
	var cpu time.Duration
	for _, c := range traced {
		for k, v := range c.Layer {
			if isTime[k] {
				v = scaled(v, c.Cal)
			}
			values[k] = append(values[k], v)
		}
		for _, w := range c.Windows {
			for _, ms := range w {
				windows = append(windows, scaled(ms, c.Cal))
			}
			if g := windowGrowth(w); g > 0 {
				growth = append(growth, g)
			}
		}
		pkts += c.TxPackets
		cpu += time.Duration(c.CPUNS)
		cals = append(cals, float64(c.Cal))
	}
	cal := time.Duration(median(cals))
	one := func(v float64) []float64 { return []float64{v} }
	values["sim.window_ms_p50"] = one(percentile(windows, 50))
	values["sim.window_ms_p99"] = one(percentile(windows, 99))
	values["sim.windows"] = one(float64(len(windows)))
	values["sim.window_growth"] = growth
	parEff := 1.0 // one shard on one core
	if len(companions) > 0 {
		parEff = median(each(companions, scaledNsPerPkt)) / (float64(cores) * median(each(untraced, scaledNsPerPkt)))
	}
	values["multicore.par_eff"] = one(parEff)

	var attributed time.Duration
	for bucket, d := range cost {
		attributed += d
		name := bucket + ".ns_per_pkt"
		if !strings.HasPrefix(bucket, "runtime.") {
			name = bucket + ".self_ns_per_pkt"
		}
		values[name] = one(scaled(float64(d.Nanoseconds())/float64(max(pkts, 1)), cal))
	}
	values["trace.samples"] = one(float64(attributed / profilePeriod))
	values["trace.attributed_pct"] = one(100 * float64(attributed) / float64(max(cpu, 1)))
	untracedNS := median(each(untraced, scaledNsPerPkt))
	values["trace.overhead_pct"] = one(100 * (median(each(traced, scaledNsPerPkt)) - untracedNS) / untracedNS)
	values["host.cal_ms"] = one(float64(cal) / 1e6)

	metrics := make([]metric, len(perLayer))
	for i, d := range perLayer {
		metrics[i] = metric{d, summarize(values[d.name])}
		delete(values, d.name)
	}
	for name := range values {
		panic(fmt.Sprintf("bench: metric %q is measured but not declared in perLayer", name))
	}
	return metrics
}

// childRunner runs a workload's children one at a time. It times the
// calibration kernel between each two children and stamps each child
// with the mean of the kernel's times just before and just after it.
type childRunner struct {
	cfg  config
	last time.Duration
}

func (s *childRunner) run(a childArgs) (childResult, error) {
	if s.last == 0 {
		s.last = s.cfg.calibrate()
	}
	c, err := s.cfg.run(a)
	if err != nil {
		return childResult{}, err
	}
	after := s.cfg.calibrate()
	c.Cal = (s.last + after) / 2
	s.last = after
	return c, nil
}

// runMany runs children with the given arguments: at least n of them,
// and more until the deadline passes.
func (s *childRunner) runMany(a childArgs, n int, deadline time.Time) ([]childResult, error) {
	var out []childResult
	for len(out) < n || time.Now().Before(deadline) {
		c, err := s.run(a)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// windowGrowth is the mean of a window series' last decile over the
// mean of its first; 0 when the series is too short to have deciles.
func windowGrowth(w []float64) float64 {
	d := len(w) / 10
	if d == 0 {
		return 0
	}
	first := mean(w[:d])
	if first == 0 {
		return 0
	}
	return mean(w[len(w)-d:]) / first
}

func nsPerPkt(c childResult) float64 { return float64(c.WallNS) / float64(max(c.TxPackets, 1)) }

// scaledNsPerPkt is nsPerPkt on the reference host.
func scaledNsPerPkt(c childResult) float64 { return scaled(nsPerPkt(c), c.Cal) }

func each(cs []childResult, f func(childResult) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// writeSpans writes every traced child's spans as JSON lines, each
// tagged with the child's index.
func writeSpans(path string, traced []childResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	enc := json.NewEncoder(f)
	for i, c := range traced {
		for _, s := range c.Spans {
			line := struct {
				Child int `json:"child"`
				span
			}{i, s}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// printResult prints a workload's metric table and check tally.
func printResult(w io.Writer, workload string, res *result) {
	fmt.Fprintf(w, "%-32s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %14.6g %4d  %s\n", m.name, m.Median, m.Q1, m.Q3, m.N, m.unit)
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "checks: %d attempted, %d failed, fail_ratio %g\n", res.attempted, res.failed, ratio)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", workload, f)
	}
}
