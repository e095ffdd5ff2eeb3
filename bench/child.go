package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The kinds of child run.
const (
	// modeSetup times spec.Load, Compile and Execute at the runtime the
	// parent passes (1 µs of simulated time): the cold set-up a user
	// pays on every `moongen run`.
	modeSetup = "setup"
	// modeTimed times scenario.Execute on the compiled spec.
	modeTimed = "timed"
	// modeTraced runs the same spec through tracedExecute under a CPU
	// profile, recording spans, engine counters and memory statistics.
	modeTraced = "traced"
)

// workloadDir holds the committed workload specs, one <name>.yaml per
// workload, relative to the benchmark's directory.
const workloadDir = "workloads"

// childTimeout bounds one child run; the longest takes a few seconds.
const childTimeout = 120 * time.Second

// childArgs is everything one child run receives from the parent.
type childArgs struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Cores, when > 0, replaces the spec's core count.
	Cores int `json:"cores,omitempty"`
	// Runtime, when > 0, replaces the spec's simulated runtime.
	Runtime sim.Duration `json:"runtime,omitempty"`
	// Profile is the CPU profile file of a traced run.
	Profile string `json:"profile,omitempty"`
}

// childResult is what one child run reports back.
type childResult struct {
	// WallNS is the wall time of the measured calls: Execute for timed
	// and traced runs, Load+Compile+Execute for set-up runs.
	WallNS    int64  `json:"wall_ns"`
	SimNS     int64  `json:"sim_ns"`
	TxPackets uint64 `json:"tx_packets"`
	// PeakRSSKB is the process's VmHWM after the run.
	PeakRSSKB int64         `json:"peak_rss_kb"`
	Report    string        `json:"report"`
	Checks    []checkResult `json:"checks"`
	// Traced runs only: CPU time of the Execute call, the per-child
	// layer metrics, the wall duration of every 1 ms simulated window
	// per shard, and the spans.
	CPUNS   int64              `json:"cpu_ns,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Windows [][]float64        `json:"windows,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
	// Cal is the calibration kernel's time around the run, measured by
	// the parent.
	Cal time.Duration `json:"-"`
}

// loadSpec is the user path's front half: spec.Load and Compile, then
// the child's overrides. The program sees only the compiled spec.
func loadSpec(a childArgs) (string, scenario.Spec, error) {
	doc, err := spec.Load(filepath.Join(workloadDir, a.Workload+".yaml"))
	if err != nil {
		return "", scenario.Spec{}, err
	}
	name, sp, err := doc.Compile()
	if err != nil {
		return "", scenario.Spec{}, err
	}
	sp.Seed = a.Seed
	if a.Cores > 0 {
		sp.Cores = a.Cores
	}
	if a.Runtime > 0 {
		sp.Runtime = a.Runtime
	}
	return name, sp, nil
}

// runChild performs one child run in the calling process.
func runChild(a childArgs) (childResult, error) {
	check, ok := workloadChecks[a.Workload]
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", a.Workload)
	}
	switch a.Mode {
	case modeSetup:
		t0 := time.Now()
		name, sp, err := loadSpec(a)
		if err != nil {
			return childResult{}, err
		}
		if _, err := scenario.Execute(name, sp, io.Discard); err != nil {
			return childResult{}, err
		}
		return childResult{WallNS: time.Since(t0).Nanoseconds()}, nil
	case modeTimed:
		name, sp, err := loadSpec(a)
		if err != nil {
			return childResult{}, err
		}
		t0 := time.Now()
		rep, err := scenario.Execute(name, sp, io.Discard)
		wall := time.Since(t0)
		if err != nil {
			return childResult{}, err
		}
		return finish(rep, sp, wall, check), nil
	case modeTraced:
		return runTraced(a, check)
	}
	return childResult{}, fmt.Errorf("unknown child mode %q", a.Mode)
}

// finish fills the result fields every measured run shares.
func finish(rep *scenario.Report, sp scenario.Spec, wall time.Duration,
	check func(*scenario.Report, scenario.Spec) []checkResult) childResult {
	var text strings.Builder
	rep.Print(&text)
	return childResult{
		WallNS:    wall.Nanoseconds(),
		SimNS:     int64(sp.Runtime / sim.Nanosecond),
		TxPackets: rep.TxPackets,
		PeakRSSKB: peakRSSKB(),
		Report:    text.String(),
		Checks:    check(rep, sp),
	}
}

// runTraced is a traced child: the same user path as a timed one, with
// spans around the benchmark's calls, model-invisible window ticks on
// every engine, and a CPU profile of the Execute call.
func runTraced(a childArgs, check func(*scenario.Report, scenario.Spec) []checkResult) (childResult, error) {
	tr := newTracer()
	root := tr.start("bench.child", 0)
	load := tr.start("spec.load", root)
	name, sp, err := loadSpec(a)
	tr.end(load)
	if err != nil {
		return childResult{}, err
	}
	f, err := os.Create(a.Profile)
	if err != nil {
		return childResult{}, err
	}
	defer f.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	if err := pprof.StartCPUProfile(f); err != nil {
		return childResult{}, err
	}
	ex := tr.start("scenario.execute", root)
	t0 := time.Now()
	rep, shards, err := tracedExecute(name, sp, tr, ex)
	wall := time.Since(t0)
	tr.end(ex)
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	tr.end(root)
	if err != nil {
		return childResult{}, err
	}
	if err := f.Close(); err != nil {
		return childResult{}, err
	}

	res := finish(rep, sp, wall, check)
	res.CPUNS = cpu.Nanoseconds()
	res.Spans = tr.spans
	pkts := float64(max(rep.TxPackets, 1))
	l := map[string]float64{
		"spec.load_ms":           tr.ms(load),
		"nic.rx_missed":          float64(rep.RxMissed),
		"runtime.allocs_per_pkt": float64(m1.Mallocs-m0.Mallocs) / pkts,
		"runtime.bytes_per_pkt":  float64(m1.TotalAlloc-m0.TotalAlloc) / pkts,
		"runtime.gc_cycles":      float64(m1.NumGC - m0.NumGC),
		"runtime.gc_pause_ms":    float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"trace.cpu_ns_per_pkt":   float64(cpu.Nanoseconds()) / pkts,
	}
	var events, promotions uint64
	minRun, maxRun := shards[0].runNS, shards[0].runNS
	for _, s := range shards {
		l["scenario.build_ms"] = max(l["scenario.build_ms"], float64(s.buildNS)/1e6)
		l["scenario.launch_ms"] = max(l["scenario.launch_ms"], float64(s.launchNS)/1e6)
		l["scenario.drain_ms"] = max(l["scenario.drain_ms"], float64(s.drainNS)/1e6)
		l["sim.max_slot_depth"] = max(l["sim.max_slot_depth"], float64(s.maxSlotDepth))
		for name, v := range s.counters {
			l[name] += v
		}
		events += s.events
		promotions += s.promotions
		minRun, maxRun = min(minRun, s.runNS), max(maxRun, s.runNS)
		res.Windows = append(res.Windows, s.windowsMS)
	}
	l["multicore.shard_skew"] = float64(maxRun) / float64(max(minRun, 1))
	l["sim.events_per_pkt"] = float64(events) / pkts
	l["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(max(events, 1))
	l["sim.promotions_per_kpkt"] = float64(promotions) / pkts * 1e3
	if rep.Telemetry != nil {
		l["telemetry.windows"] = float64(len(rep.Telemetry.Rows))
	}
	// Only the churn report states its tracker footprint; the other
	// flow-tracked workloads hold four flows.
	if fp, flows := rowValue(rep, "tracker footprint (diag)"), rowValue(rep, "flows tracked (rx)"); flows > 0 {
		l["flow.bytes_per_flow"] = fp / flows
	}
	res.Layer = l
	return res, nil
}

// peakRSSKB returns the process's peak resident set (VmHWM) in KiB.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// execChild performs one child run in a fresh process: the benchmark
// re-executes itself with the arguments as JSON and reads the result
// from the last line of the child's standard output.
func execChild(a childArgs) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	arg, err := json.Marshal(a)
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s run of %s: %v\n%s", a.Mode, a.Workload, err, stderr.String())
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return childResult{}, fmt.Errorf("%s run of %s: result: %v", a.Mode, a.Workload, err)
	}
	return r, nil
}

// childMain is the entry point of a re-executed child.
func childMain(arg string) error {
	var a childArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		return fmt.Errorf("child arguments: %w", err)
	}
	r, err := runChild(a)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}
