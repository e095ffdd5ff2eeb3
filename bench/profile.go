package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// layers are the repository's packages on the user path, in report
// order. A CPU sample is charged to the innermost frame of one of them.
var layers = []string{
	"sim", "nic", "wire", "ring", "mempool", "proto", "core", "flow",
	"stats", "rate", "dut", "ptpclk", "telemetry", "fault", "scenario", "multicore",
}

// The runtime buckets a sample falls into when no layer owns it.
const (
	bucketHandoff = "runtime.handoff" // goroutine handoff and scheduling
	bucketGC      = "runtime.gc"      // allocation and collection
	bucketOther   = "runtime.other"   // everything else, the harness included
)

const layerPrefix = "repro/internal/"

// gcFrames mark a sample as allocation or collection work wherever they
// appear in its stack.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge",
}

// handoffFrames are the engine's process switch: runtime work below
// them is the channel handoff between the engine and a task goroutine.
var handoffFrames = map[string]bool{
	layerPrefix + "sim.(*Engine).dispatch": true,
	layerPrefix + "sim.(*Proc).park":       true,
}

// stackSample is one stack of a `go tool pprof -traces` listing: its
// CPU time and its frames, leaf first.
type stackSample struct {
	Value  time.Duration
	Frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then one block per stack after a dashed separator. A block may open
// with label lines; its first frame line carries the sample's value
// right-aligned in ten columns, and each caller follows on a line
// indented past that column.
func parseTraces(r io.Reader) ([]stackSample, error) {
	const (
		separator   = "-----------+"
		callerStart = "             " // ten value columns and three spaces
	)
	var out []stackSample
	inBlock, inStack := false, false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, separator):
			inBlock, inStack = true, false
		case !inBlock || strings.TrimSpace(line) == "":
			// The header before the first block.
		case inStack && strings.HasPrefix(line, callerStart):
			cur := &out[len(out)-1]
			cur.Frames = append(cur.Frames, frameName(line))
		case !inStack:
			val, fn, ok := strings.Cut(strings.TrimLeft(line, " "), "   ")
			if !ok {
				continue // a label line
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %v", val, err)
			}
			out = append(out, stackSample{Value: d, Frames: []string{frameName(fn)}})
			inStack = true
		default:
			return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	return out, nil
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// attribute charges one stack to a layer or runtime bucket:
//   - any allocation or collection frame makes it runtime.gc;
//   - otherwise the innermost repro/internal frame names the layer,
//     except that runtime work directly below the engine's process
//     switch is runtime.handoff;
//   - a stack of runtime frames only is the scheduler: runtime.handoff;
//   - the rest (the harness, the profiler, packages off the user path)
//     is runtime.other.
func attribute(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return bucketGC
			}
		}
	}
	allRuntime := true
	for _, f := range frames {
		if strings.HasPrefix(f, layerPrefix) {
			if handoffFrames[f] && isRuntime(frames[0]) {
				return bucketHandoff
			}
			if l := layerOf(f); slices.Contains(layers, l) {
				return l
			}
			return bucketOther
		}
		if !isRuntime(f) {
			allRuntime = false
		}
	}
	if allRuntime && len(frames) > 0 {
		return bucketHandoff
	}
	return bucketOther
}

// layerOf returns the package under repro/internal/ a frame belongs to.
func layerOf(frame string) string {
	rest := strings.TrimPrefix(frame, layerPrefix)
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isRuntime reports whether a frame is Go runtime code: a function of
// the runtime or its internal packages, or an assembly routine pprof
// prints without a package.
func isRuntime(frame string) bool {
	return strings.HasPrefix(frame, "runtime.") || strings.HasPrefix(frame, "internal/runtime/") ||
		!strings.Contains(frame, ".")
}

// profileCost sums the CPU time of every stack per layer or bucket.
func profileCost(samples []stackSample) map[string]time.Duration {
	cost := map[string]time.Duration{}
	for _, s := range samples {
		cost[attribute(s.Frames)] += s.Value
	}
	return cost
}

// readProfiles merges CPU profiles with `go tool pprof -traces`, the
// stock toolchain's offline reader, and returns their stacks.
func readProfiles(files []string) ([]stackSample, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(strings.NewReader(string(out)))
}
