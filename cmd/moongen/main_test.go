package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestUsageCoversEveryFlag pins the flagDefs table as the single source
// of the CLI surface: the flags the FlagSet registers and the flags the
// usage synopsis advertises are the same set, one-to-one.
func TestUsageCoversEveryFlag(t *testing.T) {
	fs, _ := newFlagSet("test", scenario.Spec{})
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	advertised := map[string]bool{}
	for _, d := range flagDefs {
		name := strings.TrimPrefix(strings.Fields(d.synopsis)[0], "-")
		if advertised[name] {
			t.Errorf("flag -%s advertised twice in the synopsis", name)
		}
		advertised[name] = true
	}
	for name := range registered {
		if !advertised[name] {
			t.Errorf("flag -%s registered but missing from the usage synopsis", name)
		}
	}
	for name := range advertised {
		if !registered[name] {
			t.Errorf("flag -%s advertised in usage but never registered", name)
		}
	}
	if len(registered) != len(flagDefs) {
		t.Errorf("%d flags registered from %d flagDefs entries — an entry registers zero or multiple flags", len(registered), len(flagDefs))
	}
	if !strings.HasPrefix(synopsis(), "usage: moongen <scenario> [") {
		t.Errorf("synopsis lost its prefix: %q", synopsis())
	}
}

// TestFlagBounds pins that a flag setting a spec key admits exactly what
// the key admits: an out-of-range value exits 2 before anything runs,
// with a message naming the flag and its range or choices.
func TestFlagBounds(t *testing.T) {
	sc, ok := scenario.Get("flood")
	if !ok {
		t.Fatal("flood not registered")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-size", "9000"}, "flag -size: 9000 is out of range [60, 1514]"},
		{[]string{"-size", "10"}, "flag -size: 10 is out of range [60, 1514]"},
		{[]string{"-batch", "-3"}, "flag -batch: -3 is out of range [1, 512]"},
		{[]string{"-cores", "0"}, "flag -cores: 0 is out of range [1, 1024]"},
		{[]string{"-runtime", "-5"}, "flag -runtime: -5 is out of range: durations are > 0 ms"},
		{[]string{"-rate", "-2"}, "flag -rate: -2 is out of range: rates are ≥ 0 Mpps (0 = line rate)"},
		{[]string{"-pattern", "warp"}, `flag -pattern: unknown pattern "warp" (one of: linerate, cbr, softcbr, poisson, bursts)`},
	} {
		_, err := parseFlags("flood", sc.DefaultSpec(), tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want it to contain %q", tc.args, err, tc.want)
		}
		var stdout, stderr strings.Builder
		if code := runScenario("flood", sc.DefaultSpec(), tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: the scenario ran:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestTelemetryIntervalBounds pins that -telemetry-interval goes through
// the telemetry.interval key's bounds: an interval that rounds to 0 ps
// or overflows exits 2 before anything runs instead of recording no
// telemetry.
func TestTelemetryIntervalBounds(t *testing.T) {
	sc, ok := scenario.Get("softcbr")
	if !ok {
		t.Fatal("softcbr not registered")
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	for _, iv := range []string{"0", "1e-12", "1e20"} {
		var stdout, stderr strings.Builder
		args := []string{"-runtime", "1", "-telemetry", path, "-telemetry-interval", iv}
		if code := runScenario("softcbr", sc.DefaultSpec(), args, &stdout, &stderr); code != 2 {
			t.Errorf("-telemetry-interval %s: exit %d, want 2", iv, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-telemetry-interval %s: the scenario ran:\n%s", iv, stdout.String())
		}
		if want := "invalid value for flag -telemetry-interval: "; !strings.Contains(stderr.String(), want) || !strings.Contains(stderr.String(), "is out of range: durations are > 0 ms") {
			t.Errorf("-telemetry-interval %s: stderr %q does not contain %q", iv, stderr.String(), want)
		}
	}
}

// TestFlagsApplyOnlyWhenSet pins that a flag the command line does not
// set leaves the starting spec alone, even where that spec holds a value
// the flag would reject, and that the edge values -rate 0 (line rate),
// -probes 0 and a bare -dut stay valid.
func TestFlagsApplyOnlyWhenSet(t *testing.T) {
	start := scenario.Spec{Pattern: scenario.PatternCBR, RateMpps: 3, Probes: 7, Runtime: 5 * sim.Millisecond}
	inv, err := parseFlags("t", start, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inv.spec, start) {
		t.Fatalf("no flags changed the spec:\n%+v\nwant\n%+v", inv.spec, start)
	}
	inv, err = parseFlags("t", start, []string{"-rate", "0", "-probes", "0", "-dut", "-runtime", "2.5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := start
	want.RateMpps, want.Probes, want.UseDuT, want.Runtime = 0, 0, true, 2500*sim.Microsecond
	if !reflect.DeepEqual(inv.spec, want) {
		t.Fatalf("spec after flags:\n%+v\nwant\n%+v", inv.spec, want)
	}
}

// TestListDeterministicSortedDescribed pins the `moongen list` output:
// byte-identical across calls, scenarios in sorted order, and a
// non-empty one-line description on every row.
func TestListDeterministicSortedDescribed(t *testing.T) {
	var first, second strings.Builder
	runList(&first)
	runList(&second)
	if first.String() != second.String() {
		t.Fatalf("list output not deterministic:\n%q\nvs\n%q", first.String(), second.String())
	}
	lines := strings.Split(strings.TrimRight(first.String(), "\n"), "\n")
	if lines[0] != "scenarios:" {
		t.Fatalf("missing header: %q", lines[0])
	}
	rows := lines[1:]
	if len(rows) < 8 {
		t.Fatalf("only %d scenarios listed", len(rows))
	}
	var names []string
	for i, row := range rows {
		fields := strings.Fields(row)
		if len(fields) < 2 {
			t.Fatalf("row %d has no description: %q", i, row)
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("scenarios not sorted: %v", names)
	}
	// The pinned scenario set: every workload the CLI must expose. New
	// scenarios are added here deliberately, never by accident.
	want := []string{
		"bursts", "cbr", "churn", "flood", "imix",
		"interarrival-moongen", "interarrival-pktgen", "interarrival-zsend",
		"latency", "linkflap", "loss-overload", "overload-recover",
		"poisson", "qos", "reflect", "reorder",
		"softcbr", "timestamps",
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("pinned scenario %q missing from list output (have %v)", n, names)
		}
	}
}
