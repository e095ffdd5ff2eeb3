package spec

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestCompileOverlaysDefaults(t *testing.T) {
	src := `version: 1
scenario: softcbr
seed: 7
runtime: 5ms
cores: 2
batch: 1
load:
  rate: 2mpps
  size: 124
telemetry:
  interval: 1ms
`
	d, err := Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	name, s, err := d.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if name != "softcbr" {
		t.Fatalf("name = %q", name)
	}
	if s.Pattern != scenario.PatternSoftCBR {
		t.Fatalf("pattern %q did not come from DefaultSpec", s.Pattern)
	}
	if s.RateMpps != 2 || s.PktSize != 124 || s.Seed != 7 || s.Cores != 2 || s.Batch != 1 {
		t.Fatalf("overlay lost: %+v", s)
	}
	if s.Runtime != 5*sim.Millisecond || s.TelemetryInterval != sim.Millisecond {
		t.Fatalf("durations: runtime=%v interval=%v", s.Runtime, s.TelemetryInterval)
	}
}

func TestCompileFlowsAndChurn(t *testing.T) {
	src := `version: 1
scenario: churn
churn:
  flows: 512
  life: 8
`
	d, err := Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, s, err := d.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if s.ChurnFlows != 512 || s.ChurnLife != 8 {
		t.Fatalf("churn overlay: %+v", s)
	}
	if s.RateMpps != 10 {
		t.Fatalf("churn default rate lost: %v", s.RateMpps)
	}

	src = `version: 1
scenario: qos
flows:
  - name: fg
    src_ip: 10.0.0.1
    src_ip_count: 255
    dst_ip: 192.168.1.1
    src_port: 1234
    dst_port: 43
    tos: 0xb8
    rate: 0.1mpps
  - name: bg
    src_ip: 10.0.0.1
    dst_ip: 192.168.1.1
    dst_port: 42
    rate: 800kpps
`
	d, err = Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, s, err = d.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(s.Flows) != 2 {
		t.Fatalf("flows = %d", len(s.Flows))
	}
	fg := s.Flows[0]
	if fg.TOS != 0xb8 || fg.SrcIPCount != 255 || fg.RateMpps != 0.1 || fg.DstPort != 43 {
		t.Fatalf("fg = %+v", fg)
	}
	if fg.SrcIP != proto.MustIPv4("10.0.0.1") || fg.DstIP != proto.MustIPv4("192.168.1.1") {
		t.Fatalf("fg addrs = %+v", fg)
	}
	if bg := s.Flows[1]; bg.RateMpps != 0.8 || bg.L4 != "udp" {
		t.Fatalf("bg = %+v", bg)
	}
}

func TestCompileJSON(t *testing.T) {
	src := `{
  "version": 1,
  "scenario": "softcbr",
  "load": {"rate": "2mpps"},
  "runtime": "5ms"
}`
	d, err := Parse([]byte(src), "t.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, s, err := d.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if s.RateMpps != 2 || s.Runtime != 5*sim.Millisecond {
		t.Fatalf("spec = %+v", s)
	}
}

// negativeCases are the canonical authoring mistakes and the actionable,
// line-anchored messages the loader emits for them.
var negativeCases = []struct {
	name string
	src  string
	want []string // every fragment must appear in the error
}{
	{
		"unknown top-level key",
		"version: 1\nscenario: softcbr\nscenari: x\n",
		[]string{"t.yaml:3:", `unknown key "scenari"`, `did you mean "scenario"`},
	},
	{
		"unknown nested key",
		"version: 1\nscenario: softcbr\nload:\n  rat: 2mpps\n",
		[]string{"t.yaml:4:", `unknown key "load.rat"`, `did you mean "load.rate"`},
	},
	{
		"unknown flow key",
		"version: 1\nscenario: softcbr\nflows:\n  - name: a\n    src_ip: 10.0.0.1\n    dst_ip: 10.1.0.1\n    dscp: 4\n",
		[]string{"t.yaml:7:", `unknown key "flows.dscp"`},
	},
	{
		"missing version",
		"scenario: softcbr\n",
		[]string{"t.yaml:1:", `missing required key "version"`},
	},
	{
		"future version",
		"version: 2\nscenario: softcbr\n",
		[]string{"t.yaml:1:", "unsupported spec version 2", "version 1"},
	},
	{
		"unknown scenario",
		"version: 1\nscenario: warp-drive\n",
		[]string{"t.yaml:2:", `unknown scenario "warp-drive"`, "softcbr"},
	},
	{
		"bad duration unit",
		"version: 1\nscenario: softcbr\nruntime: 50 lightyears\n",
		[]string{"t.yaml:3:", `unknown unit "lightyears"`, "ns, us, ms, s"},
	},
	{
		"missing duration unit",
		"version: 1\nscenario: softcbr\nruntime: 50\n",
		[]string{"t.yaml:3:", "missing a unit", `"50ms"`},
	},
	{
		"bad rate unit",
		"version: 1\nscenario: softcbr\nload:\n  rate: 2gbps\n",
		[]string{"t.yaml:4:", `unknown unit "gbps"`, "pps, kpps, mpps"},
	},
	{
		"missing rate unit",
		"version: 1\nscenario: softcbr\nload:\n  rate: 2\n",
		[]string{"t.yaml:4:", "missing a unit", `"2mpps"`},
	},
	{
		"uneven flow sharding",
		"version: 1\nscenario: loss-overload\ncores: 3\n",
		[]string{"t.yaml:3:", "cores: 3 does not divide the flow count (4)", "loss-overload"},
	},
	{
		"uneven churn sharding",
		"version: 1\nscenario: churn\ncores: 3\nchurn:\n  flows: 1024\n",
		[]string{"t.yaml:3:", "does not divide the churn working set (1024)"},
	},
	{
		"cbr rate over link capacity",
		"version: 1\nscenario: cbr\nload:\n  rate: 20mpps\n",
		[]string{"t.yaml:4:", "exceeds the 10GbE line rate", "14.88 Mpps", "softcbr"},
	},
	{
		"flow rate over link capacity",
		"version: 1\nscenario: cbr\nload:\n  rate: 1mpps\nflows:\n  - name: hot\n    src_ip: 10.0.0.1\n    dst_ip: 10.1.0.1\n    rate: 16mpps\n",
		[]string{`flow "hot" rate 16 Mpps exceeds`},
	},
	{
		"single-core-only scenario sharded",
		"version: 1\nscenario: imix\ncores: 2\n",
		[]string{"t.yaml:3:", `"imix" is single-core only`},
	},
	{
		"pattern needs a rate",
		"version: 1\nscenario: flood\nload:\n  pattern: poisson\n",
		[]string{"t.yaml:4:", `pattern "poisson" needs a rate`},
	},
	{
		"unknown pattern",
		"version: 1\nscenario: flood\nload:\n  pattern: fractal\n",
		[]string{"t.yaml:4:", `unknown pattern "fractal"`},
	},
	{
		"bad ip",
		"version: 1\nscenario: softcbr\nflows:\n  - name: a\n    src_ip: 10.0.0.999\n    dst_ip: 10.1.0.1\n",
		[]string{"t.yaml:5:", "flows.src_ip"},
	},
	{
		"port out of range",
		"version: 1\nscenario: softcbr\nflows:\n  - name: a\n    src_ip: 10.0.0.1\n    dst_ip: 10.1.0.1\n    dst_port: 70000\n",
		[]string{"t.yaml:7:", "out of range [0, 65535]"},
	},
	{
		"frame size too small",
		"version: 1\nscenario: softcbr\nload:\n  size: 40\n",
		[]string{"t.yaml:4:", "out of range [60, 1514]"},
	},
	{
		"duplicate flow names",
		"version: 1\nscenario: softcbr\nflows:\n  - name: a\n    src_ip: 10.0.0.1\n    dst_ip: 10.1.0.1\n  - name: a\n    src_ip: 10.0.0.2\n    dst_ip: 10.1.0.1\n",
		[]string{"duplicate flow name \"a\""},
	},
	{
		"flow missing src_ip",
		"version: 1\nscenario: softcbr\nflows:\n  - name: a\n    dst_ip: 10.1.0.1\n",
		[]string{`flow "a" is missing "src_ip"`},
	},
	{
		"negative runtime",
		"version: 1\nscenario: softcbr\nruntime: -5ms\n",
		[]string{"t.yaml:3:", "must be positive"},
	},
	{
		"unknown fault key",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: linkflap\n    duration: 1ms\n    durration: 2ms\n",
		[]string{"t.yaml:6:", `unknown key "faults.durration"`, `did you mean "faults.duration"`},
	},
	{
		"unknown fault kind",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: meteor\n    duration: 1ms\n",
		[]string{"t.yaml:4:", `unknown fault kind "meteor"`, "linkflap, dut-stall, queue-pause, clock-step"},
	},
	{
		"fault missing kind",
		"version: 1\nscenario: linkflap\nfaults:\n  - duration: 1ms\n",
		[]string{"t.yaml:4:", `missing "kind"`},
	},
	{
		"fault duration without unit",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: linkflap\n    duration: 5\n",
		[]string{"t.yaml:5:", "missing a unit"},
	},
	{
		"windowed fault without duration",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: linkflap\n    at: 1ms\n",
		[]string{"t.yaml:3:", "faults:", "duration must be positive"},
	},
	{
		"fault period under duration",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: linkflap\n    duration: 2ms\n    period: 1ms\n",
		[]string{"t.yaml:3:", "must exceed the duration"},
	},
	{
		"clock step without offset or drift",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: clock-step\n    at: 1ms\n",
		[]string{"t.yaml:3:", "needs an offset or a drift rate"},
	},
	{
		"dut-stall without a dut topology",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: dut-stall\n    at: 1ms\n    duration: 1ms\n",
		[]string{"t.yaml:3:", "dut-stall", "topology.dut"},
	},
	{
		"uneven linkflap sharding",
		"version: 1\nscenario: linkflap\ncores: 3\n",
		[]string{"t.yaml:3:", "cores: 3 does not divide the flow count (4)", "linkflap"},
	},
	{
		"uneven overload-recover sharding",
		"version: 1\nscenario: overload-recover\ncores: 3\n",
		[]string{"t.yaml:3:", "cores: 3 does not divide the flow count (4)", "overload-recover"},
	},
	{
		"uneven reorder sharding",
		"version: 1\nscenario: reorder\ncores: 3\n",
		[]string{"t.yaml:3:", "cores: 3 does not divide the flow count (4)", "reorder"},
	},
	{
		"slot tick rounds to zero",
		"version: 1\nscenario: softcbr\nruntime: 1us\nload:\n  rate: 1e300mpps\n",
		[]string{"t.yaml:5:", "load.rate: 1e+300 Mpps is out of range", "1 ps"},
	},
	{
		"slot tick overflows",
		"version: 1\nscenario: churn\nload:\n  rate: 1e-300mpps\n",
		[]string{"t.yaml:4:", "load.rate: 1e-300 Mpps is out of range"},
	},
	{
		"flow rate off the slot grid",
		"version: 1\nscenario: qos\nflows:\n  - name: fg\n    src_ip: 10.0.0.1\n    dst_ip: 10.1.0.1\n    dst_port: 43\n    rate: 1e-300mpps\n",
		[]string{"t.yaml:3:", `flows: flow "fg" rate: 1e-300 Mpps is out of range`},
	},
	{
		"rate beyond float64",
		"version: 1\nscenario: softcbr\nload:\n  rate: 1e400mpps\n",
		[]string{"t.yaml:4:", `load.rate: "1e400mpps" is not a rate`},
	},
	{
		"drift not a finite number",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: clock-step\n    drift_ppm: NaN\n",
		[]string{"t.yaml:5:", "faults.drift_ppm: NaN is out of range [-1000000, 1000000]"},
	},
	{
		"drift infinite",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: clock-step\n    drift_ppm: -Inf\n",
		[]string{"t.yaml:5:", "faults.drift_ppm: -Inf is out of range"},
	},
	{
		"drift out of range",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: clock-step\n    drift_ppm: 1e300\n",
		[]string{"t.yaml:5:", "faults.drift_ppm: 1e300 is out of range"},
	},
	{
		"clock step overflows",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: clock-step\n    offset: 1e7s\n",
		[]string{"t.yaml:5:", "faults.offset: duration must be ≥ -1e+06s and ≤ 1e+06s, got 1e7s"},
	},
	{
		"sub-picosecond runtime",
		"version: 1\nscenario: softcbr\nruntime: 0.0001ns\n",
		[]string{"t.yaml:3:", "runtime: duration must be positive"},
	},
	{
		"runtime overflows",
		"version: 1\nscenario: softcbr\nruntime: 1e20ms\n",
		[]string{"t.yaml:3:", "runtime: duration must be positive and ≤ 1e+06s, got 1e20ms"},
	},
	{
		"negative fault onset",
		"version: 1\nscenario: linkflap\nfaults:\n  - kind: linkflap\n    at: -1ms\n    duration: 1ms\n",
		[]string{"t.yaml:5:", "faults.at: duration must be ≥ 0"},
	},
	{
		"clock steps add up past the bound",
		"version: 1\nscenario: latency\nruntime: 2ms\nfaults:\n  - kind: clock-step\n    at: 1ms\n    offset: 1000000s\n    period: 1us\n",
		[]string{"t.yaml:4:", "faults: the clock steps within the run add up to 1e+09s"},
	},
	{
		"mix entry missing weight",
		"version: 1\nscenario: imix\nload:\n  mix:\n    - size: 60\n",
		[]string{"t.yaml:5:", `load.mix: entry is missing "weight"`},
	},
	{
		"qos flow rate over link capacity",
		"version: 1\nscenario: qos\nload:\n  size: 120\nflows:\n  - {name: fg, src_ip: 10.0.0.1, dst_ip: 10.1.0.1, src_port: 1, dst_port: 2, rate: 16mpps}\n",
		[]string{"t.yaml:5:", `flow "fg" rate 16 Mpps exceeds the 10GbE line rate`, "8.68 Mpps at 124-byte frames"},
	},
}

// validate parses and compiles a spec, returning the first error.
func validate(src []byte, name string) error {
	d, err := Parse(src, name)
	if err != nil {
		return err
	}
	_, _, err = d.Compile()
	return err
}

// TestValidateNegative pins the messages of negativeCases.
func TestValidateNegative(t *testing.T) {
	for _, tc := range negativeCases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate([]byte(tc.src), "t.yaml")
			if err == nil {
				t.Fatalf("spec validated but should not have:\n%s", tc.src)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q\nmissing fragment %q", err, w)
				}
			}
		})
	}
}

func TestValidateAcceptsRateCarriedByFlows(t *testing.T) {
	// The qos shape: no aggregate rate, but every flow shaped.
	src := `version: 1
scenario: qos
load:
  pattern: cbr
flows:
  - name: fg
    src_ip: 10.0.0.1
    dst_ip: 192.168.1.1
    rate: 0.1mpps
  - name: bg
    src_ip: 10.0.0.1
    dst_ip: 192.168.1.1
    rate: 0.8mpps
`
	if err := validate([]byte(src), "t.yaml"); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRateLineKeyword(t *testing.T) {
	src := "version: 1\nscenario: flood\nload:\n  rate: line\n"
	d, err := Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, s, err := d.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if s.RateMpps != 0 {
		t.Fatalf("rate 'line' should compile to 0 (unshaped), got %v", s.RateMpps)
	}
}

func TestSplitUnit(t *testing.T) {
	cases := []struct{ in, num, unit string }{
		{"50ms", "50", "ms"},
		{"12.5µs", "12.5", "µs"},
		{"2mpps", "2", "mpps"},
		{"line", "", "line"},
		{"42", "42", ""},
	}
	for _, tc := range cases {
		num, unit := splitUnit(tc.in)
		if num != tc.num || unit != tc.unit {
			t.Errorf("splitUnit(%q) = (%q, %q), want (%q, %q)", tc.in, num, unit, tc.num, tc.unit)
		}
	}
}

func TestCompileFaults(t *testing.T) {
	src := `
version: 1
scenario: linkflap
runtime: 10ms
faults:
  - kind: linkflap
    at: 2ms
    duration: 1ms
    period: 4ms
    count: 2
  - kind: clock-step
    at: 3ms
    offset: -250us
    drift_ppm: 35
`
	d, err := Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	name, s, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if name != "linkflap" {
		t.Fatalf("scenario = %q", name)
	}
	if len(s.Faults) != 2 {
		t.Fatalf("plan length = %d, want 2 (the block replaces the default plan)", len(s.Faults))
	}
	ev := s.Faults[0]
	if ev.Kind != fault.LinkFlap || ev.At != 2*sim.Millisecond || ev.Duration != sim.Millisecond ||
		ev.Period != 4*sim.Millisecond || ev.Count != 2 {
		t.Fatalf("event 0 = %+v", ev)
	}
	ev = s.Faults[1]
	if ev.Kind != fault.ClockStep || ev.Offset != -250*sim.Microsecond || ev.DriftPPM != 35 {
		t.Fatalf("event 1 = %+v", ev)
	}
}

func TestFaultsBlockReplacesDefaultPlan(t *testing.T) {
	// Without a faults block, linkflap keeps its registered default.
	_, s, err := mustParse(t, "version: 1\nscenario: linkflap\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) == 0 {
		t.Fatal("default plan missing without a faults block")
	}
	// An explicit empty list runs the scenario fault-free.
	_, s, err = mustParse(t, "version: 1\nscenario: linkflap\nfaults: []\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 0 {
		t.Fatalf("faults: [] left %d events in the plan", len(s.Faults))
	}
}

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	d, err := Parse([]byte(src), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestValidateConcurrent runs the "valid keys" error path from several
// goroutines at once, first call included, at the document root and in
// a flow entry. The allowed-key lists may be shared package state, so
// building the message must not reorder them in place, and every call
// must produce the same message.
func TestValidateConcurrent(t *testing.T) {
	srcs := []string{
		"version: 1\nscenario: softcbr\nzzzzzzzz: 1\n",
		"version: 1\nscenario: softcbr\nflows:\n  - zzzzzzzz: 1\n",
	}
	errs := make([]error, 4*len(srcs))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = validate([]byte(srcs[g%len(srcs)]), "t.yaml")
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil || err.Error() != errs[g%len(srcs)].Error() {
			t.Fatalf("concurrent Validate = %v, want %v", err, errs[g%len(srcs)])
		}
	}
	for i, want := range []string{"valid keys: batch, churn,", "valid keys: dst_ip, dst_port,"} {
		if !strings.Contains(errs[i].Error(), want) {
			t.Fatalf("error %q does not list the valid keys sorted", errs[i])
		}
	}
}

// TestKeysFlagBounds pins that a Duration flag goes through the bounded
// conversion the spec reader uses: a value that overflows int64
// picoseconds or rounds to 0 ps is rejected, not replaced by a default.
func TestKeysFlagBounds(t *testing.T) {
	var runtime *Key
	for i := range Keys {
		if Keys[i].Flag == "runtime" {
			runtime = &Keys[i]
		}
	}
	for _, arg := range []string{"1e20", "1e-12", "-5", "NaN", "+Inf"} {
		s := scenario.Spec{Runtime: 5 * sim.Millisecond}
		err := runtime.SetFlag(&s, arg)
		if err == nil || !strings.Contains(err.Error(), "is out of range: durations are > 0 ms") {
			t.Errorf("-runtime %s: error %v, want out of range", arg, err)
		}
		if s.Runtime != 5*sim.Millisecond {
			t.Errorf("-runtime %s changed the runtime to %v", arg, s.Runtime)
		}
	}
}

// TestKeysFlagRoundTrip sets every Keys entry through its command-line
// form, rendered by FlagValue from a spec that holds a valid value in
// every scalar field, and expects that spec back: each key's field,
// value kind and both forms agree.
func TestKeysFlagRoundTrip(t *testing.T) {
	want := scenario.Spec{
		RateMpps: 2.5, PktSize: 124, Runtime: 5 * sim.Millisecond, Seed: -7,
		Pattern: scenario.PatternPoisson, Burst: 16, Batch: 32, Probes: 3, Samples: 100,
		Steps: 4, UseDuT: true, Cores: 2, ChurnFlows: 512, ChurnLife: 8,
		TelemetryInterval: 250 * sim.Microsecond, TelemetryDiag: true,
	}
	var got scenario.Spec
	for i := range Keys {
		k := &Keys[i]
		if err := k.SetFlag(&got, k.FlagValue(&want)); err != nil {
			t.Errorf("%s: %v", k.Path, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip through the flag forms:\n%+v\nwant\n%+v", got, want)
	}
}
