package spec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// A Key is one scalar spec key: where it sits in a spec file, the values
// it admits, the scenario.Spec field it sets and, when it has one, the
// command-line flag that overrides it.
type Key struct {
	// Path is the dotted key path in a spec file, e.g. "load.rate".
	Path string
	// Kind says how the value is written and which values it admits.
	Kind Kind
	// Min and Max bound an Int key.
	Min, Max int64
	// Flag is the CLI flag that overrides the key ("" for none), Arg
	// the placeholder the usage synopsis shows for its value ("" for a
	// bare boolean flag) and Usage the flag's help text.
	Flag, Arg, Usage string
	// field returns the Spec field the key sets: *int or *int64 for
	// Int, *float64 for Rate, *sim.Duration for Duration, *bool for
	// Bool and *scenario.Pattern for Pattern.
	field func(*scenario.Spec) any
}

// Kind is the value type of a Key.
type Kind int

const (
	// Int is an integer in [Min, Max]; 0x-prefixed hex is accepted.
	Int Kind = iota
	// Rate is a packet rate: "2mpps", "500kpps", "14880952pps" or
	// "line" in a spec file; Mpps on the command line, where 0 means
	// line rate.
	Rate
	// Duration is a positive duration: "50ms" in a spec file,
	// milliseconds on the command line.
	Duration
	// Bool is true or false.
	Bool
	// Pattern is one of the load patterns.
	Pattern
)

// Keys is the single declaration of the scalar spec keys. The spec walk,
// the allowed-key lists behind "unknown key" errors, Compile's overlay
// and the flags of cmd/moongen all read it, so a new scalar key is one
// entry here plus its scenario.Spec field and its row in
// docs/spec-reference.md. The keys with a flag are listed in the order
// the CLI usage synopsis shows them.
var Keys = []Key{
	{Path: "load.rate", Kind: Rate, Flag: "rate", Arg: "M", Usage: "rate [Mpps] (0 = line rate where applicable)",
		field: func(s *scenario.Spec) any { return &s.RateMpps }},
	{Path: "load.size", Kind: Int, Min: minFrame, Max: maxFrame, Flag: "size", Arg: "B", Usage: "frame size without FCS",
		field: func(s *scenario.Spec) any { return &s.PktSize }},
	{Path: "runtime", Kind: Duration, Flag: "runtime", Arg: "MS", Usage: "simulated run time [ms]",
		field: func(s *scenario.Spec) any { return &s.Runtime }},
	{Path: "seed", Kind: Int, Min: math.MinInt64, Max: math.MaxInt64, Flag: "seed", Arg: "N", Usage: "simulation seed",
		field: func(s *scenario.Spec) any { return &s.Seed }},
	{Path: "load.pattern", Kind: Pattern, Flag: "pattern", Arg: "P", Usage: "pattern: linerate, cbr, softcbr, poisson or bursts",
		field: func(s *scenario.Spec) any { return &s.Pattern }},
	{Path: "load.burst", Kind: Int, Min: 1, Max: 4096, Flag: "burst", Arg: "N", Usage: "burst size for the bursts pattern",
		field: func(s *scenario.Spec) any { return &s.Burst }},
	{Path: "batch", Kind: Int, Min: 1, Max: 512, Flag: "batch", Arg: "N", Usage: "TX burst size through the batched datapath (1 = per-packet)",
		field: func(s *scenario.Spec) any { return &s.Batch }},
	{Path: "probes.latency", Kind: Int, Min: 0, Max: math.MaxInt32, Flag: "probes", Arg: "N", Usage: "timestamped latency probes (0 = none)",
		field: func(s *scenario.Spec) any { return &s.Probes }},
	{Path: "probes.samples", Kind: Int, Min: 0, Max: math.MaxInt32, Flag: "samples", Arg: "N", Usage: "samples for distribution measurements",
		field: func(s *scenario.Spec) any { return &s.Samples }},
	{Path: "load.steps", Kind: Int, Min: 1, Max: 1024, Flag: "steps", Arg: "N", Usage: "sweep steps for sweeping scenarios",
		field: func(s *scenario.Spec) any { return &s.Steps }},
	{Path: "topology.dut", Kind: Bool, Flag: "dut", Usage: "route traffic through the simulated DuT forwarder",
		field: func(s *scenario.Spec) any { return &s.UseDuT }},
	{Path: "cores", Kind: Int, Min: 1, Max: 1024, Flag: "cores", Arg: "N", Usage: "modeled cores (> 1 runs sharded engines and merges the reports)",
		field: func(s *scenario.Spec) any { return &s.Cores }},
	{Path: "churn.flows", Kind: Int, Min: 1, Max: 1 << 28, Flag: "churn-flows", Arg: "W", Usage: "churn scenario: live-flow working set size",
		field: func(s *scenario.Spec) any { return &s.ChurnFlows }},
	{Path: "churn.life", Kind: Int, Min: 1, Max: math.MaxInt32, Flag: "churn-life", Arg: "R", Usage: "churn scenario: flow lifetime in packets",
		field: func(s *scenario.Spec) any { return &s.ChurnLife }},
	{Path: "telemetry.interval", Kind: Duration,
		field: func(s *scenario.Spec) any { return &s.TelemetryInterval }},
	{Path: "telemetry.diag", Kind: Bool,
		field: func(s *scenario.Spec) any { return &s.TelemetryDiag }},
}

// sectionKeys lists the keys each mapping admits, by section ("" is the
// document root, where each section is a key itself): the Keys under
// it, then the keys of the hand-written part of the walk.
var sectionKeys = func() map[string][]string {
	m := map[string][]string{}
	for _, k := range Keys {
		sec, key, nested := strings.Cut(k.Path, ".")
		if !nested {
			m[""] = append(m[""], k.Path)
			continue
		}
		if m[sec] == nil {
			m[""] = append(m[""], sec)
		}
		m[sec] = append(m[sec], key)
	}
	m[""] = append(m[""], "version", "scenario", "description", "flows", "faults")
	m["load"] = append(m["load"], "mix")
	return m
}()

// walkKeys reads the value of every Keys entry the document sets into
// its slot, checking each section mapping on the way.
func (d *Document) walkKeys(root *node) error {
	d.scalars = make([]scalar, len(Keys))
	var checked []string
	for i := range Keys {
		k := &Keys[i]
		n, name := root, k.Path
		if sec, key, nested := strings.Cut(k.Path, "."); nested {
			sn, line, ok := root.get(sec)
			if !ok {
				continue
			}
			if !slices.Contains(checked, sec) {
				checked = append(checked, sec)
				if sn.kind != mapNode {
					return d.errAt(line, "%s: expected a mapping, got a %s", sec, sn.kindName())
				}
				if err := d.checkKeys(sn, sectionKeys[sec], sec+"."); err != nil {
					return err
				}
			}
			n, name = sn, key
		}
		vn, line, ok := n.get(name)
		if !ok {
			continue
		}
		v, err := d.keyValue(k, vn, line)
		if err != nil {
			return err
		}
		d.scalars[i] = scalar{val: v, line: line}
	}
	return nil
}

// keyValue reads k's value from its node in the spec-file form.
func (d *Document) keyValue(k *Key, n *node, line int) (v any, err error) {
	switch k.Kind {
	case Int:
		v, err = d.intField(n, line, k.Path, k.Min, k.Max)
	case Rate:
		v, err = d.rateField(n, line, k.Path)
	case Duration:
		v, err = d.durField(n, line, k.Path)
	case Bool:
		v, err = d.boolField(n, line, k.Path)
	case Pattern:
		var raw string
		if raw, err = d.strField(n, line, k.Path); err == nil {
			if v, err = parsePattern(raw); err != nil {
				err = d.errAt(line, "%s: %v", k.Path, err)
			}
		}
	}
	return v, err
}

// SetFlag parses arg, the command-line form of k's value, checks it
// against the bounds of the spec key and stores it in s. The
// command-line forms carry no units: a Rate is in Mpps with 0 meaning
// line rate, a Duration in milliseconds.
func (k *Key) SetFlag(s *scenario.Spec, arg string) error {
	var (
		v   any
		err error
	)
	switch k.Kind {
	case Int:
		v, err = parseInt(arg, k.Min, k.Max)
	case Rate, Duration:
		f, perr := strconv.ParseFloat(arg, 64)
		switch {
		case perr != nil:
			err = fmt.Errorf("%q is not a number", arg)
		case k.Kind == Rate && (f < 0 || math.IsNaN(f) || math.IsInf(f, 0)):
			err = fmt.Errorf("%s is out of range: rates are ≥ 0 Mpps (0 = line rate)", arg)
		case k.Kind == Rate:
			v = f
		case !(f > 0) || math.IsInf(f, 0):
			err = fmt.Errorf("%s is out of range: durations are > 0 ms", arg)
		default:
			v = sim.FromSeconds(f / 1e3)
		}
	case Bool:
		if v, err = strconv.ParseBool(arg); err != nil {
			err = fmt.Errorf("%q is not a boolean (true or false)", arg)
		}
	case Pattern:
		v, err = parsePattern(arg)
	}
	if err != nil {
		return err
	}
	k.set(s, v)
	return nil
}

// FlagValue renders k's field of s in the command-line form SetFlag
// reads.
func (k *Key) FlagValue(s *scenario.Spec) string {
	if d, ok := k.field(s).(*sim.Duration); ok {
		return strconv.FormatFloat(d.Seconds()*1e3, 'g', -1, 64)
	}
	return fmt.Sprint(reflect.ValueOf(k.field(s)).Elem())
}

// set stores v, as keyValue or SetFlag produced it, in k's field of s.
func (k *Key) set(s *scenario.Spec, v any) {
	f := reflect.ValueOf(k.field(s)).Elem()
	f.Set(reflect.ValueOf(v).Convert(f.Type()))
}

// parsePattern checks raw against the load patterns.
func parsePattern(raw string) (scenario.Pattern, error) {
	switch p := scenario.Pattern(raw); p {
	case scenario.PatternLineRate, scenario.PatternCBR, scenario.PatternSoftCBR, scenario.PatternPoisson, scenario.PatternBursts:
		return p, nil
	}
	return "", fmt.Errorf("unknown pattern %q (one of: linerate, cbr, softcbr, poisson, bursts)", raw)
}
