package spec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// A Field is one spec key of a record of type T: where it sits in a
// spec file, the values it admits, the field of T it sets and, when it
// has one, the command-line flag that overrides it.
type Field[T any] struct {
	// Path is the dotted key path in a spec file: "load.rate", or
	// "flows.src_ip" for a key of a list block's entries.
	Path string
	// Kind says how the value is written and which values it admits.
	Kind Kind
	// Min and Max bound an Int or a Float, and a Duration in
	// picoseconds.
	Min, Max int64
	// Required marks a key every entry of a list block must set.
	Required bool
	// Values lists the words an Enum admits; Noun names such a word in
	// errors ("unknown pattern ...").
	Values []string
	Noun   string
	// Flag is the CLI flag that overrides the key ("" for none), Arg
	// the placeholder the usage synopsis shows for its value ("" for a
	// bare boolean flag) and Usage the flag's help text.
	Flag, Arg, Usage string
	// field returns the field of T the key sets: an integer for Int,
	// *float64 for Float and Rate, *sim.Duration for Duration, *bool
	// for Bool, a string for Enum and String and *proto.IPv4 for IPv4.
	field func(*T) any
}

// Key is a scalar spec key: a Field of scenario.Spec.
type Key = Field[scenario.Spec]

// Kind is the value type of a Field.
type Kind int

const (
	// Int is an integer in [Min, Max]; 0x-prefixed hex is accepted.
	Int Kind = iota
	// Float is a finite number in [Min, Max].
	Float
	// Rate is a packet rate: "2mpps", "500kpps", "14880952pps" or
	// "line" in a spec file; Mpps on the command line, where 0 means
	// line rate.
	Rate
	// Duration is a duration in [Min, Max] picoseconds after rounding:
	// "50ms" in a spec file, milliseconds on the command line.
	Duration
	// Bool is true or false.
	Bool
	// Enum is one of Values.
	Enum
	// String is any non-empty text.
	String
	// IPv4 is a dotted-quad IPv4 address.
	IPv4
)

// maxDur bounds every Duration key; see scenario.MaxDuration.
const maxDur = int64(scenario.MaxDuration)

// Keys is the single declaration of the scalar spec keys; the records
// flowRecord, faultRecord and mixRecord declare the keys of the list
// blocks' entries in the same form, and together they are the whole
// schema. The spec walk, the allowed-key lists behind "unknown key"
// errors, Compile's overlay and the flags of cmd/moongen all read it,
// so a new scalar key is one entry here plus its scenario.Spec field
// and its row in docs/spec-reference.md. The keys with a flag are
// listed in the order the CLI usage synopsis shows them.
var Keys = []Key{
	{Path: "load.rate", Kind: Rate, Flag: "rate", Arg: "M", Usage: "rate [Mpps] (0 = line rate where applicable)",
		field: func(s *scenario.Spec) any { return &s.RateMpps }},
	{Path: "load.size", Kind: Int, Min: minFrame, Max: maxFrame, Flag: "size", Arg: "B", Usage: "frame size without FCS",
		field: func(s *scenario.Spec) any { return &s.PktSize }},
	{Path: "runtime", Kind: Duration, Min: 1, Max: maxDur, Flag: "runtime", Arg: "MS", Usage: "simulated run time [ms]",
		field: func(s *scenario.Spec) any { return &s.Runtime }},
	{Path: "seed", Kind: Int, Min: math.MinInt64, Max: math.MaxInt64, Flag: "seed", Arg: "N", Usage: "simulation seed",
		field: func(s *scenario.Spec) any { return &s.Seed }},
	{Path: "load.pattern", Kind: Enum, Noun: "pattern", Flag: "pattern", Arg: "P", Usage: "pattern: linerate, cbr, softcbr, poisson or bursts",
		Values: []string{string(scenario.PatternLineRate), string(scenario.PatternCBR), string(scenario.PatternSoftCBR), string(scenario.PatternPoisson), string(scenario.PatternBursts)},
		field:  func(s *scenario.Spec) any { return &s.Pattern }},
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
	{Path: "telemetry.interval", Kind: Duration, Min: 1, Max: maxDur,
		field: func(s *scenario.Spec) any { return &s.TelemetryInterval }},
	{Path: "telemetry.diag", Kind: Bool,
		field: func(s *scenario.Spec) any { return &s.TelemetryDiag }},
}

// A record declares the entries of a list block: the block's path, the
// Fields an entry admits, the entry a key the file omits leaves as init
// made it (the zero T when init is nil), and how errors name an entry.
type record[T any] struct {
	path   string
	fields []Field[T]
	init   func(i int) T
	label  func(*T) string
}

var mixRecord = record[scenario.SizeShare]{
	path: "load.mix",
	fields: []Field[scenario.SizeShare]{
		{Path: "load.mix.size", Kind: Int, Min: minFrame, Max: maxFrame, Required: true,
			field: func(m *scenario.SizeShare) any { return &m.Size }},
		{Path: "load.mix.weight", Kind: Int, Min: 1, Max: math.MaxInt32, Required: true,
			field: func(m *scenario.SizeShare) any { return &m.Weight }},
	},
	label: func(*scenario.SizeShare) string { return "entry" },
}

var flowRecord = record[scenario.Flow]{
	path: "flows",
	fields: []Field[scenario.Flow]{
		{Path: "flows.name", Kind: String,
			field: func(f *scenario.Flow) any { return &f.Name }},
		{Path: "flows.l4", Kind: Enum, Noun: "transport", Values: []string{"udp", "tcp"},
			field: func(f *scenario.Flow) any { return &f.L4 }},
		{Path: "flows.src_ip", Kind: IPv4, Required: true,
			field: func(f *scenario.Flow) any { return &f.SrcIP }},
		{Path: "flows.src_ip_count", Kind: Int, Min: 1, Max: 1 << 24,
			field: func(f *scenario.Flow) any { return &f.SrcIPCount }},
		{Path: "flows.dst_ip", Kind: IPv4, Required: true,
			field: func(f *scenario.Flow) any { return &f.DstIP }},
		{Path: "flows.src_port", Kind: Int, Min: 0, Max: 65535,
			field: func(f *scenario.Flow) any { return &f.SrcPort }},
		{Path: "flows.dst_port", Kind: Int, Min: 0, Max: 65535,
			field: func(f *scenario.Flow) any { return &f.DstPort }},
		{Path: "flows.tos", Kind: Int, Min: 0, Max: 255,
			field: func(f *scenario.Flow) any { return &f.TOS }},
		{Path: "flows.rate", Kind: Rate,
			field: func(f *scenario.Flow) any { return &f.RateMpps }},
		{Path: "flows.size", Kind: Int, Min: minFrame, Max: maxFrame,
			field: func(f *scenario.Flow) any { return &f.PktSize }},
	},
	init:  func(i int) scenario.Flow { return scenario.Flow{Name: fmt.Sprintf("f%d", i), L4: "udp"} },
	label: func(f *scenario.Flow) string { return fmt.Sprintf("flow %q", f.Name) },
}

// faultRecord reads the events of a `faults:` block, executed on the
// run's global sim-time grid (see internal/fault). Plan-level coherence
// (window/period arithmetic, kind-specific field rules, target
// availability) runs in check against the merged spec. The offset and
// drift bounds keep a stepped PTP clock inside int64 picoseconds over
// any admissible run time (see scenario.MaxDuration).
var faultRecord = record[fault.Event]{
	path: "faults",
	fields: []Field[fault.Event]{
		{Path: "faults.kind", Kind: Enum, Required: true, Noun: "fault kind",
			Values: []string{string(fault.LinkFlap), string(fault.DuTStall), string(fault.QueuePause), string(fault.ClockStep)},
			field:  func(ev *fault.Event) any { return &ev.Kind }},
		{Path: "faults.at", Kind: Duration, Min: 0, Max: maxDur,
			field: func(ev *fault.Event) any { return &ev.At }},
		{Path: "faults.duration", Kind: Duration, Min: 1, Max: maxDur,
			field: func(ev *fault.Event) any { return &ev.Duration }},
		{Path: "faults.period", Kind: Duration, Min: 1, Max: maxDur,
			field: func(ev *fault.Event) any { return &ev.Period }},
		{Path: "faults.count", Kind: Int, Min: 1, Max: math.MaxInt32,
			field: func(ev *fault.Event) any { return &ev.Count }},
		{Path: "faults.flush", Kind: Bool,
			field: func(ev *fault.Event) any { return &ev.Flush }},
		// A clock step may go backwards.
		{Path: "faults.offset", Kind: Duration, Min: -maxDur, Max: maxDur,
			field: func(ev *fault.Event) any { return &ev.Offset }},
		{Path: "faults.drift_ppm", Kind: Float, Min: -1e6, Max: 1e6,
			field: func(ev *fault.Event) any { return &ev.DriftPPM }},
	},
	label: func(*fault.Event) string { return "event" },
}

// sectionKeys lists the keys each mapping admits, by section ("" is the
// document root, where each section is a key itself): the Keys and the
// list blocks under it, then the root keys the walk reads itself.
var sectionKeys = func() map[string][]string {
	m := map[string][]string{}
	paths := []string{mixRecord.path, flowRecord.path, faultRecord.path}
	for _, k := range Keys {
		paths = append(paths, k.Path)
	}
	for _, p := range paths {
		sec, key, nested := strings.Cut(p, ".")
		if !nested {
			m[""] = append(m[""], p)
			continue
		}
		if m[sec] == nil {
			m[""] = append(m[""], sec)
		}
		m[sec] = append(m[sec], key)
	}
	m[""] = append(m[""], "version", "scenario", "description")
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
		v, err := k.value(d, vn, line)
		if err != nil {
			return err
		}
		d.scalars[i] = scalar{val: v, line: line}
	}
	return nil
}

// walkList reads the list block n, set on line, one entry per item:
// each starts as r.init made it and takes every key the item sets, read
// as walkKeys reads a scalar key.
func walkList[T any](d *Document, r *record[T], n *node, line int) ([]T, error) {
	if n.kind != listNode {
		return nil, d.errAt(line, "%s: expected a list of mappings, got a %s", r.path, n.kindName())
	}
	keys := make([]string, len(r.fields))
	for i, f := range r.fields {
		keys[i] = f.Path[len(r.path)+1:]
	}
	out := make([]T, 0, len(n.items))
	for i, item := range n.items {
		if item.kind != mapNode {
			return nil, d.errAt(item.line, "%s: each entry must be a mapping, got a %s", r.path, item.kindName())
		}
		if err := d.checkKeys(item, keys, r.path+"."); err != nil {
			return nil, err
		}
		var e T
		if r.init != nil {
			e = r.init(i)
		}
		for j := range r.fields {
			f := &r.fields[j]
			vn, vline, ok := item.get(keys[j])
			if !ok {
				if f.Required {
					return nil, d.errAt(item.line, "%s: %s is missing %q%s", r.path, r.label(&e), keys[j], f.choices())
				}
				continue
			}
			v, err := f.value(d, vn, vline)
			if err != nil {
				return nil, err
			}
			f.set(&e, v)
		}
		out = append(out, e)
	}
	return out, nil
}

// value reads k's value from its node in the spec-file form.
func (k *Field[T]) value(d *Document, n *node, line int) (any, error) {
	raw, err := d.strField(n, line, k.Path)
	if err != nil {
		return nil, err
	}
	v, err := k.parse(raw, false)
	if err != nil {
		return nil, d.errAt(line, "%s: %v", k.Path, err)
	}
	return v, nil
}

// SetFlag parses arg, the command-line form of k's value, checks it
// against the bounds of the spec key and stores it in t.
func (k *Field[T]) SetFlag(t *T, arg string) error {
	v, err := k.parse(arg, true)
	if err != nil {
		return err
	}
	k.set(t, v)
	return nil
}

// parse reads raw, k's value in the spec-file form or, with cli, in the
// command-line form, and checks it against k's bounds. The command-line
// forms carry no units: a Rate is in Mpps with 0 meaning line rate, a
// Duration in milliseconds. A command-line Bool also takes the other
// words of strconv.ParseBool.
func (k *Field[T]) parse(raw string, cli bool) (any, error) {
	switch k.Kind {
	case Int:
		return parseInt(raw, k.Min, k.Max)
	case Float:
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a number", raw)
		}
		if !(v >= float64(k.Min) && v <= float64(k.Max)) {
			return nil, fmt.Errorf("%s is out of range [%d, %d]", raw, k.Min, k.Max)
		}
		return v, nil
	case Rate:
		if !cli {
			return parseRate(raw)
		}
		v, err := strconv.ParseFloat(raw, 64)
		switch {
		case err != nil:
			return nil, fmt.Errorf("%q is not a number", raw)
		case !(v >= 0) || math.IsInf(v, 0):
			return nil, fmt.Errorf("%s is out of range: rates are ≥ 0 Mpps (0 = line rate)", raw)
		}
		return v, nil
	case Duration:
		return k.parseDuration(raw, cli)
	case Bool:
		v, err := strconv.ParseBool(raw)
		if err != nil || !cli && raw != "true" && raw != "false" {
			return nil, fmt.Errorf("%q is not a boolean (true or false)", raw)
		}
		return v, nil
	case Enum:
		if !slices.Contains(k.Values, raw) {
			return nil, fmt.Errorf("unknown %s %q%s", k.Noun, raw, k.choices())
		}
	case IPv4:
		return proto.ParseIPv4(raw)
	}
	return raw, nil
}

// choices lists an Enum's words for an error message.
func (k *Field[T]) choices() string {
	if k.Kind != Enum {
		return ""
	}
	return " (one of: " + strings.Join(k.Values, ", ") + ")"
}

// parseDuration reads a Duration and rounds it to the picosecond. In a
// spec file the unit is mandatory: "50ms", "2s", "100us", "500ns" — a
// bare number is rejected, since durations without units have caused
// enough outages elsewhere. The bounds are checked before the
// conversion to sim.Duration, so no value overflows it.
func (k *Field[T]) parseDuration(raw string, cli bool) (sim.Duration, error) {
	num, scale := raw, sim.Millisecond
	if !cli {
		var unit string
		num, unit = splitUnit(raw)
		switch unit {
		case "ns":
			scale = sim.Nanosecond
		case "us", "µs":
			scale = sim.Microsecond
		case "ms":
			scale = sim.Millisecond
		case "s":
			scale = sim.Second
		case "":
			return 0, fmt.Errorf("%q is missing a unit — write e.g. \"50ms\" (units: ns, us, ms, s)", raw)
		default:
			return 0, fmt.Errorf("unknown unit %q in %q (units: ns, us, ms, s)", unit, raw)
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	switch {
	case err != nil && cli:
		return 0, fmt.Errorf("%q is not a number", raw)
	case err != nil || num == "":
		return 0, fmt.Errorf("%q is not a duration — write e.g. \"50ms\"", raw)
	}
	ps := math.Round(v * float64(scale))
	if ps >= float64(k.Min) && ps <= float64(k.Max) {
		return sim.Duration(ps), nil
	}
	if cli {
		// The flagged Duration keys are positive.
		return 0, fmt.Errorf("%s is out of range: durations are > 0 ms (at least 1 ps) and ≤ %g ms", raw, float64(k.Max)/float64(sim.Millisecond))
	}
	lo := "≥ " + sim.Duration(k.Min).String()
	switch k.Min {
	case 0:
		lo = "≥ 0"
	case 1:
		lo = "positive"
	}
	return 0, fmt.Errorf("duration must be %s and ≤ %v, got %s", lo, sim.Duration(k.Max), raw)
}

// parseRate reads a spec-file packet rate in Mpps: "2mpps", "500kpps",
// "14880952pps", or the word "line" for unshaped line rate.
func parseRate(raw string) (float64, error) {
	if raw == "line" {
		return 0, nil
	}
	num, unit := splitUnit(raw)
	var scale float64
	switch unit {
	case "mpps":
		scale = 1
	case "kpps":
		scale = 1e-3
	case "pps":
		scale = 1e-6
	case "":
		return 0, fmt.Errorf("%q is missing a unit — write e.g. \"2mpps\" (units: pps, kpps, mpps) or \"line\"", raw)
	default:
		return 0, fmt.Errorf("unknown unit %q in %q (units: pps, kpps, mpps; or \"line\")", unit, raw)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || num == "" {
		return 0, fmt.Errorf("%q is not a rate — write e.g. \"2mpps\"", raw)
	}
	if v <= 0 {
		return 0, fmt.Errorf("rate must be positive, got %q", raw)
	}
	return v * scale, nil
}

// FlagValue renders k's field of t in the command-line form SetFlag
// reads.
func (k *Field[T]) FlagValue(t *T) string {
	if d, ok := k.field(t).(*sim.Duration); ok {
		return strconv.FormatFloat(d.Seconds()*1e3, 'g', -1, 64)
	}
	return fmt.Sprint(reflect.ValueOf(k.field(t)).Elem())
}

// set stores v, as parse produced it, in k's field of t.
func (k *Field[T]) set(t *T, v any) {
	f := reflect.ValueOf(k.field(t)).Elem()
	f.Set(reflect.ValueOf(v).Convert(f.Type()))
}
