package spec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// Version is the spec schema version this build reads. Documents carry
// an explicit `version:` key; unknown versions are rejected rather than
// best-effort parsed, so a spec never silently means something else
// under a different build. See docs/spec-reference.md for the
// compatibility policy.
const Version = 1

// Document is a parsed scenario spec: the scenario it composes plus the
// overlay of every field the file sets. Fields the file does not set
// stay nil and fall through to the registered scenario's DefaultSpec at
// Compile time, so a spec only says what it changes.
//
// Parse performs the full schema walk (unknown keys, types, units);
// Compile overlays onto the scenario's defaults and runs the semantic
// checks that need the merged view (pattern/rate coherence, link
// capacity, core sharding). Both stages anchor every error to the
// source line.
type Document struct {
	// File is the name errors are anchored to.
	File string
	// Scenario is the registered scenario the spec composes.
	Scenario string
	// Description is free-form text (reports and docs only).
	Description string

	scenarioLine int

	// scalars holds one slot per Keys entry.
	scalars []scalar

	mix []scenario.SizeShare

	// flowsLine and faultsLine are the lines of the list blocks, 0 when
	// the file has none.
	flows      []scenario.Flow
	flowsLine  int
	faults     fault.Plan
	faultsLine int
}

// scalar is a Keys entry's value as the file sets it (nil when it does
// not) and the line it is set on.
type scalar struct {
	val  any
	line int
}

// line returns the line the file sets the scalar key path on, 0 when
// it does not.
func (d *Document) line(path string) int {
	for i, k := range Keys {
		if k.Path == path && i < len(d.scalars) {
			return d.scalars[i].line
		}
	}
	return 0
}

// Load reads and parses a spec file (YAML by default, JSON when the
// file is .json or starts with '{').
func Load(path string) (*Document, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(src, filepath.Base(path))
}

// Parse parses a spec from bytes; name labels error messages
// ("name:line: ...").
func Parse(src []byte, name string) (*Document, error) {
	root, err := parseTree(src, name)
	if err != nil {
		return nil, err
	}
	d := &Document{File: name}
	if err := d.walk(root); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadFaults reads a standalone fault-plan file: a document whose root
// holds only a `faults:` block, in exactly the schema the spec file's
// block uses. The CLI's -faults flag loads one onto any scenario.
func LoadFaults(path string) (fault.Plan, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFaults(src, filepath.Base(path))
}

// ParseFaults parses a standalone fault plan from bytes; name labels
// error messages. The plan is validated fail-closed, target
// availability aside (that needs the topology and happens at Execute).
func ParseFaults(src []byte, name string) (fault.Plan, error) {
	root, err := parseTree(src, name)
	if err != nil {
		return nil, err
	}
	d := &Document{File: name}
	if root.kind != mapNode {
		return nil, d.errAt(root.line, "a fault-plan file must be a mapping with a \"faults\" block, got a %s", root.kindName())
	}
	if err := d.checkKeys(root, []string{"faults"}, ""); err != nil {
		return nil, err
	}
	n, line, ok := root.get("faults")
	if !ok {
		return nil, d.errAt(1, "missing required key \"faults\" (a list of fault event mappings)")
	}
	if d.faults, err = walkList(d, &faultRecord, n, line); err != nil {
		return nil, err
	}
	if err := d.faults.Validate(); err != nil {
		return nil, d.errAt(line, "faults: %v", err)
	}
	return d.faults, nil
}

// Compile resolves the document into a runnable (scenario name,
// scenario.Spec) pair: the registered scenario's DefaultSpec overlaid
// with every field the file sets, then semantically validated as a
// whole. All interpretation happens here, at load time — the returned
// Spec drives exactly the same compiled-Go path as `moongen <name>`,
// so nothing spec-shaped survives into the hot path.
func (d *Document) Compile() (string, scenario.Spec, error) {
	sc, ok := scenario.Get(d.Scenario)
	if !ok {
		return "", scenario.Spec{}, d.errAt(d.scenarioLine,
			"scenario: unknown scenario %q (available: %s)", d.Scenario, strings.Join(scenario.Names(), ", "))
	}
	s := sc.DefaultSpec()
	for i, v := range d.scalars {
		if v.val != nil {
			Keys[i].set(&s, v.val)
		}
	}
	if d.mix != nil {
		s.Mix = d.mix
	}
	if d.flowsLine > 0 {
		s.Flows = d.flows
	}
	if d.faultsLine > 0 {
		// An explicit `faults:` block replaces the scenario's default
		// plan entirely — `faults: []` runs the scenario fault-free.
		s.Faults = d.faults
	}
	if err := d.check(sc, s); err != nil {
		return "", scenario.Spec{}, err
	}
	return d.Scenario, s, nil
}

// check runs the semantic validations that need the merged
// (defaults + overlay) view of the spec.
func (d *Document) check(sc scenario.Scenario, s scenario.Spec) error {
	anchor := func(line int) int {
		if line > 0 {
			return line
		}
		return d.scenarioLine
	}

	if s.Cores > 1 {
		if sco, ok := sc.(scenario.SingleCoreOnly); ok {
			return d.errAt(anchor(d.line("cores")),
				"cores: scenario %q is single-core only (%s); remove cores or set it to 1", d.Scenario, sco.SingleCoreOnly())
		}
	}

	switch s.Pattern {
	case scenario.PatternLineRate, "":
	case scenario.PatternCBR, scenario.PatternSoftCBR, scenario.PatternPoisson, scenario.PatternBursts:
		if s.RateMpps <= 0 && !flowsCarryRate(s) {
			return d.errAt(anchor(d.line("load.pattern")),
				"load.pattern: pattern %q needs a rate; set load.rate (e.g. \"2mpps\")", s.Pattern)
		}
	default:
		return d.errAt(anchor(d.line("load.pattern")),
			"load.pattern: unknown pattern %q (one of: linerate, cbr, softcbr, poisson, bursts)", s.Pattern)
	}

	// The cbr pattern models the NIC's hardware shaper, which cannot
	// oversubscribe the link — a spec asking for more than line rate is
	// a mistake, not an overload experiment (softcbr models overload:
	// it pushes the exact software grid regardless of wire capacity and
	// lets the link drop). A flow's own rate is always a hardware
	// shaper's (qos shapes every flow on the NIC, whatever the pattern),
	// so it is held to the line rate at its frame size.
	size := s.PktSize
	if size <= 0 {
		size = 60
	}
	if s.Pattern == scenario.PatternCBR {
		capMpps := wire.LineRatePPS(wire.Speed10G, size+proto.FCSLen) / 1e6
		if s.RateMpps > capMpps {
			return d.errAt(anchor(d.line("load.rate")),
				"load.rate: %g Mpps exceeds the 10GbE line rate (%.2f Mpps at %d-byte frames) — the cbr hardware shaper cannot oversubscribe the link; use pattern softcbr to model overload",
				s.RateMpps, capMpps, size+proto.FCSLen)
		}
	}
	for _, f := range s.Flows {
		fsize := f.PktSize
		if fsize <= 0 {
			fsize = size
		}
		fcap := wire.LineRatePPS(wire.Speed10G, fsize+proto.FCSLen) / 1e6
		if f.RateMpps > fcap {
			return d.errAt(anchor(d.flowsLine),
				"flows: flow %q rate %g Mpps exceeds the 10GbE line rate (%.2f Mpps at %d-byte frames)",
				f.Name, f.RateMpps, fcap, fsize+proto.FCSLen)
		}
	}

	// Fault plans are fail-closed at load time: a plan the injector
	// would reject (or one whose targets the topology cannot provide)
	// is a spec error with a line anchor, not a runtime surprise.
	if len(s.Faults) > 0 {
		if err := s.Faults.Validate(); err != nil {
			return d.errAt(anchor(d.faultsLine), "faults: %v", err)
		}
		if s.Faults.RequiresDuT() && !s.UseDuT {
			return d.errAt(anchor(d.faultsLine),
				"faults: the plan contains dut-stall events but the topology has no DuT — set topology.dut: true")
		}
		if err := s.Faults.CheckClockSteps(s.Runtime, scenario.MaxDuration); err != nil {
			return d.errAt(anchor(d.faultsLine), "faults: %v", err)
		}
	}

	if err := scenario.CheckRate(s.RateMpps); err != nil {
		return d.errAt(anchor(d.line("load.rate")), "load.rate: %v", err)
	}
	if err := scenario.CheckPartition(sc, s); err != nil {
		return d.errAt(anchor(d.line("cores")), "%v", err)
	}

	seen := map[string]bool{}
	for _, f := range s.Flows {
		if seen[f.Name] {
			return d.errAt(anchor(d.flowsLine), "flows: duplicate flow name %q (reports merge per-flow stats by name)", f.Name)
		}
		seen[f.Name] = true
		if err := scenario.CheckRate(f.RateMpps); err != nil {
			return d.errAt(anchor(d.flowsLine), "flows: flow %q rate: %v", f.Name, err)
		}
	}
	return nil
}

// flowsCarryRate reports whether every declared flow has its own rate,
// which satisfies rate-requiring patterns without an aggregate rate
// (the qos shape: per-flow hardware shaping).
func flowsCarryRate(s scenario.Spec) bool {
	if len(s.Flows) == 0 {
		return false
	}
	for _, f := range s.Flows {
		if f.RateMpps <= 0 {
			return false
		}
	}
	return true
}

// parseTree reads src into the node tree: JSON when name ends in .json
// or the text starts with '{', YAML otherwise.
func parseTree(src []byte, name string) (*node, error) {
	if isJSON(src, name) {
		return parseJSON(name, src)
	}
	return parseYAML(name, src)
}

func isJSON(src []byte, name string) bool {
	if strings.HasSuffix(name, ".json") {
		return true
	}
	for _, b := range src {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

func (d *Document) errAt(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", d.File, line, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------
// Schema walk
// ---------------------------------------------------------------------

func (d *Document) walk(root *node) error {
	if root.kind != mapNode {
		return d.errAt(root.line, "the document root must be a mapping (\"key: value\" lines), got a %s", root.kindName())
	}
	if err := d.checkKeys(root, sectionKeys[""], ""); err != nil {
		return err
	}

	vn, line, ok := root.get("version")
	if !ok {
		return d.errAt(1, "missing required key \"version\" (this build reads version %d)", Version)
	}
	raw, err := d.strField(vn, line, "version")
	if err != nil {
		return err
	}
	v, err := parseInt(raw, 1, math.MaxInt32)
	if err != nil {
		return d.errAt(line, "version: %v", err)
	}
	if v != Version {
		return d.errAt(line, "version: unsupported spec version %d (this build reads version %d); see docs/spec-reference.md for the compatibility policy", v, Version)
	}

	sn, line, ok := root.get("scenario")
	if !ok {
		return d.errAt(1, "missing required key \"scenario\" (one of: %s)", strings.Join(scenario.Names(), ", "))
	}
	d.Scenario, err = d.strField(sn, line, "scenario")
	if err != nil {
		return err
	}
	d.scenarioLine = line

	if n, line, ok := root.get("description"); ok {
		if d.Description, err = d.strField(n, line, "description"); err != nil {
			return err
		}
	}
	if err := d.walkKeys(root); err != nil {
		return err
	}
	if ln, _, ok := root.get("load"); ok {
		if n, line, ok := ln.get("mix"); ok {
			if d.mix, err = walkList(d, &mixRecord, n, line); err != nil {
				return err
			}
			if len(d.mix) == 0 {
				return d.errAt(line, "load.mix: the mix cannot be empty")
			}
		}
	}
	if n, line, ok := root.get("flows"); ok {
		if d.flows, err = walkList(d, &flowRecord, n, line); err != nil {
			return err
		}
		d.flowsLine = line
	}
	if n, line, ok := root.get("faults"); ok {
		if d.faults, err = walkList(d, &faultRecord, n, line); err != nil {
			return err
		}
		d.faultsLine = line
	}
	return nil
}

// checkKeys rejects keys outside the allowed set, with a "did you
// mean" suggestion when a known key is within edit distance 2. The
// schema is fail-closed on purpose: a typoed key that silently
// defaulted would corrupt an experiment without a trace.
func (d *Document) checkKeys(n *node, allowed []string, prefix string) error {
	for i, k := range n.keys {
		if slices.Contains(allowed, k) {
			continue
		}
		msg := fmt.Sprintf("unknown key %q", prefix+k)
		if s := suggest(k, allowed); s != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", prefix+s)
		} else {
			msg += fmt.Sprintf(" (valid keys: %s)", strings.Join(slices.Sorted(slices.Values(allowed)), ", "))
		}
		return d.errAt(n.keyLines[i], "%s", msg)
	}
	return nil
}

// suggest returns the closest allowed key within edit distance 2, the
// alphabetically first one on a tie.
func suggest(key string, allowed []string) string {
	best, bestDist := "", 3
	for _, a := range allowed {
		if dist := editDistance(key, a); dist < bestDist || dist == bestDist && a < best {
			best, bestDist = a, dist
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ---------------------------------------------------------------------
// Scalar field readers
// ---------------------------------------------------------------------

// strField reads the text of a scalar node, which must not be empty.
func (d *Document) strField(n *node, line int, field string) (string, error) {
	switch {
	case n.kind != scalarNode:
		return "", d.errAt(line, "%s: expected a scalar value, got a %s", field, n.kindName())
	case n.val == "":
		return "", d.errAt(line, "%s: value is empty", field)
	}
	return n.val, nil
}

// parseInt reads an integer in [lo, hi]. Base 0 accepts 0x-prefixed
// hex, which reads naturally for TOS and DSCP bytes ("tos: 0xb8").
func parseInt(raw string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(raw, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not an integer", raw)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%d is out of range [%d, %d]", v, lo, hi)
	}
	return v, nil
}

// minFrame and maxFrame bound a frame size in bytes without FCS to what
// the modeled 10GbE MAC accepts.
const minFrame, maxFrame = 60, 1514

// splitUnit splits "12.5ms" into ("12.5", "ms"). The unit is the
// trailing run of letters (lowercased); the number is everything
// before it.
func splitUnit(raw string) (num, unit string) {
	raw = strings.TrimSpace(raw)
	i := len(raw)
	for i > 0 {
		c := raw[i-1]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == 'µ' {
			i--
			continue
		}
		break
	}
	// Multi-byte µ: back up to the rune start if we landed mid-rune.
	for i > 0 && i < len(raw) && raw[i]&0xC0 == 0x80 {
		i--
	}
	return strings.TrimSpace(raw[:i]), strings.ToLower(raw[i:])
}
