// Command moongen runs traffic scenarios on the simulated testbed —
// the CLI face of the library, mirroring `MoonGen <script.lua> <args>`.
// Scenarios register themselves (internal/scenario for the load
// scenarios, internal/experiments for the measurement-backed ones);
// this driver only maps flags onto the declarative Spec and prints the
// report.
//
// Usage:
//
//	moongen list
//	moongen <scenario> [flags]
//	moongen run <spec.yaml|spec.json> [flags]
//
// The named form starts from the scenario's default spec; the run form
// starts from a declarative spec file (see docs/spec-reference.md)
// compiled at load time by internal/spec. In both forms flags override
// the starting spec. Every flag that sets a spec key binds through that
// key's entry in the spec key table (spec.Keys), which gives its name,
// synopsis, usage text and bounds, so a flag admits exactly what the
// spec key admits; flagDefs below splices in the CLI-only flags and is
// the single source for both the FlagSet and the usage synopsis.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/spec"

	// Registers the experiment-backed scenarios (interarrival-*,
	// timestamps).
	_ "repro/internal/experiments"
)

// invocation is one parsed command line: the spec the flags produced and
// the values of the CLI-only flags, which are not spec keys.
type invocation struct {
	spec          scenario.Spec
	flows         int
	telemetry     string
	telemetryMS   float64
	telemetryDiag bool
	faults        string
}

// telemetryKey is the spec key -telemetry-interval sets.
var telemetryKey = func() *spec.Key {
	for i := range spec.Keys {
		if spec.Keys[i].Path == "telemetry.interval" {
			return &spec.Keys[i]
		}
	}
	panic("no telemetry.interval spec key")
}()

// flagDef registers one flag and gives its fragment of the usage
// synopsis.
type flagDef struct {
	synopsis string
	register func(fs *flag.FlagSet, inv *invocation)
}

// flagDefs is the single source of truth for the CLI flags: the flags of
// spec.Keys in table order, with the CLI-only flags spliced in. Each
// entry registers its flag on the FlagSet and contributes its synopsis
// fragment to usage(). TestUsageCoversEveryFlag pins that the two views
// never drift apart.
var flagDefs = buildFlagDefs()

func buildFlagDefs() []flagDef {
	var defs []flagDef
	for i := range spec.Keys {
		k := &spec.Keys[i]
		if k.Flag == "" {
			continue
		}
		synopsis := "-" + k.Flag
		if k.Arg != "" {
			synopsis += " " + k.Arg
		}
		defs = append(defs, flagDef{synopsis, func(fs *flag.FlagSet, inv *invocation) {
			fs.Var(keyFlag{k, &inv.spec}, k.Flag, k.Usage)
		}})
		if k.Flag == "cores" {
			// The synopsis lists -flows next to -cores.
			defs = append(defs, flagDef{"-flows N", func(fs *flag.FlagSet, inv *invocation) {
				fs.IntVar(&inv.flows, "flows", len(inv.spec.Flows), "declared flow count (0 keeps the scenario's default flow set)")
			}})
		}
	}
	return append(defs,
		flagDef{"-telemetry PATH", func(fs *flag.FlagSet, inv *invocation) {
			fs.StringVar(&inv.telemetry, "telemetry", "", "record windowed telemetry to PATH (.jsonl switches to JSONL, else CSV)")
		}},
		flagDef{"-telemetry-interval MS", func(fs *flag.FlagSet, inv *invocation) {
			def := 1.0
			if inv.spec.TelemetryInterval > 0 {
				def = inv.spec.TelemetryInterval.Seconds() * 1e3
			}
			fs.Float64Var(&inv.telemetryMS, "telemetry-interval", def, "telemetry window length [ms of simulated time]")
		}},
		flagDef{"-telemetry-diag", func(fs *flag.FlagSet, inv *invocation) {
			fs.BoolVar(&inv.telemetryDiag, "telemetry-diag", inv.spec.TelemetryDiag, "include diagnostic columns (engine/pool internals; vary with -cores/-batch)")
		}},
		flagDef{"-faults PATH", func(fs *flag.FlagSet, inv *invocation) {
			fs.StringVar(&inv.faults, "faults", "", "load a fault plan (a faults: block, YAML or JSON) onto the scenario")
		}},
	)
}

// keyFlag binds a spec key's flag to the spec being built. Set parses
// the argument, checks it against the key's bounds and stores it, so
// only the flags a command line sets change the spec.
type keyFlag struct {
	key  *spec.Key
	spec *scenario.Spec
}

func (f keyFlag) String() string {
	if f.key == nil {
		return "" // the zero value flag.PrintDefaults probes
	}
	return f.key.FlagValue(f.spec)
}

func (f keyFlag) Set(arg string) error { return f.key.SetFlag(f.spec, arg) }

func (f keyFlag) IsBoolFlag() bool { return f.key != nil && f.key.Kind == spec.Bool }

// newFlagSet builds the scenario FlagSet from flagDefs, seeded with the
// starting spec so flag defaults reflect what will run.
func newFlagSet(name string, sp scenario.Spec) (*flag.FlagSet, *invocation) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	inv := &invocation{spec: sp}
	for _, d := range flagDefs {
		d.register(fs, inv)
	}
	return fs, inv
}

// parseFlags applies args onto the starting spec sp. A flag that args
// does not set leaves sp as it is; one it sets is checked against its
// spec key's bounds. The flag package reports an error on stderr,
// together with the usage, before parseFlags returns it.
func parseFlags(name string, sp scenario.Spec, args []string, stderr io.Writer) (*invocation, error) {
	fs, inv := newFlagSet(name, sp)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return inv, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	switch name {
	case "list", "-list", "--list":
		runList(os.Stdout)
		return
	case "run":
		if len(os.Args) < 3 || strings.HasPrefix(os.Args[2], "-") {
			fmt.Fprintln(os.Stderr, "usage: moongen run <spec.yaml|spec.json> [flags]")
			os.Exit(2)
		}
		doc, err := spec.Load(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		scName, compiled, err := doc.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(runScenario(scName, compiled, os.Args[3:], os.Stdout, os.Stderr))
	}
	sc, ok := scenario.Get(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n\n", name)
		usage()
		os.Exit(2)
	}
	os.Exit(runScenario(name, sc.DefaultSpec(), os.Args[2:], os.Stdout, os.Stderr))
}

// runScenario applies the CLI flags on top of the starting spec, wires
// the optional telemetry file, executes and prints the report. It is
// the shared tail of both `moongen <scenario>` and `moongen run`; the
// returned value is the process exit code.
func runScenario(name string, sp scenario.Spec, args []string, stdout, stderr io.Writer) int {
	inv, err := parseFlags(name, sp, args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	sp = inv.spec
	if inv.flows > 0 && inv.flows != len(sp.Flows) {
		// Resizing is only meaningful for scenarios whose flow set is
		// the generic FlowSet; curated flow sets (qos's shaped EF/BE
		// pair, spec-file flows with marks and rates) carry per-flow
		// state a generic replacement would silently zero out, and
		// scenarios declaring no flows never consume a flow count.
		if !isGenericFlowSet(sp.Flows) {
			fmt.Fprintf(stderr, "scenario %s does not take a flow count; -flows only applies to flow-tracked scenarios\n", name)
			return 2
		}
		sp.Flows = scenario.FlowSet(inv.flows)
	}

	if inv.faults != "" {
		// A -faults file replaces the scenario's plan (if any) wholesale;
		// Execute re-validates the merged spec, so a plan whose targets
		// the topology lacks still fails closed before anything runs.
		plan, err := spec.LoadFaults(inv.faults)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sp.Faults = plan
	}

	var telFile *os.File
	if inv.telemetry != "" {
		// The interval goes through its spec key's bounded conversion:
		// a value that rounds to 0 ps or overflows is refused, not
		// silently recorded as no telemetry.
		if err := telemetryKey.SetFlag(&sp, strconv.FormatFloat(inv.telemetryMS, 'g', -1, 64)); err != nil {
			fmt.Fprintf(stderr, "invalid value for flag -telemetry-interval: %v\n", err)
			return 2
		}
		sp.TelemetryJSONL = strings.HasSuffix(inv.telemetry, ".jsonl")
		sp.TelemetryDiag = inv.telemetryDiag
		f, err := os.Create(inv.telemetry)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		telFile = f
		if sp.Cores <= 1 {
			// Single engine: rows stream to the file as they are
			// recorded. Sharded runs write the merged series below —
			// per-shard streams would carry partial counters.
			sp.TelemetryStream = f
		}
	}

	rep, err := scenario.Execute(name, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if telFile != nil {
		if sp.TelemetryStream == nil {
			if rep.Telemetry == nil {
				fmt.Fprintf(stderr, "telemetry: scenario %s produced no series (it bypasses the standard testbed)\n", name)
			} else if sp.TelemetryJSONL {
				err = rep.Telemetry.WriteJSONL(telFile, sp.TelemetryDiag)
			} else {
				err = rep.Telemetry.WriteCSV(telFile, sp.TelemetryDiag)
			}
		}
		if cerr := telFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "telemetry:", err)
			return 1
		}
	}
	rep.Print(stdout)
	return 0
}

// isGenericFlowSet reports whether flows is exactly the generic
// scenario.FlowSet shape — the only kind -flows may resize. Scenarios
// declaring no flows (they run the implicit DefaultFlow) or a curated
// set are rejected: resizing would silently change their traffic.
func isGenericFlowSet(flows []scenario.Flow) bool {
	if len(flows) == 0 {
		return false
	}
	want := scenario.FlowSet(len(flows))
	for i := range flows {
		if flows[i] != want[i] {
			return false
		}
	}
	return true
}

// runList prints the sorted scenario listing with one-line
// descriptions — the body of `moongen list`.
func runList(w io.Writer) {
	fmt.Fprintln(w, "scenarios:")
	scenario.WriteList(w)
}

// synopsis renders the one-line flag summary from flagDefs.
func synopsis() string {
	var b strings.Builder
	b.WriteString("usage: moongen <scenario>")
	for _, d := range flagDefs {
		b.WriteString(" [")
		b.WriteString(d.synopsis)
		b.WriteString("]")
	}
	return b.String()
}

func usage() {
	fmt.Fprintln(os.Stderr, synopsis())
	fmt.Fprintln(os.Stderr, "       moongen run <spec.yaml|spec.json> [flags]")
	fmt.Fprintln(os.Stderr, "       moongen list")
	fmt.Fprintln(os.Stderr)
	runList(os.Stderr)
}
