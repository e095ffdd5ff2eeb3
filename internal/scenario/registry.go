package scenario

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the global registry. Registering a
// duplicate name panics: two workloads silently shadowing each other is
// a packaging bug.
func Register(s Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	name := s.Name()
	if name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteList prints one "name  description" line per registered
// scenario, sorted by name with the description column aligned past
// the longest name — the body of `moongen list`. The output is
// deterministic: same registry, same bytes.
func WriteList(w io.Writer) {
	names := Names()
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		s, _ := Get(n)
		fmt.Fprintf(w, "  %-*s  %s\n", width, n, s.Describe())
	}
}

// Execute runs the named scenario with the given spec. Zero-valued
// spec fields fall back to scenario-independent defaults (60 B frames,
// 50 ms runtime, seed 1); pass sc.DefaultSpec() for the scenario's own
// canonical configuration. Output that scenarios stream while running
// (per-window counters) goes to out; the returned Report is the final
// result. With Spec.Cores > 1 the scenario runs sharded — one engine
// per modeled core on its own goroutine — and the report is the merge
// of the per-shard reports (see Spec.Cores).
func Execute(name string, spec Spec, out io.Writer) (*Report, error) {
	sc, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	// Fault plans are validated fail-closed before anything runs: a
	// malformed plan (or one whose targets the topology cannot
	// provide) must never degrade into a partially injected run.
	if len(spec.Faults) > 0 {
		if err := spec.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		if spec.Faults.RequiresDuT() && !spec.UseDuT {
			return nil, fmt.Errorf("scenario %s: fault plan contains dut-stall events but the topology has no DuT", name)
		}
		if err := spec.Faults.CheckClockSteps(spec.withDefaults().Runtime, MaxDuration); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	if err := CheckRate(spec.RateMpps); err != nil {
		return nil, fmt.Errorf("scenario %s: rate: %w", name, err)
	}
	for _, f := range spec.Flows {
		if err := CheckRate(f.RateMpps); err != nil {
			return nil, fmt.Errorf("scenario %s: flow %q rate: %w", name, f.Name, err)
		}
	}
	var (
		rep *Report
		err error
	)
	if spec.Cores > 1 {
		if sco, ok := sc.(SingleCoreOnly); ok {
			return nil, fmt.Errorf("scenario %s: cannot run with cores=%d: %s", name, spec.Cores, sco.SingleCoreOnly())
		}
		if err := CheckPartition(sc, spec); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		rep, err = executeSharded(sc, spec)
	} else {
		rep, err = sc.Run(NewEnv(spec, out))
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	rep.Scenario = name
	return rep, nil
}
