package repro

import (
	"io"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"
)

// eventBudget is the ceiling on engine events per transmitted packet
// for each benchmark workload. The poll-mode datapath takes no event
// per frame for pulled deliveries, transmit completions or held
// frames, and the DuT reads its ingress ring only at an RX interrupt
// or a poll step, so what is left is task wakes, scheduler trains and
// the DuT's per-packet service completions.
var eventBudget = map[string]float64{
	"flood64":     0.2,
	"overload4":   0.3,
	"churn-256k":  0.3,
	"flap-tel2c":  0.4,
	"dut-poisson": 2.0,
}

// TestEventBudget runs every benchmark workload spec (read as is, with
// the runtime cut to 5 ms) on the user path and checks the engine
// events it fires per transmitted packet against eventBudget.
func TestEventBudget(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("bench", "workloads", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no workload specs: %v", err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		name = name[:len(name)-len(".yaml")]
		ceiling, ok := eventBudget[name]
		if !ok {
			t.Errorf("%s: no event budget", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			doc, err := spec.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			sc, sp, err := doc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sp.Runtime = 5 * sim.Millisecond
			events, tx := countEvents(t, sc, sp)
			perPkt := float64(events) / float64(max(tx, 1))
			t.Logf("%d events, %d tx packets: %.3f events/pkt (ceiling %.2f)", events, tx, perPkt, ceiling)
			if tx == 0 || perPkt > ceiling {
				t.Errorf("%.3f engine events per tx packet, ceiling %.2f", perPkt, ceiling)
			}
		})
	}
}

// countEvents runs a compiled spec shard by shard, as Execute does, and
// returns the events all engines fired and the merged TX packet count.
func countEvents(t *testing.T, name string, sp scenario.Spec) (events, tx uint64) {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	sp = scenario.NewEnv(sp, nil).Spec
	k := max(sp.Cores, 1)
	reps := make([]*scenario.Report, k)
	engines := make([]*sim.Engine, k)
	run := func(id int, app *core.App) error {
		s := sp
		if k > 1 {
			s = sp.ShardSpec(id, k)
		}
		env := scenario.NewEnv(s, io.Discard)
		if app != nil {
			env.Adopt(app)
		}
		engines[id] = env.App().Eng
		var err error
		reps[id], err = sc.Run(env)
		return err
	}
	var err error
	if k == 1 {
		err = run(0, nil)
	} else {
		err = multicore.NewGroup(k, sp.Seed).Each(func(s *multicore.Shard) error { return run(s.ID, s.App) })
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		events += e.EventsProcessed()
	}
	return events, scenario.MergeReports(reps).TxPackets
}
