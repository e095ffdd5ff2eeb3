package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// span is one timed interval of a traced run. Times are nanoseconds
// since the run's tracer was created; Parent 0 marks the root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps a run's spans in memory. Shards record concurrently.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span now and returns its id.
func (t *tracer) start(name string, parent int) int {
	return t.add(name, parent, time.Now(), time.Time{})
}

// end closes the span with the given id now.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span; a zero end leaves it open.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	s := span{Name: name, Parent: parent, Start: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// ms returns a closed span's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}

// shardTrace is what one engine shard of a traced run measured.
type shardTrace struct {
	buildNS, launchNS, drainNS, runNS int64
	windowsMS                         []float64
	events, promotions                uint64
	maxSlotDepth                      int
	// counters are the layers' public counters, summed over shards.
	counters map[string]float64
}

// tracedExecute is scenario.Execute rebuilt from the same public calls
// — scenario.Get, NewEnv, Adopt, multicore.NewGroup, MergeReports — so
// the benchmark holds every engine and can time its phases. Its report
// must equal Execute's byte for byte; the harness checks that.
func tracedExecute(name string, sp scenario.Spec, tr *tracer, parent int) (*scenario.Report, []shardTrace, error) {
	sc, ok := scenario.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown scenario %q", name)
	}
	// Execute's defaults (seed, core count), without building a testbed.
	sp = scenario.NewEnv(sp, nil).Spec
	if sp.Cores <= 1 {
		rep, st, err := runShard(sc, sp, nil, tr, parent)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		rep.Scenario = name
		return rep, []shardTrace{st}, nil
	}
	k := sp.Cores
	group := tr.start("multicore.new_group", parent)
	g := multicore.NewGroup(k, sp.Seed)
	tr.end(group)
	reps := make([]*scenario.Report, k)
	sts := make([]shardTrace, k)
	err := g.Each(func(s *multicore.Shard) error {
		var err error
		reps[s.ID], sts[s.ID], err = runShard(sc, sp.ShardSpec(s.ID, k), s.App, tr, parent)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	merge := tr.start("scenario.merge", parent)
	rep := scenario.MergeReports(reps)
	rep.Notes = append(rep.Notes, fmt.Sprintf("merged from %d shards (one engine and port pair per core)", k))
	tr.end(merge)
	rep.Scenario = name
	return rep, sts, nil
}

// runShard builds one testbed (on app when it is a multicore shard's)
// and runs the scenario on it. Before the run it schedules events the
// model never sees: a marker at the current instant, whose firing ends
// the launch phase; a tick every simulated millisecond, each closing a
// window; and a marker at the runtime horizon, which opens the drain.
// They take engine sequence numbers but change no model event's order.
func runShard(sc scenario.Scenario, sp scenario.Spec, app *core.App, tr *tracer, parent int) (*scenario.Report, shardTrace, error) {
	st := shardTrace{counters: map[string]float64{}}
	shard := tr.start("scenario.shard", parent)
	defer tr.end(shard)

	t0 := time.Now()
	build := tr.start("scenario.build", shard)
	env := scenario.NewEnv(sp, io.Discard)
	if app != nil {
		env.Adopt(app)
	}
	eng := env.App().Eng
	tr.end(build)
	run := tr.start("scenario.run", shard)
	runStart := time.Now()
	st.buildNS = runStart.Sub(t0).Nanoseconds()

	var probes uint64
	last, drainStart := runStart, runStart
	eng.Schedule(eng.Now(), func() {
		probes++
		last = time.Now()
		st.launchNS = last.Sub(runStart).Nanoseconds()
		tr.add("scenario.launch", run, runStart, last)
	})
	horizon := eng.Now().Add(env.Spec.Runtime)
	var tick func()
	tick = func() {
		probes++
		now := time.Now()
		st.windowsMS = append(st.windowsMS, float64(now.Sub(last).Nanoseconds())/1e6)
		tr.add("sim.window", run, last, now)
		last = now
		if next := eng.Now().Add(sim.Millisecond); next <= horizon {
			eng.Schedule(next, tick)
		}
	}
	if first := eng.Now().Add(sim.Millisecond); first <= horizon {
		eng.Schedule(first, tick)
	}
	eng.Schedule(horizon, func() {
		probes++
		drainStart = time.Now()
	})

	rep, err := sc.Run(env)
	end := time.Now()
	tr.add("scenario.drain", run, drainStart, end)
	tr.end(run)
	if err != nil {
		return nil, st, err
	}
	st.drainNS = end.Sub(drainStart).Nanoseconds()
	st.runNS = end.Sub(t0).Nanoseconds()

	ss := eng.SchedStats()
	st.events = ss.EventsProcessed - probes
	st.promotions = ss.WheelPromotions
	st.maxSlotDepth = ss.MaxSlotDepth
	st.counters["wire.dropped_frames"] = float64(env.TX().Link().DroppedFrames)
	if fwd := env.Fwd(); fwd != nil {
		st.counters["dut.forwarded"] = float64(fwd.Forwarded)
		st.counters["dut.interrupts"] = float64(fwd.Interrupts)
	}
	if inj := env.FaultInjector(); inj != nil {
		st.counters["fault.fired"] = float64(inj.Fired())
		st.counters["fault.frames_dropped"] = float64(inj.FramesDropped())
	}
	return rep, st, nil
}
