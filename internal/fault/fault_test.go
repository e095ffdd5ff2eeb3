package fault

import (
	"strings"
	"testing"

	"repro/internal/ptpclk"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestPlanValidate(t *testing.T) {
	ms := sim.Millisecond
	good := Plan{
		{Kind: LinkFlap, At: 1 * ms, Duration: 2 * ms, Period: 5 * ms, Count: 3},
		{Kind: ClockStep, At: 2 * ms, Offset: 100 * sim.Nanosecond},
		{Kind: DuTStall, At: 4 * ms, Duration: 1 * ms, Flush: true},
		{Kind: QueuePause, At: 4 * ms, Duration: 1 * ms},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if !good.RequiresDuT() {
		t.Fatal("plan with a dut-stall must report RequiresDuT")
	}
	if (Plan{{Kind: LinkFlap, Duration: ms}}).RequiresDuT() {
		t.Fatal("plan without dut-stall must not report RequiresDuT")
	}

	bad := []struct {
		name string
		plan Plan
		want string
	}{
		{"unknown kind", Plan{{Kind: "fire", Duration: ms}}, "unknown fault kind"},
		{"zero duration window", Plan{{Kind: LinkFlap}}, "duration must be positive"},
		{"offset on window", Plan{{Kind: QueuePause, Duration: ms, Offset: ms}}, "apply only to clock-step"},
		{"empty clock step", Plan{{Kind: ClockStep}}, "needs an offset or a drift rate"},
		{"clock step with duration", Plan{{Kind: ClockStep, Offset: ms, Duration: ms}}, "cannot carry a duration"},
		{"negative onset", Plan{{Kind: LinkFlap, At: -ms, Duration: ms}}, "onset must be"},
		{"unsorted onsets", Plan{
			{Kind: LinkFlap, At: 2 * ms, Duration: ms},
			{Kind: LinkFlap, At: 1 * ms, Duration: ms},
		}, "must be sorted"},
		{"period under duration", Plan{{Kind: LinkFlap, Duration: 2 * ms, Period: ms}}, "must exceed the duration"},
		{"negative period", Plan{{Kind: LinkFlap, Duration: ms, Period: -ms}}, "period must be"},
		{"negative count", Plan{{Kind: LinkFlap, Duration: ms, Count: -1}}, "count must be"},
		{"count without period", Plan{{Kind: LinkFlap, Duration: ms, Count: 2}}, "count needs a period"},
		{"flush on linkflap", Plan{{Kind: LinkFlap, Duration: ms, Flush: true}}, "flush applies only to dut-stall"},
	}
	for _, tc := range bad {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: plan accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestInstallUnroll pins the plan-unrolling arithmetic: periodic events
// repeat until the horizon or their count cap, and occurrences at or
// past the horizon are never scheduled (the post-stop drain must stay
// free of fault actions). CheckClockSteps counts the same occurrences.
func TestInstallUnroll(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name string
		ev   Event
		want int
	}{
		{"one-shot", Event{Kind: ClockStep, At: 1 * ms, Offset: ms}, 1},
		{"periodic to horizon", Event{Kind: ClockStep, At: 1 * ms, Period: 2 * ms, Offset: ms}, 5},
		{"count capped", Event{Kind: ClockStep, At: 1 * ms, Period: 2 * ms, Count: 3, Offset: ms}, 3},
		{"beyond horizon", Event{Kind: ClockStep, At: 20 * ms, Offset: ms}, 0},
		{"onset at horizon excluded", Event{Kind: ClockStep, At: 10 * ms, Offset: ms}, 0},
	}
	for _, tc := range cases {
		eng := sim.NewEngine(1)
		clk := ptpclk.New(eng, ptpclk.Config{TickNS: 6.4})
		in := New(eng, Targets{Clock: clk}, Plan{tc.ev})
		in.Install(eng.Now(), 10*ms)
		if in.Scheduled() != tc.want {
			t.Errorf("%s: scheduled %d occurrences, want %d", tc.name, in.Scheduled(), tc.want)
		}
		eng.RunAll()
		if in.Fired() != uint64(tc.want) {
			t.Errorf("%s: fired %d, want %d", tc.name, in.Fired(), tc.want)
		}
		sum := sim.Duration(tc.want) * tc.ev.Offset
		if err := (Plan{tc.ev}).CheckClockSteps(10*ms, sum); err != nil {
			t.Errorf("%s: steps summing to the limit rejected: %v", tc.name, err)
		}
		if tc.want > 0 && (Plan{tc.ev}).CheckClockSteps(10*ms, sum-1) == nil {
			t.Errorf("%s: steps summing past the limit accepted", tc.name)
		}
	}
}

// frameSink counts deliveries; the minimal wire endpoint.
type frameSink struct{ delivered uint64 }

func (s *frameSink) DeliverFrame(f *wire.Frame, rxTime sim.Time) { s.delivered++ }

func TestLinkFlapLifecycle(t *testing.T) {
	ms := sim.Millisecond
	eng := sim.NewEngine(1)
	sink := &frameSink{}
	link := wire.NewLink(eng, wire.Speed10G, wire.PHY10GBaseSR, 2, sink)
	in := New(eng, Targets{Link: link}, Plan{
		{Kind: LinkFlap, At: 2 * ms, Duration: 1 * ms},
	})
	if in.State() != Armed {
		t.Fatalf("pre-install state = %v, want armed", in.State())
	}
	in.Install(eng.Now(), 10*ms)

	// One frame per 100 µs, enqueued on the serialization grid.
	var send func()
	sent := 0
	send = func() {
		f := link.AcquireFrame()
		f.Data = append(f.Data[:0], make([]byte, 60)...)
		f.WireSize = 64
		f.CRCOK = true
		link.Transmit(f)
		sent++
		if sent < 100 {
			eng.Schedule(eng.Now().Add(100*sim.Microsecond), send)
		}
	}
	eng.Schedule(eng.Now(), send)

	eng.Run(eng.Now().Add(2500 * sim.Microsecond))
	if in.State() != Active {
		t.Fatalf("mid-window state = %v, want active", in.State())
	}
	if in.ActiveFaults() != 1 {
		t.Fatalf("mid-window active = %d, want 1", in.ActiveFaults())
	}
	if link.DroppedFrames == 0 {
		t.Fatal("no frames dropped during the down window")
	}

	eng.RunAll()
	if in.State() != Recovered {
		t.Fatalf("final state = %v, want recovered", in.State())
	}
	if in.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", in.Fired())
	}
	if in.MaxRecoveryNS() != uint64((1 * ms).Nanoseconds()) {
		t.Fatalf("max recovery = %d ns, want the 1 ms window", in.MaxRecoveryNS())
	}
	if in.LastRecoveryNS() != in.MaxRecoveryNS() {
		t.Fatalf("last recovery %d != max %d for a single window", in.LastRecoveryNS(), in.MaxRecoveryNS())
	}
	// The wire invariant survives the fault: every transmitted frame
	// was either delivered or counted dropped, never both or neither.
	if link.TxFrames != sink.delivered+link.DroppedFrames {
		t.Fatalf("tx %d != delivered %d + dropped %d", link.TxFrames, sink.delivered, link.DroppedFrames)
	}
	if in.FramesDropped() != link.DroppedFrames {
		t.Fatalf("injector FramesDropped %d != link DroppedFrames %d", in.FramesDropped(), link.DroppedFrames)
	}
}

// TestWindowClampedToHorizon: a window that would outlive the run is
// clamped, and the recorded recovery latency is the clamped width.
func TestWindowClampedToHorizon(t *testing.T) {
	ms := sim.Millisecond
	eng := sim.NewEngine(1)
	sink := &frameSink{}
	link := wire.NewLink(eng, wire.Speed10G, wire.PHY10GBaseSR, 2, sink)
	in := New(eng, Targets{Link: link}, Plan{
		{Kind: LinkFlap, At: 8 * ms, Duration: 5 * ms},
	})
	in.Install(eng.Now(), 10*ms)
	eng.RunAll()
	if in.State() != Recovered {
		t.Fatalf("state = %v, want recovered (clear clamped inside the horizon)", in.State())
	}
	if got, want := in.MaxRecoveryNS(), uint64((2 * ms).Nanoseconds()); got != want {
		t.Fatalf("clamped recovery = %d ns, want %d", got, want)
	}
	if link.IsDown() {
		t.Fatal("link must be up again after the clamped clear")
	}
}

func TestClockStepApplies(t *testing.T) {
	ms := sim.Millisecond
	eng := sim.NewEngine(1)
	clk := ptpclk.New(eng, ptpclk.Config{TickNS: 6.4})
	step := 250 * sim.Microsecond
	in := New(eng, Targets{Clock: clk}, Plan{
		{Kind: ClockStep, At: 1 * ms, Offset: step, DriftPPM: 35},
	})
	in.Install(eng.Now(), 10*ms)
	before := clk.Offset()
	eng.RunAll()
	if got := clk.Offset() - before; got != step {
		t.Fatalf("clock offset moved by %v, want %v", got, step)
	}
	if in.State() != Recovered {
		t.Fatalf("state after instantaneous step = %v, want recovered", in.State())
	}
}

func TestInstallPanics(t *testing.T) {
	ms := sim.Millisecond
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	eng := sim.NewEngine(1)
	clk := ptpclk.New(eng, ptpclk.Config{TickNS: 6.4})
	in := New(eng, Targets{Clock: clk}, Plan{{Kind: ClockStep, At: ms, Offset: ms}})
	in.Install(eng.Now(), 10*ms)
	mustPanic("double install", func() { in.Install(eng.Now(), 10*ms) })
	mustPanic("missing link target", func() {
		New(eng, Targets{}, Plan{{Kind: LinkFlap, At: ms, Duration: ms}}).Install(eng.Now(), 10*ms)
	})
	mustPanic("missing clock target", func() {
		New(eng, Targets{}, Plan{{Kind: ClockStep, At: ms, Offset: ms}}).Install(eng.Now(), 10*ms)
	})
}
