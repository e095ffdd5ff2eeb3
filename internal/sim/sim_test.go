package sim

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var tm Time
	tm = tm.Add(5 * Nanosecond)
	if tm != Time(5000) {
		t.Fatalf("5ns = %d ps, want 5000", tm)
	}
	if d := tm.Sub(Time(1000)); d != 4*Nanosecond {
		t.Fatalf("sub: got %v", d)
	}
	if s := Second.Seconds(); s != 1.0 {
		t.Fatalf("seconds: got %v", s)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{800 * Picosecond, "800ps"},
		{5 * Nanosecond, "5ns"},
		{1500 * Nanosecond, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-5 * Nanosecond, "-5ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	if d := FromSeconds(1.5); d != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", d)
	}
	if d := FromNanoseconds(0.8); d != 800*Picosecond {
		t.Fatalf("FromNanoseconds(0.8) = %v", d)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*100), func() { fired++ })
	}
	n := e.Run(500)
	if n != 5 || fired != 5 {
		t.Fatalf("Run(500) fired %d events (counter %d), want 5", n, fired)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	// Run advances the clock to the until mark even without events there.
	if e.Now() != 500 {
		t.Fatalf("now = %v, want 500", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	hits := 0
	var rec func()
	rec = func() {
		hits++
		if hits < 10 {
			e.ScheduleAfter(Nanosecond, rec)
		}
	}
	e.ScheduleAfter(0, rec)
	e.RunAll()
	if hits != 10 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != Time(9*Nanosecond) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			wakes = append(wakes, p.Now())
		}
	})
	e.RunAll()
	if len(wakes) != 5 {
		t.Fatalf("wakes = %v", wakes)
	}
	for i, w := range wakes {
		want := Time((i + 1) * 10 * int(Nanosecond))
		if w != want {
			t.Fatalf("wake %d at %v, want %v", i, w, want)
		}
	}
	if e.Procs() != 0 {
		t.Fatalf("live procs = %d after RunAll", e.Procs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			p.Sleep(2 * Nanosecond)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Nanosecond)
		for i := 0; i < 3; i++ {
			trace = append(trace, "b")
			p.Sleep(2 * Nanosecond)
		}
	})
	e.RunAll()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcStopTime(t *testing.T) {
	e := NewEngine(1)
	e.SetStopTime(Time(100 * Nanosecond))
	iters := 0
	e.Spawn("loop", func(p *Proc) {
		for p.Running() {
			iters++
			p.Sleep(10 * Nanosecond)
		}
	})
	e.RunAll()
	if iters != 10 {
		t.Fatalf("iterations = %d, want 10", iters)
	}
}

func TestProcYieldFairness(t *testing.T) {
	e := NewEngine(1)
	var trace []int
	for id := 0; id < 3; id++ {
		id := id
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, id)
				p.Sleep(0)
			}
		})
	}
	e.RunAll()
	// Round-robin: 0 1 2 0 1 2 0 1 2.
	for i, v := range trace {
		if v != i%3 {
			t.Fatalf("trace = %v", trace)
		}
	}
}

// TestProcReturnedNeverResumed pins the end of a process's life: the
// live count drops by exactly one when it returns, and a wake-up armed
// for it afterwards is a no-op rather than a resume.
func TestProcReturnedNeverResumed(t *testing.T) {
	e := NewEngine(1)
	wakes := 0
	short := e.Spawn("short", func(p *Proc) {
		for i := 0; i < 3; i++ {
			wakes++
			p.Sleep(10 * Nanosecond)
		}
	})
	e.Spawn("long", func(p *Proc) { p.Sleep(100 * Nanosecond) })
	if e.Procs() != 2 {
		t.Fatalf("live procs = %d after two spawns, want 2", e.Procs())
	}
	var mid int
	e.Schedule(Time(50*Nanosecond), func() {
		mid = e.Procs()
		e.ScheduleProc(e.Now(), short)
		e.ScheduleProc(e.Now().Add(Nanosecond), short)
	})
	e.RunAll()
	if mid != 1 {
		t.Fatalf("live procs = %d after one returned, want 1", mid)
	}
	if wakes != 3 {
		t.Fatalf("returned proc resumed: %d body iterations, want 3", wakes)
	}
	if e.Procs() != 0 {
		t.Fatalf("live procs = %d after RunAll, want 0", e.Procs())
	}
}

// TestProcPanicSurfacesAtRunCaller pins that a panic inside a process
// reaches the caller of the engine's run loop, where it can be
// recovered, instead of tearing down the program from elsewhere.
func TestProcPanicSurfacesAtRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad-sleeper", func(p *Proc) {
		p.Sleep(Nanosecond)
		p.Sleep(-1)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.RunAll()
		return
	}()
	msg, ok := got.(string)
	if !ok || !strings.Contains(msg, "bad-sleeper") || !strings.Contains(msg, "negative sleep") {
		t.Fatalf("recovered %#v, want the negative-sleep panic naming the proc", got)
	}
}

// TestProcEnginesIndependent runs two engines, each with several
// interleaving processes, on two goroutines at once (the multicore
// shard layout). Each engine's wake sequence must equal the one from a
// serial run of that engine alone; under -race this also checks that
// the process switch publishes each engine's state to its own
// processes only.
func TestProcEnginesIndependent(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		for k := 0; k < 4; k++ {
			k := int64(k)
			e.Spawn("w", func(p *Proc) {
				for i := 0; i < 200; i++ {
					p.Sleep(Duration(e.Rand().Intn(1000)) * Picosecond)
					trace = append(trace, int64(p.Now())<<2|k)
				}
			})
		}
		e.RunAll()
		return trace
	}
	seeds := []int64{11, 12}
	serial := make([][]int64, len(seeds))
	for i, s := range seeds {
		serial[i] = run(s)
	}
	parallel := make([][]int64, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = run(s)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if !slices.Equal(serial[i], parallel[i]) {
			t.Fatalf("seed %d: concurrent wake sequence differs from the serial run", seeds[i])
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for p.Running() {
			n++
			if n == 5 {
				e.Stop()
			}
			p.Sleep(Nanosecond)
		}
	})
	e.RunAll()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

// TestDeterminism checks the core reproducibility invariant: identical
// seeds produce identical event traces, including RNG draws interleaved
// across processes.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		for k := 0; k < 4; k++ {
			e.Spawn("w", func(p *Proc) {
				for i := 0; i < 50; i++ {
					d := Duration(e.Rand().Intn(1000)) * Picosecond
					p.Sleep(d)
					trace = append(trace, int64(p.Now()))
				}
			})
		}
		e.RunAll()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine(1)
		var fired []Time
		for _, tt := range times {
			at := Time(tt)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(Nanosecond, func() {})
		e.Step()
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine(1)
	e.SetStopTime(Never - 1)
	done := make(chan struct{})
	e.Spawn("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
		close(done)
	})
	b.ReportAllocs()
	b.ResetTimer()
	go e.RunAll()
	<-done
}
