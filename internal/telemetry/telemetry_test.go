package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testBed runs a recorder over a synthetic counter that increments at
// 10 off-grid instants per 1 ms window.
func testBed(t *testing.T, cfg Config, windows int) (*Recorder, *bytes.Buffer) {
	t.Helper()
	eng := sim.NewEngine(1)
	var n uint64
	var stream bytes.Buffer
	if cfg.Stream != nil {
		cfg.Stream = &stream
	}
	r := NewRecorder(eng, cfg)
	r.Register(Probe{Name: "p", Cols: []Column{
		{Name: "n", Rule: RuleSum, Sample: func() uint64 { return n }},
		{Name: "hi", Rule: RuleMax, Diag: true, Sample: func() uint64 { return 7 }},
	}})
	stop := sim.Time(0).Add(sim.Duration(windows) * sim.Millisecond)
	eng.SetStopTime(stop)
	r.Start()
	for i := 0; i < windows*10; i++ {
		at := sim.Time(0).Add(sim.Duration(i)*100*sim.Microsecond + 50*sim.Microsecond)
		eng.Schedule(at, func() { n++ })
	}
	eng.RunAll()
	return r, &stream
}

func TestRecorderWindowGrid(t *testing.T) {
	r, _ := testBed(t, Config{Interval: sim.Millisecond}, 5)
	if r.Windows() != 5 {
		t.Fatalf("recorded %d windows, want 5", r.Windows())
	}
	s := r.Series()
	if s.First != 0 || len(s.Rows) != 5 {
		t.Fatalf("series first=%d rows=%d", s.First, len(s.Rows))
	}
	for w, row := range s.Rows {
		if want := uint64((w + 1) * 10); row[0] != want {
			t.Fatalf("window %d: n=%d, want %d", w, row[0], want)
		}
		if row[1] != 7 {
			t.Fatalf("window %d: hi=%d, want 7", w, row[1])
		}
	}
}

// TestRecorderBoundsHorizon: between snapshots the engine's horizon is
// the next window edge, so a process acting ahead never crosses one.
func TestRecorderBoundsHorizon(t *testing.T) {
	eng := sim.NewEngine(1)
	stop := sim.Time(0).Add(5 * sim.Millisecond)
	eng.SetStopTime(stop)
	if eng.Horizon() != stop {
		t.Fatalf("horizon before Start = %v, want the stop time %v", eng.Horizon(), stop)
	}
	r := NewRecorder(eng, Config{Interval: 2 * sim.Millisecond})
	r.Start()
	var got []sim.Time
	for _, us := range []sim.Duration{500, 1999, 2000, 3500, 4500} {
		eng.Schedule(sim.Time(0).Add(us*sim.Microsecond), func() { got = append(got, eng.Horizon()) })
	}
	eng.RunAll()
	// The snapshot at 2 ms was scheduled first, so it fires before the
	// event at 2 ms and moves the horizon on; the last window is cut at
	// the stop time.
	want := []sim.Duration{2, 2, 4, 4, 5}
	for i, w := range want {
		if at := sim.Time(0).Add(w * sim.Millisecond); got[i] != at {
			t.Errorf("horizon at event %d = %v, want %v", i, got[i], at)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r, _ := testBed(t, Config{Interval: sim.Millisecond, Capacity: 4}, 10)
	if r.Windows() != 10 {
		t.Fatalf("recorded %d windows, want 10", r.Windows())
	}
	s := r.Series()
	if s.First != 6 || len(s.Rows) != 4 {
		t.Fatalf("series first=%d rows=%d, want 6/4", s.First, len(s.Rows))
	}
	for i, row := range s.Rows {
		if want := uint64((int(s.First) + i + 1) * 10); row[0] != want {
			t.Fatalf("retained row %d: n=%d, want %d", i, row[0], want)
		}
	}
}

// TestStreamMatchesPostRunExport: the live stream and the post-run
// Series writer must produce identical bytes — they share the row
// renderer, and this pins it.
func TestStreamMatchesPostRunExport(t *testing.T) {
	r, stream := testBed(t, Config{Interval: sim.Millisecond, Stream: &bytes.Buffer{}}, 3)
	var post bytes.Buffer
	if err := r.Series().WriteCSV(&post, false); err != nil {
		t.Fatal(err)
	}
	if stream.String() != post.String() {
		t.Fatalf("stream != post-run export:\n%s\n---\n%s", stream.String(), post.String())
	}
	// Diagnostic columns stay out of the default export.
	if strings.Contains(post.String(), "p.hi") {
		t.Fatalf("diag column leaked into model export:\n%s", post.String())
	}
	var diag bytes.Buffer
	if err := r.Series().WriteCSV(&diag, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diag.String(), "p.hi") {
		t.Fatalf("diag export misses diag column:\n%s", diag.String())
	}
	lines := strings.Split(strings.TrimSpace(post.String()), "\n")
	if lines[0] != "window,t_ns,p.n" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "0,1000000,10" {
		t.Fatalf("first row %q", lines[1])
	}
}

func TestStreamJSONL(t *testing.T) {
	r, stream := testBed(t, Config{Interval: sim.Millisecond, Stream: &bytes.Buffer{}, StreamJSONL: true, StreamDiag: true}, 2)
	var post bytes.Buffer
	if err := r.Series().WriteJSONL(&post, true); err != nil {
		t.Fatal(err)
	}
	if stream.String() != post.String() {
		t.Fatalf("jsonl stream != post-run export:\n%s\n---\n%s", stream.String(), post.String())
	}
	lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d jsonl rows, want 2", len(lines))
	}
	if lines[0] != `{"window":0,"t_ns":1000000,"p.n":10,"p.hi":7}` {
		t.Fatalf("jsonl row %q", lines[0])
	}
}

func TestMergeSeries(t *testing.T) {
	mk := func(vals ...uint64) *Series {
		return &Series{
			Interval: sim.Millisecond,
			Cols: []ColumnMeta{
				{Name: "a.sum", Rule: RuleSum},
				{Name: "a.max", Rule: RuleMax, Diag: true},
			},
			Rows: [][]uint64{{vals[0], vals[1]}, {vals[2], vals[3]}},
		}
	}
	m, err := MergeSeries([]*Series{mk(1, 5, 2, 6), mk(10, 3, 20, 9)})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{{11, 5}, {22, 9}}
	for w := range want {
		for c := range want[w] {
			if m.Rows[w][c] != want[w][c] {
				t.Fatalf("merged[%d][%d]=%d, want %d", w, c, m.Rows[w][c], want[w][c])
			}
		}
	}
	// Mismatched recordings must refuse to merge.
	bad := mk(0, 0, 0, 0)
	bad.Interval = 2 * sim.Millisecond
	if _, err := MergeSeries([]*Series{mk(0, 0, 0, 0), bad}); err == nil {
		t.Fatal("merge of mismatched intervals succeeded")
	}
	bad = mk(0, 0, 0, 0)
	bad.Cols[1].Name = "a.other"
	if _, err := MergeSeries([]*Series{mk(0, 0, 0, 0), bad}); err == nil {
		t.Fatal("merge of mismatched columns succeeded")
	}
}

func TestColumnNameRule(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRecorder(eng, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("bad column name accepted")
		}
	}()
	r.Register(Probe{Name: "p", Cols: []Column{{Name: "Bad Name", Sample: func() uint64 { return 0 }}}})
}
