// Package telemetry is the simulation's observability layer: windowed
// counter snapshots driven by the engine's own event grid.
//
// A Recorder schedules one snapshot event per window (default 1 ms of
// simulated time) on the engine it observes and samples every
// registered probe column into a preallocated ring of window records.
// Because the windows are simulated-time windows — never wall time —
// the recorded series is a pure function of the model and its seed:
// the same run produces the same bytes, merged per-shard series are
// byte-identical across core counts, and the output can be pinned by
// golden files.
//
// The determinism contract, in detail:
//
//   - Sampling is strictly out of band. A Sample function reads state
//     (port counter registers, tracker aggregates); it must not schedule
//     events, draw randomness or otherwise perturb the model.
//   - Snapshot events fire on the engine grid at epoch + w*interval.
//     Equal-time ordering follows the engine's schedule-sequence rule,
//     so a window edge always observes exactly the deliveries that
//     ran before it — the same rule the end-of-run report snapshots
//     follow.
//   - Columns are either model columns (port counters, flow
//     aggregates: functions of the modeled packet timeline, invariant
//     across batch size and shard count) or diagnostic columns
//     (Column.Diag: event counts, buffer occupancy — execution
//     mechanics that legitimately vary with batching and sharding).
//     Exports exclude diagnostic columns unless asked, which is what
//     makes the exported series byte-identical across Cores × Batch.
//
// Probe authoring rule: column and probe names are lowercase
// [a-z0-9_] (dots join the probe prefix to the column name), Sample
// must be cheap and allocation-free, and any column whose value
// depends on how work was grouped into events — not on the modeled
// wire — must set Diag.
package telemetry

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Rule is a column's cross-shard merge combinator.
type Rule uint8

// Merge rules.
const (
	// RuleSum adds shard samples — counters over disjointly sharded
	// work (each packet, flow and drop is owned by exactly one shard).
	RuleSum Rule = iota
	// RuleMax takes the shard maximum — running high-water marks.
	RuleMax
)

// ColumnMeta is the exported identity of a column: everything but the
// sampling function.
type ColumnMeta struct {
	Name string
	Rule Rule
	Diag bool
}

// Column is one sampled value of a probe.
type Column struct {
	// Name is the column name within the probe; the exported name is
	// "<probe>.<name>". Lowercase [a-z0-9_.] only.
	Name string
	// Rule is the cross-shard merge combinator.
	Rule Rule
	// Diag marks a diagnostic column: a value that reflects execution
	// mechanics (event counts, ring/pool occupancy) rather than the
	// modeled wire, and therefore varies with batch size and shard
	// count. Diagnostic columns are recorded but excluded from exports
	// unless explicitly included.
	Diag bool
	// Sample reads the current value. It runs inside the engine's
	// snapshot event: it must be cheap, must not allocate in steady
	// state, and must not perturb the model (no scheduling, no
	// randomness).
	Sample func() uint64
}

// Probe is a named group of columns registered as one unit.
type Probe struct {
	Name string
	Cols []Column
}

// DefaultInterval is the default window length: 1 ms of simulated
// time, the per-second-style readout cadence scaled to simulation runs.
const DefaultInterval = sim.Millisecond

// defaultCapacity bounds the ring: at the default interval it retains
// the last ~4 s of simulated run.
const defaultCapacity = 4096

// Config configures a Recorder.
type Config struct {
	// Interval is the sim-time window length (default DefaultInterval).
	Interval sim.Duration
	// Capacity is the number of windows the ring retains before
	// overwriting the oldest (default 4096). Streaming is unaffected
	// by overwrites.
	Capacity int
	// Stream, when set, receives every window row as it is recorded —
	// CSV (with a leading header row) by default, JSONL with
	// StreamJSONL. Rows are rendered with the same code as the
	// post-run Series writers, so a streamed file and a post-run
	// export of the same run are byte-identical.
	Stream io.Writer
	// StreamJSONL switches the stream format to one JSON object per
	// window.
	StreamJSONL bool
	// StreamDiag includes diagnostic columns in the stream.
	StreamDiag bool
}

// Recorder samples registered probes on the engine's event grid.
type Recorder struct {
	eng     *sim.Engine
	cfg     Config
	meta    []ColumnMeta
	sample  []func() uint64
	started bool

	ring []uint64 // capacity × len(meta) backing store
	rows uint64   // windows recorded so far (monotonic)

	epoch  sim.Time // Start instant; window w covers (epoch+w·I, epoch+(w+1)·I]
	nextAt sim.Time
	tickFn func()
	buf    []byte // reusable stream-row render buffer
}

// NewRecorder creates a recorder on eng. Register probes, then Start.
func NewRecorder(eng *sim.Engine, cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	r := &Recorder{eng: eng, cfg: cfg}
	r.tickFn = r.tick
	return r
}

// Windows returns the number of windows recorded so far.
func (r *Recorder) Windows() uint64 { return r.rows }

// Register appends a probe's columns. Registration order is the column
// order — it must be deterministic (and identical across shards of a
// sharded run) for the exported series to be stable. Must be called
// before Start.
func (r *Recorder) Register(p Probe) {
	if r.started {
		panic("telemetry: Register after Start")
	}
	for _, c := range p.Cols {
		name := p.Name + "." + c.Name
		validateName(name)
		r.meta = append(r.meta, ColumnMeta{Name: name, Rule: c.Rule, Diag: c.Diag})
		r.sample = append(r.sample, c.Sample)
	}
}

// validateName enforces the probe authoring rule: lowercase
// [a-z0-9_.], so names embed into CSV headers and JSON keys verbatim.
func validateName(name string) {
	if name == "" {
		panic("telemetry: empty column name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '.' {
			continue
		}
		panic(fmt.Sprintf("telemetry: column name %q: only [a-z0-9_.] allowed", name))
	}
}

// Start arms the first snapshot at Now()+Interval. The recorder
// re-arms itself while the engine's run time is in progress
// (Engine.Running); the snapshot at the stop instant records the final
// window and stops, so a run of duration D records exactly D/Interval
// windows when D is a multiple of the interval.
func (r *Recorder) Start() {
	if r.started {
		panic("telemetry: Start called twice")
	}
	r.started = true
	r.epoch = r.eng.Now()
	r.ring = make([]uint64, r.cfg.Capacity*len(r.meta))
	r.buf = make([]byte, 0, 64+16*len(r.meta))
	if r.cfg.Stream != nil && !r.cfg.StreamJSONL {
		r.buf = appendCSVHeader(r.buf[:0], r.meta, r.cfg.StreamDiag)
		r.cfg.Stream.Write(r.buf)
	}
	r.nextAt = r.epoch.Add(r.cfg.Interval)
	r.arm()
}

// tick is the snapshot event: sample every column into the ring slot
// of the current window, stream the row if configured, re-arm.
func (r *Recorder) tick() {
	n := len(r.meta)
	base := int(r.rows%uint64(r.cfg.Capacity)) * n
	row := r.ring[base : base+n : base+n]
	for i, s := range r.sample {
		row[i] = s()
	}
	w := r.rows
	r.rows++
	if r.cfg.Stream != nil {
		tNS := windowEndNS(r.epoch, r.cfg.Interval, w)
		if r.cfg.StreamJSONL {
			r.buf = appendJSONRow(r.buf[:0], w, tNS, row, r.meta, r.cfg.StreamDiag)
		} else {
			r.buf = appendCSVRow(r.buf[:0], w, tNS, row, r.meta, r.cfg.StreamDiag)
		}
		r.cfg.Stream.Write(r.buf)
	}
	if r.eng.Running() {
		r.nextAt = r.nextAt.Add(r.cfg.Interval)
		r.arm()
	}
}

// arm schedules the snapshot at nextAt and bounds the engine's horizon
// there, so no process acts ahead across a window edge.
func (r *Recorder) arm() {
	r.eng.Schedule(r.nextAt, r.tickFn)
	r.eng.SetSampleAt(r.nextAt)
}

// Series exports the retained windows as an immutable time series.
func (r *Recorder) Series() *Series {
	n := len(r.meta)
	retained := r.rows
	if retained > uint64(r.cfg.Capacity) {
		retained = uint64(r.cfg.Capacity)
	}
	s := &Series{
		Interval: r.cfg.Interval,
		Epoch:    r.epoch,
		First:    r.rows - retained,
		Cols:     append([]ColumnMeta(nil), r.meta...),
		Rows:     make([][]uint64, retained),
	}
	for i := uint64(0); i < retained; i++ {
		w := s.First + i
		base := int(w%uint64(r.cfg.Capacity)) * n
		s.Rows[i] = append([]uint64(nil), r.ring[base:base+n]...)
	}
	return s
}

// Series is an exported telemetry time series: one row per window, in
// window order. Rows[i] is window First+i, covering the simulated
// interval (Epoch+w·Interval, Epoch+(w+1)·Interval].
type Series struct {
	Interval sim.Duration
	Epoch    sim.Time
	First    uint64
	Cols     []ColumnMeta
	Rows     [][]uint64
}

// windowEndNS is the exported time column: the window's closing edge
// in integer nanoseconds of simulated time (exact for any interval on
// the nanosecond grid — no float formatting, so output is stable).
func windowEndNS(epoch sim.Time, interval sim.Duration, w uint64) int64 {
	return int64(epoch.Add(sim.Duration(w+1)*interval)) / int64(sim.Nanosecond)
}

// MergeSeries combines per-shard series into one, column by column
// under each column's Rule. Model columns merge exactly: every packet,
// flow and drop is owned by one shard, so RuleSum over shard counters
// reproduces the single-engine series bit for bit. The inputs must
// describe the same recording (interval, epoch, window range, column
// set) or an error is returned.
func MergeSeries(parts []*Series) (*Series, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("telemetry: merge of zero series")
	}
	head := parts[0]
	for i, p := range parts[1:] {
		if err := head.compatible(p); err != nil {
			return nil, fmt.Errorf("telemetry: shard %d: %w", i+1, err)
		}
	}
	out := &Series{
		Interval: head.Interval,
		Epoch:    head.Epoch,
		First:    head.First,
		Cols:     append([]ColumnMeta(nil), head.Cols...),
		Rows:     make([][]uint64, len(head.Rows)),
	}
	for w := range head.Rows {
		row := append([]uint64(nil), head.Rows[w]...)
		for _, p := range parts[1:] {
			for c, v := range p.Rows[w] {
				switch out.Cols[c].Rule {
				case RuleMax:
					if v > row[c] {
						row[c] = v
					}
				default:
					row[c] += v
				}
			}
		}
		out.Rows[w] = row
	}
	return out, nil
}

// compatible reports whether two series describe the same recording.
func (s *Series) compatible(o *Series) error {
	switch {
	case s.Interval != o.Interval:
		return fmt.Errorf("interval %v vs %v", s.Interval, o.Interval)
	case s.Epoch != o.Epoch:
		return fmt.Errorf("epoch %v vs %v", s.Epoch, o.Epoch)
	case s.First != o.First:
		return fmt.Errorf("first window %d vs %d", s.First, o.First)
	case len(s.Rows) != len(o.Rows):
		return fmt.Errorf("%d vs %d windows", len(s.Rows), len(o.Rows))
	case len(s.Cols) != len(o.Cols):
		return fmt.Errorf("%d vs %d columns", len(s.Cols), len(o.Cols))
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return fmt.Errorf("column %d: %+v vs %+v", i, s.Cols[i], o.Cols[i])
		}
	}
	return nil
}

// WriteCSV writes the series with a header row. Diagnostic columns are
// excluded unless includeDiag — the exported model columns are the
// byte-identical-across-Cores×Batch surface.
func (s *Series) WriteCSV(w io.Writer, includeDiag bool) error {
	buf := appendCSVHeader(nil, s.Cols, includeDiag)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i, row := range s.Rows {
		win := s.First + uint64(i)
		buf = appendCSVRow(buf[:0], win, windowEndNS(s.Epoch, s.Interval, win), row, s.Cols, includeDiag)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per window.
func (s *Series) WriteJSONL(w io.Writer, includeDiag bool) error {
	var buf []byte
	for i, row := range s.Rows {
		win := s.First + uint64(i)
		buf = appendJSONRow(buf[:0], win, windowEndNS(s.Epoch, s.Interval, win), row, s.Cols, includeDiag)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendCSVHeader renders "window,t_ns,<cols...>\n".
func appendCSVHeader(buf []byte, cols []ColumnMeta, diag bool) []byte {
	buf = append(buf, "window,t_ns"...)
	for _, c := range cols {
		if c.Diag && !diag {
			continue
		}
		buf = append(buf, ',')
		buf = append(buf, c.Name...)
	}
	return append(buf, '\n')
}

// appendCSVRow renders one window row. Shared by the live stream and
// the post-run writer, which is what makes the two byte-identical.
func appendCSVRow(buf []byte, w uint64, tNS int64, row []uint64, cols []ColumnMeta, diag bool) []byte {
	buf = strconv.AppendUint(buf, w, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, tNS, 10)
	for i, c := range cols {
		if c.Diag && !diag {
			continue
		}
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, row[i], 10)
	}
	return append(buf, '\n')
}

// appendJSONRow renders one window as a JSON object. Column names obey
// the probe authoring rule ([a-z0-9_.]), so no escaping is needed.
func appendJSONRow(buf []byte, w uint64, tNS int64, row []uint64, cols []ColumnMeta, diag bool) []byte {
	buf = append(buf, `{"window":`...)
	buf = strconv.AppendUint(buf, w, 10)
	buf = append(buf, `,"t_ns":`...)
	buf = strconv.AppendInt(buf, tNS, 10)
	for i, c := range cols {
		if c.Diag && !diag {
			continue
		}
		buf = append(buf, ',', '"')
		buf = append(buf, c.Name...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendUint(buf, row[i], 10)
	}
	return append(buf, '}', '\n')
}
