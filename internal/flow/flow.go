// Package flow is the receiver-side analysis layer: it attributes
// received packets to flows (5-tuple key extraction from the proto
// headers), tracks per-flow sequence numbers to detect loss, reordering
// and duplication, and accumulates streaming inter-arrival and latency
// statistics. It is the RX counterpart of the transmit-side load
// patterns — what the paper's measurement sections (§5–§6) observe at
// the receiver: latency distributions, loss under overload and
// inter-arrival precision, per flow instead of per port.
//
// A sharded run keeps one tracker per shard, and every flow belongs to
// exactly one shard. The shards' per-flow reports merge in
// scenario.MergeReports on the stats merge layer
// (stats.Histogram.Merge), so a sharded run's per-flow counters are
// exactly the single-core run's — the same contract the multicore
// subsystem pins for the port counters.
package flow

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Key identifies a flow by its IPv4 5-tuple. Keys are comparable and
// ordered (Less), so trackers index flows in maps and reports iterate
// them deterministically.
type Key struct {
	Proto    uint8 // IP protocol: IPProtoUDP or IPProtoTCP
	Src, Dst proto.IPv4
	SrcPort  uint16
	DstPort  uint16
}

// String renders the key as "udp 10.0.0.1:1234>10.1.0.1:5678".
func (k Key) String() string {
	l4 := "proto?"
	switch k.Proto {
	case proto.IPProtoUDP:
		l4 = "udp"
	case proto.IPProtoTCP:
		l4 = "tcp"
	}
	return fmt.Sprintf("%s %s:%d>%s:%d", l4, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Less orders keys lexicographically over the 5-tuple, giving reports
// a deterministic flow order independent of arrival order.
func (k Key) Less(o Key) bool {
	switch {
	case k.Proto != o.Proto:
		return k.Proto < o.Proto
	case k.Src != o.Src:
		return k.Src < o.Src
	case k.Dst != o.Dst:
		return k.Dst < o.Dst
	case k.SrcPort != o.SrcPort:
		return k.SrcPort < o.SrcPort
	default:
		return k.DstPort < o.DstPort
	}
}

// Parse extracts the flow key and the L4 payload from raw frame bytes.
// Only IPv4 UDP/TCP frames carry flows; everything else (ARP, PTP
// probes, ICMP) reports ok=false and is ignored by the tracker.
func Parse(data []byte) (k Key, payload []byte, ok bool) {
	if len(data) < proto.EthHdrLen+proto.IPv4HdrLen {
		return Key{}, nil, false
	}
	if proto.EthHdr(data).EtherType() != proto.EtherTypeIPv4 {
		return Key{}, nil, false
	}
	ip := proto.IPv4Hdr(data[proto.EthHdrLen:])
	ihl := ip.HdrLen()
	l4 := proto.EthHdrLen + ihl
	switch ip.Protocol() {
	case proto.IPProtoUDP:
		if len(data) < l4+proto.UDPHdrLen {
			return Key{}, nil, false
		}
		udp := proto.UDPHdr(data[l4:])
		k = Key{Proto: proto.IPProtoUDP, Src: ip.Src(), Dst: ip.Dst(),
			SrcPort: udp.SrcPort(), DstPort: udp.DstPort()}
		return k, data[l4+proto.UDPHdrLen:], true
	case proto.IPProtoTCP:
		if len(data) < l4+proto.TCPHdrLen {
			return Key{}, nil, false
		}
		tcp := proto.TCPHdr(data[l4:])
		off := tcp.DataOffset()
		if off < proto.TCPHdrLen || len(data) < l4+off {
			return Key{}, nil, false
		}
		k = Key{Proto: proto.IPProtoTCP, Src: ip.Src(), Dst: ip.Dst(),
			SrcPort: tcp.SrcPort(), DstPort: tcp.DstPort()}
		return k, data[l4+off:], true
	}
	return Key{}, nil, false
}

// The sequence stamp is a small trailer the flow-aware load generators
// write at the start of the L4 payload: a magic marker, a 64-bit
// per-flow sequence number and the 64-bit transmit instant. 18 bytes
// fit exactly into the payload of a 60-byte UDP frame, so even
// minimum-size streams carry full loss/reorder/latency attribution.
const (
	stampMagic = 0xF5E9
	// StampLen is the stamped trailer size in bytes.
	StampLen = 2 + 8 + 8
)

// Stamp writes the sequence trailer into an L4 payload. It reports
// false (and writes nothing) when the payload is too short.
func Stamp(payload []byte, seq uint64, tx sim.Time) bool {
	if len(payload) < StampLen {
		return false
	}
	binary.BigEndian.PutUint16(payload[0:2], stampMagic)
	binary.BigEndian.PutUint64(payload[2:10], seq)
	binary.BigEndian.PutUint64(payload[10:18], uint64(tx))
	return true
}

// ReadStamp recovers a sequence trailer written by Stamp. ok is false
// for unstamped payloads (wrong length or magic).
func ReadStamp(payload []byte) (seq uint64, tx sim.Time, ok bool) {
	if len(payload) < StampLen || binary.BigEndian.Uint16(payload[0:2]) != stampMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(payload[2:10]), sim.Time(binary.BigEndian.Uint64(payload[10:18])), true
}

// Config tunes a Tracker.
type Config struct {
	// SeqWindow is the reorder/duplicate detection window in sequence
	// numbers (rounded up to a power of two, default 1024): a late
	// packet within the window of the highest sequence seen is
	// classified exactly (reordered vs duplicate); older stragglers are
	// counted as reordered without adjusting the loss estimate.
	SeqWindow int
	// Latency enables per-flow latency histograms from stamped transmit
	// times. Off by default: the steady-state RX loop then performs no
	// histogram work at all.
	Latency bool
}

// Stats is the per-flow state of a Tracker. Counters follow RFC-4737
// style semantics: Lost counts sequence gaps never filled, Reordered
// counts late arrivals that filled a gap, Duplicates counts sequence
// numbers seen twice.
type Stats struct {
	Key Key

	// Received counts all packets of the flow, Bytes their frame bytes;
	// Stamped counts the subset carrying a sequence trailer.
	Received uint64
	Bytes    uint64
	Stamped  uint64

	// Lost / Reordered / Duplicates are the sequence-tracking verdicts.
	Lost       uint64
	Reordered  uint64
	Duplicates uint64

	// InterArrival accumulates packet inter-arrival times in
	// picoseconds (the sim.Duration base unit).
	InterArrival stats.OnlineStats

	// Latency is the stamped transmit-to-receive latency histogram.
	// It is allocated lazily, on the flow's first latency sample: nil
	// unless Config.Latency is set AND the flow actually carried a
	// timestamped packet — which is what lets a tracker hold a million
	// flows without a million histograms.
	Latency *stats.Histogram

	highest uint64 // highest sequence seen
	started bool
	seen    []uint64 // ring bitmap over (highest-window, highest]
	mask    uint64

	lastRx sim.Time
	hasRx  bool
}

// AddLatency records one latency sample for the flow — the entry point
// for measurements whose latency comes from a side channel (hardware
// timestamped probes) rather than from payload stamps. The histogram
// it creates has 1 ns bins; a caller whose samples have another
// resolution (a PTP tick) sets Latency first.
func (fs *Stats) AddLatency(d sim.Duration) {
	if fs.Latency == nil {
		fs.Latency = stats.NewHistogram(latencyBinWidth)
	}
	fs.Latency.Add(d)
}

// Quartiles returns the 25th/50th/75th latency percentiles (zeros when
// no latency was recorded).
func (fs *Stats) Quartiles() (q1, q2, q3 sim.Duration) {
	if fs.Latency == nil {
		return 0, 0, 0
	}
	return fs.Latency.Quartiles()
}

func (fs *Stats) seenBit(seq uint64) bool {
	return fs.seen[(seq&fs.mask)/64]&(1<<(seq%64)) != 0
}

func (fs *Stats) setSeen(seq uint64) {
	fs.seen[(seq&fs.mask)/64] |= 1 << (seq % 64)
}

func (fs *Stats) clearSeen(seq uint64) {
	fs.seen[(seq&fs.mask)/64] &^= 1 << (seq % 64)
}

// track runs the sequence classifier for one stamped packet.
func (fs *Stats) track(seq uint64) {
	window := uint64(len(fs.seen) * 64)
	if !fs.started {
		// The stream starts at sequence 0 by convention: everything
		// before the first arrival is tentatively lost, reclassified if
		// it straggles in within the window.
		fs.started = true
		fs.highest = seq
		fs.Lost += seq
		for i := range fs.seen {
			fs.seen[i] = 0
		}
		fs.setSeen(seq)
		return
	}
	switch {
	case seq > fs.highest:
		gap := seq - fs.highest - 1
		fs.Lost += gap
		if gap >= window {
			for i := range fs.seen {
				fs.seen[i] = 0
			}
		} else {
			for s := fs.highest + 1; s < seq; s++ {
				fs.clearSeen(s)
			}
		}
		fs.setSeen(seq)
		fs.highest = seq
	case fs.highest-seq >= window:
		// Too old to classify exactly: a straggler from beyond the
		// window. Counted as reordered; the loss estimate keeps the gap
		// (it cannot tell whether this sequence was in it).
		fs.Reordered++
	case fs.seenBit(seq):
		fs.Duplicates++
	default:
		// A late arrival filling a known gap: reordered, not lost.
		fs.setSeen(seq)
		fs.Reordered++
		if fs.Lost > 0 {
			fs.Lost--
		}
	}
}

// Tracker attributes received packets to flows and maintains the
// per-flow Stats. It is single-owner like everything else in a shard's
// datapath; sharded runs keep one tracker per shard and merge the
// shards' reports.
//
// Storage is the flat open-addressing table in table.go: 8-byte hash
// tags in power-of-two slots, per-flow records (which hold the keys) in
// a chunked arena whose pointers are stable across growth. The
// per-flow work (Stats.record) is independent of storage; table_test.go
// pins the table against a map-based reference that calls the same
// method.
type Tracker struct {
	latBin sim.Duration // latencyBinWidth when Config.Latency, else 0

	table flowTable

	// active counts flows that have received at least one packet —
	// the tracker's "live flows" telemetry. It can lag NumFlows:
	// probes may create records for flows that never receive (a
	// telemetry column registered in a shard that does not own the
	// flow).
	active uint64

	// Unparsed counts packets that carried no IPv4 UDP/TCP flow key.
	Unparsed uint64
}

// latencyBinWidth is the per-flow latency histogram's declared
// resolution: percentiles are the stamped latencies floored to the
// nanosecond.
const latencyBinWidth = sim.Nanosecond

// ceilPow2 rounds n up to the next power of two (minimum 64).
func ceilPow2(n int) int {
	p := 64
	for p < n {
		p <<= 1
	}
	return p
}

// NewTracker creates a tracker.
func NewTracker(cfg Config) *Tracker {
	if cfg.SeqWindow <= 0 {
		cfg.SeqWindow = 1024
	}
	cfg.SeqWindow = ceilPow2(cfg.SeqWindow)
	t := &Tracker{}
	if cfg.Latency {
		t.latBin = latencyBinWidth
	}
	t.table.init(cfg.SeqWindow)
	return t
}

// Flow returns the flow's stats, creating them on first use. The
// returned pointer stays valid for the tracker's lifetime — records
// live in the arena and never move, which is what lets telemetry probes
// bind them once at registration.
func (t *Tracker) Flow(k Key) *Stats {
	return t.table.flow(k, k.hash())
}

// Lookup returns the flow's stats without creating them.
func (t *Tracker) Lookup(k Key) (*Stats, bool) {
	fs := t.table.lookup(k, k.hash())
	return fs, fs != nil
}

// NumFlows returns the number of tracked flows.
func (t *Tracker) NumFlows() int { return t.table.n }

// ActiveFlows returns the number of flows that have received at least
// one packet — the "live flows" the telemetry flow probe samples. It
// excludes records created without traffic (probe registration,
// lookups via Flow on the transmit side).
func (t *Tracker) ActiveFlows() uint64 { return t.active }

// LatencyEnabled reports whether stamped packets feed per-flow latency
// histograms. The histograms themselves are created lazily per flow;
// this is the registration-time signal for probes that export
// quantiles.
func (t *Tracker) LatencyEnabled() bool { return t.latBin > 0 }

// TableLoad returns the flat table's occupied and total slot counts.
func (t *Tracker) TableLoad() (used, capacity int) {
	return t.table.used, len(t.table.slots)
}

// MaxProbe returns the longest linear-probe chain the flat table has
// built — with no deletions, an upper bound on every lookup's probe
// length.
func (t *Tracker) MaxProbe() int { return t.table.maxProbe }

// FootprintBytes estimates the tracker's resident memory: slots, the
// record and bitmap arenas and any lazily created latency histograms.
func (t *Tracker) FootprintBytes() uint64 {
	b := t.table.footprintBytes()
	t.table.each(func(fs *Stats) {
		if fs.Latency != nil {
			b += fs.Latency.FootprintBytes()
		}
	})
	return b
}

// Flows returns every tracked flow sorted by key — the deterministic
// iteration order reports are built from.
func (t *Tracker) Flows() []*Stats {
	out := make([]*Stats, 0, t.table.n)
	t.table.each(func(fs *Stats) { out = append(out, fs) })
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// Totals is the aggregate view over every tracked flow — the report
// surface for scenarios tracking too many flows to enumerate.
type Totals struct {
	Flows  uint64 // tracked flows (records)
	Active uint64 // flows with Received > 0

	Received, Bytes, Stamped    uint64
	Lost, Reordered, Duplicates uint64
}

// Totals sums every flow's counters in arena order — O(flows) with no
// sorting, usable once per report even at millions of flows.
func (t *Tracker) Totals() Totals {
	tot := Totals{Flows: uint64(t.NumFlows()), Active: t.active}
	t.table.each(func(fs *Stats) {
		tot.Received += fs.Received
		tot.Bytes += fs.Bytes
		tot.Stamped += fs.Stamped
		tot.Lost += fs.Lost
		tot.Reordered += fs.Reordered
		tot.Duplicates += fs.Duplicates
	})
	return tot
}

// record runs the post-parse attribution for one frame of size bytes:
// counters, inter-arrival accumulation, sequence classification and
// (when latBin > 0 and the payload is stamped) latency recording. The
// latency histogram is created lazily here, on the flow's first
// sample, so flows that never carry a timestamp never pay for one.
func (fs *Stats) record(size int, payload []byte, rx sim.Time, latBin sim.Duration) {
	fs.Received++
	fs.Bytes += uint64(size)
	if fs.hasRx {
		fs.InterArrival.Add(float64(rx.Sub(fs.lastRx)))
	}
	fs.lastRx = rx
	fs.hasRx = true
	if seq, tx, stamped := ReadStamp(payload); stamped {
		fs.Stamped++
		fs.track(seq)
		if latBin > 0 && rx >= tx {
			if fs.Latency == nil {
				fs.Latency = stats.NewHistogram(latBin)
			}
			fs.Latency.Add(rx.Sub(tx))
		}
	}
}

// Record processes one received frame at its arrival instant: key
// extraction, sequence classification, inter-arrival accumulation and
// (when enabled and stamped) latency recording. It reports whether the
// frame carried a flow key. The steady state allocates nothing beyond
// first sight of a new flow.
func (t *Tracker) Record(data []byte, rx sim.Time) bool {
	k, payload, ok := Parse(data)
	if !ok {
		t.Unparsed++
		return false
	}
	fs := t.table.flow(k, k.hash())
	if fs.Received == 0 {
		t.active++
	}
	fs.record(len(data), payload, rx, t.latBin)
	return true
}
