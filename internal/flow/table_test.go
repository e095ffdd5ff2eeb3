package flow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/sim"
)

// benchFrame builds a stamped UDP frame without a *testing.T, for the
// benchmarks and the million-flow tests. The destination address and
// port are patched per flow by patchFlow.
func benchFrame() []byte {
	b := make([]byte, 60)
	p := proto.UDPPacket{B: b}
	p.Fill(proto.UDPPacketFill{
		PktLength: 60,
		IPSrc:     proto.MustIPv4("10.0.0.1"),
		IPDst:     proto.MustIPv4("10.1.0.1"),
		UDPSrc:    1234, UDPDst: 0,
	})
	return b
}

const framePayloadOff = proto.EthHdrLen + proto.IPv4HdrLen + proto.UDPHdrLen

// frameDstBase is 10.1.0.1, hoisted so patchFlow is allocation-free
// (MustIPv4 parses with strings.Split).
var frameDstBase = proto.MustIPv4("10.1.0.1")

// patchFlow rewrites the frame's flow identity in place: the low 16
// bits of fid land in the destination port, the high bits offset the
// destination address — the same fid encoding the churn scenario uses.
// Checksums are left stale; Parse does not verify them.
func patchFlow(b []byte, fid uint64) {
	binary.BigEndian.PutUint32(b[proto.EthHdrLen+16:], uint32(frameDstBase)+uint32(fid>>16))
	binary.BigEndian.PutUint16(b[proto.EthHdrLen+proto.IPv4HdrLen+2:], uint16(fid))
}

// flowKey is the Key patchFlow produces for fid.
func flowKey(fid uint64) Key {
	return Key{
		Proto:   proto.IPProtoUDP,
		Src:     proto.MustIPv4("10.0.0.1"),
		Dst:     proto.MustIPv4("10.1.0.1") + proto.IPv4(fid>>16),
		SrcPort: 1234, DstPort: uint16(fid),
	}
}

// mapTracker is the reference storage the flat table is pinned
// against: a map[Key]*Stats with one heap-allocated record per flow.
// It runs the same per-flow code as Tracker (Stats.record) and differs
// only in how records are found and allocated, so a divergence between
// the two is a storage bug.
type mapTracker struct {
	seqWindow int // power of two
	latBin    sim.Duration
	flows     map[Key]*Stats
	unparsed  uint64
	active    uint64
}

func newMapTracker(seqWindow int, latBin sim.Duration) *mapTracker {
	return &mapTracker{seqWindow: seqWindow, latBin: latBin, flows: make(map[Key]*Stats)}
}

func (m *mapTracker) flow(k Key) *Stats {
	fs, ok := m.flows[k]
	if !ok {
		fs = &Stats{Key: k, seen: make([]uint64, m.seqWindow/64), mask: uint64(m.seqWindow - 1)}
		m.flows[k] = fs
	}
	return fs
}

// Record mirrors Tracker.Record.
func (m *mapTracker) Record(data []byte, rx sim.Time) bool {
	k, payload, ok := Parse(data)
	if !ok {
		m.unparsed++
		return false
	}
	fs := m.flow(k)
	if fs.Received == 0 {
		m.active++
	}
	fs.record(len(data), payload, rx, m.latBin)
	return true
}

// flowState is the complete observable per-flow state of a tracker,
// flows sorted by key.
type flowState struct {
	flows    []*Stats
	unparsed uint64
	active   uint64
}

func (m *mapTracker) state() flowState {
	out := make([]*Stats, 0, len(m.flows))
	for _, fs := range m.flows {
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return flowState{out, m.unparsed, m.active}
}

// shardState is the state of a whole-flow-sharded run: the key-sorted
// union of the shards' flows, with unparsed and active summed. Every
// flow lives in exactly one shard, so it is comparable to an
// unsharded tracker's state.
func shardState(shards []*Tracker) flowState {
	var st flowState
	for _, tr := range shards {
		st.flows = append(st.flows, tr.Flows()...)
		st.unparsed += tr.Unparsed
		st.active += tr.ActiveFlows()
	}
	sort.Slice(st.flows, func(i, j int) bool { return st.flows[i].Key.Less(st.flows[j].Key) })
	return st
}

// requireFlowsEqual compares two trackers' complete per-flow state —
// counters, inter-arrival statistics bit for bit, and latency
// histograms bin-exact including lazy nil-ness semantics (a flow with
// no latency samples must be nil or empty in both).
func requireFlowsEqual(t *testing.T, label string, a, b flowState) {
	t.Helper()
	af, bf := a.flows, b.flows
	if len(af) != len(bf) {
		t.Fatalf("%s: flow counts differ: %d vs %d", label, len(af), len(bf))
	}
	if a.unparsed != b.unparsed {
		t.Errorf("%s: unparsed %d vs %d", label, a.unparsed, b.unparsed)
	}
	if a.active != b.active {
		t.Errorf("%s: active %d vs %d", label, a.active, b.active)
	}
	for i := range af {
		x, y := af[i], bf[i]
		if x.Key != y.Key {
			t.Fatalf("%s flow %d: key %v vs %v", label, i, x.Key, y.Key)
		}
		if x.Received != y.Received || x.Bytes != y.Bytes || x.Stamped != y.Stamped ||
			x.Lost != y.Lost || x.Reordered != y.Reordered || x.Duplicates != y.Duplicates {
			t.Errorf("%s flow %v: counters differ: %+v vs %+v", label, x.Key, x, y)
		}
		if x.InterArrival.Count() != y.InterArrival.Count() ||
			math.Float64bits(x.InterArrival.Mean()) != math.Float64bits(y.InterArrival.Mean()) ||
			math.Float64bits(x.InterArrival.Variance()) != math.Float64bits(y.InterArrival.Variance()) {
			t.Errorf("%s flow %v: inter-arrival stats differ", label, x.Key)
		}
		xc, yc := uint64(0), uint64(0)
		if x.Latency != nil {
			xc = x.Latency.Count()
		}
		if y.Latency != nil {
			yc = y.Latency.Count()
		}
		if xc != yc {
			t.Errorf("%s flow %v: latency counts differ: %d vs %d", label, x.Key, xc, yc)
			continue
		}
		if xc > 0 {
			xb, yb := x.Latency.Bins(), y.Latency.Bins()
			if len(xb) != len(yb) {
				t.Errorf("%s flow %v: latency bin counts differ", label, x.Key)
				continue
			}
			for j := range xb {
				if xb[j] != yb[j] {
					t.Errorf("%s flow %v: latency bin %d differs: %+v vs %+v", label, x.Key, j, xb[j], yb[j])
					break
				}
			}
		}
	}
}

// TestFlatMatchesReference is the flat table's property pin:
// randomized insert/record sequences — duplicate keys, gaps, unstamped
// payloads and enough distinct flows to cross several grow boundaries
// (64 → 8192 slots) — produce bit-identical per-flow state in the flat
// open-addressing Tracker and the map-based reference (mapTracker),
// with the stream sharded whole-flow-wise over Cores {1,2,4} trackers
// whose flows are compared as one key-sorted union.
func TestFlatMatchesReference(t *testing.T) {
	const F = 3000 // crosses rehash at 48, 96, ..., 3072 used slots
	rng := rand.New(rand.NewSource(23))

	type rec struct {
		fid       uint64
		seq       uint64
		at        sim.Time
		unstamped bool
	}
	var stream []rec
	next := make([]uint64, F)
	for i := 0; i < 12000; i++ {
		fid := uint64(rng.Intn(F))
		s := next[fid]
		next[fid]++
		switch rng.Intn(12) {
		case 0: // gap: skip a sequence, the flow loses one packet
			s++
			next[fid] = s + 1
		case 1: // duplicate delivery
			stream = append(stream, rec{fid, s, sim.Time(i) * 100, false})
		case 2: // unstamped packet (no sequence trailer at all)
			stream = append(stream, rec{fid, 0, sim.Time(i) * 100, true})
			continue
		}
		stream = append(stream, rec{fid, s, sim.Time(i) * 100, false})
	}

	type recorder interface {
		Record(data []byte, rx sim.Time) bool
	}
	run := func(tr recorder, shard func(fid uint64) bool) {
		buf := benchFrame()
		for _, r := range stream {
			if shard != nil && !shard(r.fid) {
				continue
			}
			patchFlow(buf, r.fid)
			if r.unstamped {
				for i := framePayloadOff; i < len(buf); i++ {
					buf[i] = 0
				}
			} else {
				Stamp(buf[framePayloadOff:], r.seq, r.at-70)
			}
			tr.Record(buf, r.at)
		}
	}

	ref := newMapTracker(64, sim.Nanosecond)
	run(ref, nil)
	want := ref.state()
	for _, cores := range []int{1, 2, 4} {
		shards := make([]*Tracker, cores)
		for s := range shards {
			shards[s] = NewTracker(Config{Latency: true, SeqWindow: 64})
			run(shards[s], func(fid uint64) bool { return int(fid)%cores == s })
		}
		requireFlowsEqual(t, fmt.Sprintf("flat cores=%d vs reference", cores), shardState(shards), want)
	}
}

// TestTableGrowthKeepsPointers pins the arena stability contract: a
// *Stats handed out before thousands of inserts (and the grows they
// force) still addresses the same live record afterwards — the
// property telemetry probes and reports rely on.
func TestTableGrowthKeepsPointers(t *testing.T) {
	tr := NewTracker(Config{SeqWindow: 64})
	early := tr.Flow(flowKey(0))
	early.Received = 77
	for fid := uint64(1); fid < 5000; fid++ {
		tr.Flow(fid2key(fid))
	}
	if got := tr.Flow(flowKey(0)); got != early {
		t.Fatalf("record moved across growth: %p vs %p", got, early)
	}
	if early.Received != 77 {
		t.Fatalf("record content lost across growth")
	}
	used, capacity := tr.TableLoad()
	if used != 5000 || capacity < 5000 {
		t.Fatalf("table load = %d/%d, want 5000 used", used, capacity)
	}
	if tr.MaxProbe() < 1 {
		t.Fatalf("maxProbe = %d, want >= 1", tr.MaxProbe())
	}
}

// fid2key is flowKey under a name the growth test can use with mixed
// port/address bits exercised.
func fid2key(fid uint64) Key { return flowKey(fid) }

// TestMillionFlowInvariance is the acceptance matrix at scale: one
// million flows, two passes each, attributed through Record with
// whole-flow sharding over Cores {1,2,4} trackers — every
// configuration must produce the same digest over the key-sorted union
// of its shards' complete per-flow state. Gated out of -short runs: it
// holds ~1M flows alive at its peak.
func TestMillionFlowInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow invariance runs in the full suite only")
	}
	const F = 1 << 20
	const passes = 2

	digest := func(shards []*Tracker) uint64 {
		h := fnv.New64a()
		var b [8]byte
		w := func(v uint64) {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		st := shardState(shards)
		for _, fs := range st.flows {
			w(uint64(fs.Key.Src))
			w(uint64(fs.Key.Dst))
			w(uint64(fs.Key.SrcPort)<<16 | uint64(fs.Key.DstPort))
			w(fs.Received)
			w(fs.Bytes)
			w(fs.Stamped)
			w(fs.Lost)
			w(fs.Reordered)
			w(fs.Duplicates)
			w(fs.InterArrival.Count())
			w(math.Float64bits(fs.InterArrival.Mean()))
			w(math.Float64bits(fs.InterArrival.Variance()))
		}
		w(st.active)
		w(uint64(len(st.flows)))
		return h.Sum64()
	}

	// Deterministic stream: pass p sends flow fid sequence p, except
	// every 7th flow skips its pass-1 packet (a permanent gap → one
	// lost) and every 5th flow duplicates its final packet.
	runConfig := func(cores int) uint64 {
		shards := make([]*Tracker, cores)
		for i := range shards {
			shards[i] = NewTracker(Config{SeqWindow: 64})
		}
		buf := benchFrame()
		emit := func(fid, seq uint64, at sim.Time) {
			patchFlow(buf, fid)
			Stamp(buf[framePayloadOff:], seq, at-70)
			shards[int(fid)%cores].Record(buf, at)
		}
		var at sim.Time
		for p := uint64(0); p < passes; p++ {
			for fid := uint64(0); fid < F; fid++ {
				at += 100
				if p == 1 && fid%7 == 0 {
					continue // permanent gap
				}
				emit(fid, p, at)
				if p == passes-1 && fid%5 == 0 {
					at += 100
					emit(fid, p, at) // duplicate
				}
			}
		}
		return digest(shards)
	}

	want := runConfig(1)
	for _, cores := range []int{2, 4} {
		if got := runConfig(cores); got != want {
			t.Fatalf("cores=%d: digest %#x, want %#x (config diverged at 1M flows)", cores, got, want)
		}
	}
}

// FuzzParse pins that arbitrary bytes never panic the parser and that
// ok=true implies a self-consistent payload slice.
func FuzzParse(f *testing.F) {
	f.Add(benchFrame())
	f.Add([]byte{})
	f.Add(make([]byte, proto.EthHdrLen+proto.IPv4HdrLen))
	truncated := benchFrame()[:proto.EthHdrLen+proto.IPv4HdrLen+2]
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, data []byte) {
		k, payload, ok := Parse(data)
		if !ok {
			return
		}
		if k.Proto != proto.IPProtoUDP && k.Proto != proto.IPProtoTCP {
			t.Fatalf("ok parse with bogus proto %d", k.Proto)
		}
		if len(payload) > len(data) {
			t.Fatalf("payload longer than frame")
		}
	})
}

// FuzzKeyRoundTrip synthesizes a frame from a fuzzed 5-tuple and pins
// that Parse recovers exactly the tuple that built it — the Key
// round-trip through the real header encoders.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add(uint32(0x0A000001), uint32(0x0A010001), uint16(1234), uint16(5678), false)
	f.Add(uint32(0), uint32(0xFFFFFFFF), uint16(0), uint16(0), true)
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, tcp bool) {
		b := make([]byte, 64)
		var want Key
		if tcp {
			p := proto.TCPPacket{B: b}
			p.Fill(proto.TCPPacketFill{
				PktLength: 64,
				IPSrc:     proto.IPv4(src), IPDst: proto.IPv4(dst),
				TCPSrc: sport, TCPDst: dport,
			})
			want = Key{Proto: proto.IPProtoTCP, Src: proto.IPv4(src), Dst: proto.IPv4(dst),
				SrcPort: sport, DstPort: dport}
		} else {
			p := proto.UDPPacket{B: b}
			p.Fill(proto.UDPPacketFill{
				PktLength: 64,
				IPSrc:     proto.IPv4(src), IPDst: proto.IPv4(dst),
				UDPSrc: sport, UDPDst: dport,
			})
			want = Key{Proto: proto.IPProtoUDP, Src: proto.IPv4(src), Dst: proto.IPv4(dst),
				SrcPort: sport, DstPort: dport}
		}
		k, _, ok := Parse(b)
		if !ok {
			t.Fatalf("synthesized frame did not parse")
		}
		if k != want {
			t.Fatalf("key round-trip: got %v, want %v", k, want)
		}
	})
}

// TestKeyHashDeterministic pins that the table hash is a pure function
// of the key (no per-process seeding): a fixed key's hash is a fixed
// constant, so slot placement and the exported table diagnostics (the
// flow.table_load_pm and flow.table_probe_max telemetry columns) are
// reproducible across runs and releases. The literals were recorded
// from the hash as it stands; a change to the mixer moves them.
func TestKeyHashDeterministic(t *testing.T) {
	for _, c := range []struct {
		fid  uint64
		want uint64
	}{
		{0, 0xb8dd49bbdd053d42},
		{12345, 0x544ee94f84757590},
		{1<<20 - 1, 0x7932dd77a599b4a9},
	} {
		if got := flowKey(c.fid).hash(); got != c.want {
			t.Errorf("flowKey(%d).hash() = %#x, want %#x", c.fid, got, c.want)
		}
	}
	if flowKey(1).hash() == flowKey(2).hash() {
		t.Fatal("adjacent fids collide — mixer is broken")
	}
}

// sameHashKey returns a key other than k with k's full 64-bit hash.
// hash mixes the tuple as x = a*phi + b (a = Src:Dst, b =
// Proto:SrcPort:DstPort) before a bijective finalizer, so raising b by
// one and lowering a by phi's inverse mod 2^64 leaves x, and with it
// the hash, unchanged.
func sameHashKey(k Key) Key {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi) // Newton's iteration doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - phi*inv
	}
	a := (uint64(k.Src)<<32 | uint64(k.Dst)) - inv
	k.Src, k.Dst = proto.IPv4(a>>32), proto.IPv4(a)
	k.DstPort++ // callers pass a DstPort below 0xffff
	return k
}

// TestTagCollisionResolvesByKey pins that keys whose hashes agree in
// their low 32 bits — the same home slot at every table size — still
// get distinct records, found by comparing the full key, across growth.
func TestTagCollisionResolvesByKey(t *testing.T) {
	// Birthday search: a pair of fids whose hashes share their low 32
	// bits turns up after about 2^16 keys.
	seen := map[uint32]uint64{}
	var ka, kb Key
	for fid := uint64(0); ; fid++ {
		low := uint32(flowKey(fid).hash())
		if prev, ok := seen[low]; ok {
			ka, kb = flowKey(prev), flowKey(fid)
			break
		}
		seen[low] = fid
	}
	t.Logf("pair %v / %v", ka, kb)
	kc := sameHashKey(ka)
	if kc == ka || kc == kb || kc.hash() != ka.hash() {
		t.Fatalf("no third key on the tag: %v vs %v", kc, ka)
	}

	// Fillers use another source port, so they never equal the pair.
	tr := NewTracker(Config{SeqWindow: 64})
	filler := func(from, to uint64) {
		for fid := from; fid < to; fid++ {
			k := flowKey(fid)
			k.SrcPort = 4321
			tr.Flow(k)
		}
	}
	grows := func(from, to uint64) {
		_, before := tr.TableLoad()
		filler(from, to)
		if _, after := tr.TableLoad(); after == before {
			t.Fatalf("fillers %d..%d did not grow the table (%d slots)", from, to, after)
		}
	}

	a := tr.Flow(ka)
	a.Received = 1
	if got, ok := tr.Lookup(kb); ok || got != nil {
		t.Fatalf("Lookup(%v) before insert = %p, want nil", kb, got)
	}
	grows(0, 100)
	b := tr.Flow(kb)
	b.Received = 2
	grows(100, 1000)

	for _, c := range []struct {
		k    Key
		fs   *Stats
		recv uint64
	}{{ka, a, 1}, {kb, b, 2}} {
		got, ok := tr.Lookup(c.k)
		if !ok || got != c.fs || got.Key != c.k || got.Received != c.recv {
			t.Fatalf("Lookup(%v) = %p (%+v), want %p with Received %d", c.k, got, got, c.fs, c.recv)
		}
	}
	if a == b {
		t.Fatal("colliding keys share one record")
	}
	if got, ok := tr.Lookup(kc); ok || got != nil {
		t.Fatalf("Lookup(%v) on the shared tag = %p, want nil", kc, got)
	}
	if tr.NumFlows() != 1002 {
		t.Fatalf("NumFlows = %d, want 1002", tr.NumFlows())
	}
}

// TestSlotIsEightBytes pins the slot layout: a 32-bit hash tag and a
// 32-bit arena reference, with the key kept only in its record.
func TestSlotIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 8 {
		t.Fatalf("slot is %d bytes, want 8", got)
	}
}
