package flow

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
)

// mkUDP builds a UDP frame for flow f carrying a stamped sequence.
func mkUDP(t *testing.T, dstPort uint16, seq uint64, tx sim.Time) []byte {
	t.Helper()
	b := make([]byte, 60)
	p := proto.UDPPacket{B: b}
	p.Fill(proto.UDPPacketFill{
		PktLength: 60,
		IPSrc:     proto.MustIPv4("10.0.0.1"),
		IPDst:     proto.MustIPv4("10.1.0.1"),
		UDPSrc:    1234, UDPDst: dstPort,
	})
	if !Stamp(p.Payload(), seq, tx) {
		t.Fatal("stamp did not fit")
	}
	return b
}

func TestParseAndStampRoundTrip(t *testing.T) {
	b := mkUDP(t, 5000, 42, 12345)
	k, payload, ok := Parse(b)
	if !ok {
		t.Fatal("parse failed")
	}
	want := Key{Proto: proto.IPProtoUDP,
		Src: proto.MustIPv4("10.0.0.1"), Dst: proto.MustIPv4("10.1.0.1"),
		SrcPort: 1234, DstPort: 5000}
	if k != want {
		t.Fatalf("key = %v, want %v", k, want)
	}
	seq, tx, ok := ReadStamp(payload)
	if !ok || seq != 42 || tx != 12345 {
		t.Fatalf("stamp = (%d, %v, %v), want (42, 12345, true)", seq, tx, ok)
	}

	// Non-flow traffic parses to ok=false.
	arp := make([]byte, 60)
	proto.EthHdr(arp).Fill(proto.EthFill{EtherType: proto.EtherTypeARP})
	if _, _, ok := Parse(arp); ok {
		t.Fatal("ARP frame parsed as a flow")
	}
	// An unstamped payload reads back ok=false.
	plain := mkUDP(t, 5000, 0, 0)
	_, pl, _ := Parse(plain)
	for i := range pl {
		pl[i] = 0
	}
	if _, _, ok := ReadStamp(pl); ok {
		t.Fatal("unstamped payload read as a stamp")
	}
}

// TestSequenceClassification drives the canonical patterns through one
// flow and checks the verdicts.
func TestSequenceClassification(t *testing.T) {
	cases := []struct {
		name                  string
		seqs                  []uint64
		lost, reordered, dups uint64
	}{
		{"in-order", []uint64{0, 1, 2, 3, 4}, 0, 0, 0},
		{"gap", []uint64{0, 1, 4, 5}, 2, 0, 0},
		{"late-fill", []uint64{0, 1, 3, 2, 4}, 0, 1, 0},
		{"duplicate", []uint64{0, 1, 1, 2}, 0, 0, 1},
		{"leading-loss", []uint64{3, 4, 5}, 3, 0, 0},
		{"leading-loss-filled", []uint64{3, 1, 4}, 2, 1, 0},
		{"swap-pairs", []uint64{1, 0, 3, 2}, 0, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTracker(Config{})
			for i, s := range c.seqs {
				tr.Record(mkUDP(t, 7, s, 0), sim.Time(i)*1000)
			}
			fs, ok := tr.Lookup(Key{Proto: proto.IPProtoUDP,
				Src: proto.MustIPv4("10.0.0.1"), Dst: proto.MustIPv4("10.1.0.1"),
				SrcPort: 1234, DstPort: 7})
			if !ok {
				t.Fatal("flow not tracked")
			}
			if fs.Lost != c.lost || fs.Reordered != c.reordered || fs.Duplicates != c.dups {
				t.Fatalf("lost/reordered/dups = %d/%d/%d, want %d/%d/%d",
					fs.Lost, fs.Reordered, fs.Duplicates, c.lost, c.reordered, c.dups)
			}
			if fs.Received != uint64(len(c.seqs)) || fs.Stamped != uint64(len(c.seqs)) {
				t.Fatalf("received/stamped = %d/%d, want %d", fs.Received, fs.Stamped, len(c.seqs))
			}
		})
	}
}

// TestSeqWindowStraggler: a late arrival from beyond the window counts
// as reordered without touching the (unknowable) loss estimate.
func TestSeqWindowStraggler(t *testing.T) {
	tr := NewTracker(Config{SeqWindow: 64})
	tr.Record(mkUDP(t, 9, 0, 0), 0)
	tr.Record(mkUDP(t, 9, 200, 0), 1)
	fs := tr.Flow(Key{Proto: proto.IPProtoUDP,
		Src: proto.MustIPv4("10.0.0.1"), Dst: proto.MustIPv4("10.1.0.1"),
		SrcPort: 1234, DstPort: 9})
	if fs.Lost != 199 {
		t.Fatalf("lost = %d, want 199", fs.Lost)
	}
	tr.Record(mkUDP(t, 9, 5, 0), 2) // straggler far outside the window
	if fs.Reordered != 1 || fs.Lost != 199 {
		t.Fatalf("after straggler: lost/reordered = %d/%d, want 199/1", fs.Lost, fs.Reordered)
	}
}

// TestInterArrivalAndLatency checks the streaming statistics.
func TestInterArrivalAndLatency(t *testing.T) {
	tr := NewTracker(Config{Latency: true})
	for i := 0; i < 10; i++ {
		// Sent at t=i·1000, received 500 later: constant 1000 ps
		// inter-arrival, constant 500 ps latency.
		tr.Record(mkUDP(t, 11, uint64(i), sim.Time(i)*1000), sim.Time(i)*1000+500)
	}
	fs := tr.Flows()[0]
	if n := fs.InterArrival.Count(); n != 9 {
		t.Fatalf("inter-arrival count = %d, want 9", n)
	}
	if m := fs.InterArrival.Mean(); m != 1000 {
		t.Fatalf("inter-arrival mean = %v, want 1000", m)
	}
	if fs.Latency.Count() != 10 || fs.Latency.Max() != 500 || fs.Latency.Min() != 500 {
		t.Fatalf("latency count/min/max = %d/%v/%v", fs.Latency.Count(), fs.Latency.Min(), fs.Latency.Max())
	}
}

// TestFlowsDeterministicOrder: report iteration is sorted by key, not
// by map or arrival order.
func TestFlowsDeterministicOrder(t *testing.T) {
	tr := NewTracker(Config{})
	for _, port := range []uint16{9, 3, 7, 1} {
		tr.Record(mkUDP(t, port, 0, 0), 0)
	}
	flows := tr.Flows()
	for i := 1; i < len(flows); i++ {
		if !flows[i-1].Key.Less(flows[i].Key) {
			t.Fatalf("flows not sorted: %v before %v", flows[i-1].Key, flows[i].Key)
		}
	}
}
