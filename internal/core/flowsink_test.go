package core

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestFlowSinkDetectsMultiQueueReorder reproduces the physical cause
// of intra-flow reordering the paper's §3.3 queue model implies: one
// flow sprayed across two independent transmit queues. Each pair is
// enqueued odd-sequence-first on queue 1 / even on queue 0; the MAC's
// round-robin arbiter serves queue 0 first at equal eligibility, so
// every pair leaves the wire in swapped order and the receive-side
// tracker must attribute exactly one reorder per pair — with zero
// loss and zero duplicates.
func TestFlowSinkDetectsMultiQueueReorder(t *testing.T) {
	const pairs = 100
	app := NewApp(31)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0, TxQueues: 2})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: 2048, RxPool: 4096})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	pool := CreateMemPool(1024, func(m *mempool.Mbuf) {
		p := proto.UDPPacket{B: m.Data[:60]}
		p.Fill(proto.UDPPacketFill{
			PktLength: 60,
			EthSrc:    tx.MAC(), EthDst: rx.MAC(),
			IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1"),
			UDPSrc: 1234, UDPDst: 5000,
		})
	})
	const payloadOff = proto.EthHdrLen + proto.IPv4HdrLen + proto.UDPHdrLen

	app.LaunchTask("spray", func(tk *Task) {
		for i := 0; i < pairs && tk.Running(); i++ {
			even, odd := pool.Alloc(60), pool.Alloc(60)
			if even == nil || odd == nil {
				t.Error("pool dry")
				return
			}
			flow.Stamp(even.Payload()[payloadOff:], uint64(2*i), tk.Now())
			flow.Stamp(odd.Payload()[payloadOff:], uint64(2*i+1), tk.Now())
			// Enqueue the odd sequence on queue 1 and the even one on
			// queue 0 in the same instant: the arbiter scans from queue
			// 0, so the odd-numbered packet (queue 0) wins the wire.
			if !tx.GetTxQueue(1).SendOne(even) || !tx.GetTxQueue(0).SendOne(odd) {
				t.Error("descriptor ring full")
				return
			}
			tk.Sleep(10 * sim.Microsecond) // drain the pair before the next
		}
	})

	tr := flow.NewTracker(flow.Config{})
	sink := &PollRx{Queue: rx.GetRxQueue(0), Batch: 32, Drain: FlowDrain, Burst: TrackFlows(tr)}
	app.LaunchTask("sink", sink.Run)
	app.RunFor(5 * sim.Millisecond)

	key := flow.Key{Proto: proto.IPProtoUDP,
		Src: proto.MustIPv4("10.0.0.1"), Dst: proto.MustIPv4("10.1.0.1"),
		SrcPort: 1234, DstPort: 5000}
	fs, ok := tr.Lookup(key)
	if !ok {
		t.Fatal("flow not tracked")
	}
	if fs.Received != 2*pairs {
		t.Fatalf("received %d, want %d", fs.Received, 2*pairs)
	}
	if fs.Reordered != pairs {
		t.Fatalf("reordered = %d, want %d (one per queue-interleaved pair)", fs.Reordered, pairs)
	}
	if fs.Lost != 0 || fs.Duplicates != 0 {
		t.Fatalf("lost/dup = %d/%d, want 0/0", fs.Lost, fs.Duplicates)
	}
	if sink.Received != 2*pairs {
		t.Fatalf("sink drained %d, want %d", sink.Received, 2*pairs)
	}
}

// TestFlowSinkBatchInvariant: the sink's receive burst size only
// groups the drain — per-flow counts are identical at Batch 1 and 32.
func TestFlowSinkBatchInvariant(t *testing.T) {
	run := func(batch int) (uint64, uint64, uint64) {
		app := NewApp(32)
		tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
		rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1, RxRing: 4096, RxPool: 8192})
		app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
		pool := CreateMemPool(2048, func(m *mempool.Mbuf) {
			p := proto.UDPPacket{B: m.Data[:60]}
			p.Fill(proto.UDPPacketFill{
				PktLength: 60,
				EthSrc:    tx.MAC(), EthDst: rx.MAC(),
				IPSrc: proto.MustIPv4("10.0.0.1"), IPDst: proto.MustIPv4("10.1.0.1"),
				UDPSrc: 1234, UDPDst: 6000,
			})
		})
		const payloadOff = proto.EthHdrLen + proto.IPv4HdrLen + proto.UDPHdrLen
		app.LaunchTask("tx", func(tk *Task) {
			var seq uint64
			src := &BurstTx{Queue: tx.GetTxQueue(0), Bufs: pool.BufArray(16), Size: 60,
				Frame: func(m *mempool.Mbuf, _ uint64) {
					// Every 10th sequence number is skipped: a known
					// deterministic loss signal.
					if seq%10 == 9 {
						seq++
					}
					flow.Stamp(m.Payload()[payloadOff:], seq, tk.Now())
					seq++
				}}
			src.Run(tk)
		})
		tr := flow.NewTracker(flow.Config{})
		sink := &PollRx{Queue: rx.GetRxQueue(0), Batch: batch, Drain: FlowDrain, Burst: TrackFlows(tr)}
		app.LaunchTask("sink", sink.Run)
		app.RunFor(2 * sim.Millisecond)
		fs := tr.Flows()[0]
		return fs.Received, fs.Lost, fs.Reordered
	}
	r1, l1, o1 := run(1)
	r32, l32, o32 := run(32)
	if r1 == 0 || l1 == 0 {
		t.Fatalf("no traffic or no skip-loss: received %d lost %d", r1, l1)
	}
	if r1 != r32 || l1 != l32 || o1 != o32 {
		t.Fatalf("batch=1 (%d/%d/%d) differs from batch=32 (%d/%d/%d)", r1, l1, o1, r32, l32, o32)
	}
}
