package wire

import (
	"testing"

	"repro/internal/sim"
)

// downEndpoint counts pulled deliveries and remembers the last
// receive instant.
type downEndpoint struct {
	delivered uint64
	lastRx    sim.Time
}

func (d *downEndpoint) DeliverFrame(f *Frame, at sim.Time) {
	d.delivered++
	d.lastRx = at
}

// transmit puts f on the wire now.
func transmit(l *Link, f *Frame) sim.Time { return l.TransmitAt(f, l.eng.Now()) }

func frame64() *Frame {
	return &Frame{Data: make([]byte, 60), WireSize: 64, CRCOK: true}
}

// TestLinkDownDropsInFlightOnce: taking the link down drains the
// in-flight FIFO — each pending frame counted exactly once — and a
// later pull finds nothing left to deliver.
func TestLinkDownDropsInFlightOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	ep := &downEndpoint{}
	l := NewLink(eng, Speed10G, PHY10GBaseSR, 2, ep) // fiber: ~320 ns path, no jitter

	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.SleepUntil(l.NextTxSlot())
			transmit(l, frame64())
		}
	})
	// All three frames serialize within ~202 ns; their receive instants
	// sit past 320 ns. Kill the link at 250 ns: every frame is on the
	// wire and none has arrived.
	eng.Schedule(sim.Time(250*sim.Nanosecond), func() {
		l.SetDown()
		l.SetDown() // idempotent: a second call must not recount
	})
	eng.RunAll()
	l.Pull()

	if ep.delivered != 0 {
		t.Fatalf("delivered %d frames across a dead wire", ep.delivered)
	}
	if l.DroppedFrames != 3 {
		t.Fatalf("dropped %d, want all 3 in-flight frames exactly once", l.DroppedFrames)
	}
	if l.TxFrames != ep.delivered+l.DroppedFrames {
		t.Fatalf("tx %d != delivered %d + dropped %d", l.TxFrames, ep.delivered, l.DroppedFrames)
	}

	// Recovery: SetUp restores normal delivery and the counters keep
	// reconciling.
	l.SetUp()
	eng.Spawn("tx2", func(p *sim.Proc) {
		p.SleepUntil(l.NextTxSlot())
		transmit(l, frame64())
	})
	eng.RunAll()
	l.Pull()
	if ep.delivered != 1 {
		t.Fatalf("delivered %d after SetUp, want 1", ep.delivered)
	}
	if l.TxFrames != ep.delivered+l.DroppedFrames {
		t.Fatalf("post-recovery: tx %d != delivered %d + dropped %d", l.TxFrames, ep.delivered, l.DroppedFrames)
	}
}

// TestLinkDownKeepsSerializationGrid: the TX grid (busyUntil) must
// advance identically whether the wire is alive or dead — the MAC
// scheduler's timing may not depend on link state, which is what makes
// link-flap runs invariant in batch and train size.
func TestLinkDownKeepsSerializationGrid(t *testing.T) {
	run := func(flap bool) ([]sim.Time, *Link, *downEndpoint) {
		eng := sim.NewEngine(3)
		ep := &downEndpoint{}
		l := NewLink(eng, Speed10G, PHY10GBaseT, 2, ep) // copper: jitter path
		var slots []sim.Time
		if flap {
			eng.Schedule(sim.Time(20*sim.Microsecond), l.SetDown)
			eng.Schedule(sim.Time(50*sim.Microsecond), l.SetUp)
		}
		eng.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				p.SleepUntil(l.NextTxSlot())
				if i%5 == 0 { // idle gaps: grid leaves and rejoins the busy edge
					p.Sleep(400 * sim.Nanosecond)
				}
				slots = append(slots, l.NextTxSlot())
				transmit(l, frame64())
			}
		})
		eng.RunAll()
		l.Pull()
		return slots, l, ep
	}
	ref, refLink, refEp := run(false)
	got, gotLink, gotEp := run(true)
	if len(ref) != len(got) {
		t.Fatalf("slot counts differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("slot %d: %v with flap vs %v without — the grid noticed the link state", i, got[i], ref[i])
		}
	}
	if refEp.delivered != refLink.TxFrames || refLink.DroppedFrames != 0 {
		t.Fatalf("reference run lost frames: tx %d delivered %d dropped %d",
			refLink.TxFrames, refEp.delivered, refLink.DroppedFrames)
	}
	if gotLink.DroppedFrames == 0 {
		t.Fatal("flap run dropped nothing")
	}
	if gotLink.TxFrames != gotEp.delivered+gotLink.DroppedFrames {
		t.Fatalf("flap run: tx %d != delivered %d + dropped %d",
			gotLink.TxFrames, gotEp.delivered, gotLink.DroppedFrames)
	}
}
