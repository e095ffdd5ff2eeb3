package nic_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rxFrame is what a payload receiver read of one frame.
type rxFrame struct {
	data    []byte
	arrival int64
	stamp   int64
	stamped bool
}

// rxView is one burst a payload receiver saw, frame by frame.
type rxView struct {
	now    sim.Time
	frames []rxFrame
}

// readBurst copies what a receiver reads off a burst.
func readBurst(bufs []*mempool.Mbuf, now sim.Time) rxView {
	v := rxView{now: now}
	for _, m := range bufs {
		v.frames = append(v.frames, rxFrame{bytes.Clone(m.Payload()), m.RxMeta.Arrival,
			m.RxMeta.Timestamp, m.RxMeta.HasTimestamp})
	}
	return v
}

// copyingRx is the reference receive path a payload queue replaces: a
// deliver hook copies every admitted frame into a buffer of a mempool
// of the port's RxPoolSize, with its arrival instant and, on a chip
// that timestamps every packet, its hardware timestamp, and queues it
// on a ring of the port's descriptors. A dry pool or a full ring drops
// the frame. Its drain follows core.PollRx's loop and frees a burst's
// buffers once the receiver has read it.
type copyingRx struct {
	port   *nic.Port
	pool   *mempool.Pool
	ring   []*mempool.Mbuf
	size   int
	stamp  bool
	missed uint64
}

func (r *copyingRx) deliver(f *wire.Frame, at sim.Time) bool {
	m := r.pool.Alloc(len(f.Data))
	if m == nil {
		r.missed++
		return true
	}
	copy(m.Data, f.Data)
	m.RxMeta.Arrival = int64(at)
	if r.stamp {
		m.RxMeta.Timestamp, m.RxMeta.HasTimestamp = int64(r.port.Clock.TimestampAt(at)), true
	}
	if len(r.ring) == r.size {
		r.missed++
		m.Free()
		return true
	}
	r.ring = append(r.ring, m)
	return true
}

// drain is PollRx.Run over the copying path, at c's batch and poll and
// the given Drain grace.
func (r *copyingRx) drain(t *core.Task, c rxCase, grace sim.Duration, seen func(rxView)) {
	deadline := sim.Never
	for {
		r.port.PullRx()
		if n := min(c.batch, len(r.ring)); n > 0 {
			seen(readBurst(r.ring[:n], t.Now()))
			r.port.PullRx()
			for _, m := range r.ring[:n] {
				m.Free()
			}
			r.ring = r.ring[n:]
			continue
		}
		if !t.Running() {
			if deadline == sim.Never {
				deadline = t.Now().Add(grace)
			}
			if t.Now() >= deadline {
				return
			}
		}
		t.Sleep(c.poll)
	}
}

// TestPayloadViewsMatchCopyingReceiver is the differential test of the
// payload queue against the copying path it replaced: over the same
// seeded arrivals, drained at the same batch and poll, a receiver reads
// the same bursts at the same instants, with the same bytes, arrival
// instants and 82580 hardware timestamps in every frame, and the
// same frames are missed, whether a dry pool or a full ring drops
// them. After the drain every frame is released: the port's free
// receive buffers are its whole pool again.
func TestPayloadViewsMatchCopyingReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var dry, full int
	for i := 0; i < 12; i++ {
		c := rxCase{
			seed:  int64(100 + i),
			ring:  []int{4, 16, 32}[i%3],
			batch: 1 + rng.Intn(32),
			poll:  sim.Duration(5+rng.Intn(40)) * sim.Microsecond,
			pool:  []int{3, 12, 4096}[i%3],
		}
		if i%2 == 1 {
			c.chip = nic.Chip82580
		}

		var got, want []rxView
		var free int
		k := &core.PollRx{Drain: core.FlowDrain, Burst: func(bufs []*mempool.Mbuf, now sim.Time) {
			got = append(got, readBurst(bufs, now))
		}}
		gotStats := receiveArrivals(c, func(t *core.Task, rx *core.Device) {
			runKernel(c, k)(t, rx)
			free = rx.RxPoolAvail()
		})

		var missed uint64
		wantStats := receiveArrivals(c, func(t *core.Task, rx *core.Device) {
			ref := &copyingRx{port: rx.Port, pool: mempool.New(mempool.Config{Count: c.pool}),
				size: c.ring, stamp: c.chip.TimestampAllRx}
			rx.SetDeliverHook(ref.deliver)
			ref.drain(t, c, core.FlowDrain, func(v rxView) { want = append(want, v) })
			missed = ref.missed
		})
		wantStats.RxMissed = missed // the hook takes the frames the port would miss

		if gotStats != wantStats {
			t.Fatalf("%v: registers %+v, copying path %+v", c, gotStats, wantStats)
		}
		switch {
		case gotStats.RxMissed == 0:
		case c.pool < c.ring:
			dry++
		default:
			full++
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d bursts, copying path %d", c, len(got), len(want))
		}
		for b := range want {
			g, w := got[b], want[b]
			if g.now != w.now || len(g.frames) != len(w.frames) {
				t.Fatalf("%v: burst %d of %d frames at %v, copying path %d at %v",
					c, b, len(g.frames), g.now, len(w.frames), w.now)
			}
			for f := range w.frames {
				gf, wf := g.frames[f], w.frames[f]
				if !bytes.Equal(gf.data, wf.data) || gf.arrival != wf.arrival ||
					gf.stamp != wf.stamp || gf.stamped != wf.stamped {
					t.Fatalf("%v: burst %d frame %d differs from the copying path", c, b, f)
				}
				if gf.stamped != c.chip.TimestampAllRx {
					t.Fatalf("%v: frame stamped %v on %q", c, gf.stamped, c.chip.Name)
				}
			}
		}
		if free != c.pool {
			t.Errorf("%v: %d receive buffers free after the drain, want all %d", c, free, c.pool)
		}
	}
	if dry == 0 || full == 0 {
		t.Fatalf("%d cases dropped at a dry pool, %d at a full ring", dry, full)
	}
}
