package core

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSendAllWaitsForResumeTx: a burst longer than the descriptor ring
// of a paused port waits in SendAll until the first backoff poll that
// finds room, which is the first one after ResumeTx's pump, and the
// task wakes once for the whole wait. On the poll grid the pump that
// ResumeTx arms fires after that instant's poll, so the wait takes the
// next one.
func TestSendAllWaitsForResumeTx(t *testing.T) {
	for _, c := range []struct {
		resume, want sim.Time
	}{
		{sim.Time(10*sim.Microsecond + 300*sim.Nanosecond), sim.Time(11 * sim.Microsecond)},
		{sim.Time(10 * sim.Microsecond), sim.Time(11 * sim.Microsecond)},
		{sim.Time(0), sim.Time(1 * sim.Microsecond)},
	} {
		app := NewApp(1)
		tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0, TxRing: 8})
		rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
		app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
		tx.Port.PauseTx()
		app.Eng.Schedule(c.resume, tx.Port.ResumeTx)

		pool := CreateMemPool(64, udpPrefill(60))
		bufs := make([]*mempool.Mbuf, 16)
		var sent int
		var done sim.Time
		var wakes uint64
		app.LaunchTask("sender", func(task *Task) {
			for i := range bufs {
				bufs[i] = pool.Alloc(60)
			}
			w0 := app.Eng.SchedStats().ProcWakes
			sent = task.SendAll(tx.GetTxQueue(0), bufs)
			done, wakes = task.Now(), app.Eng.SchedStats().ProcWakes-w0
		})
		app.RunFor(sim.Millisecond)
		rx.PullRx()
		if sent != len(bufs) || done != c.want || wakes != 1 {
			t.Errorf("resume at %v: SendAll sent %d at %v after %d task wakes, want %d at %v after 1",
				c.resume, sent, done, wakes, len(bufs), c.want)
		}
		if got := rx.CounterSnapshot().RxPackets; got != uint64(len(bufs)) {
			t.Errorf("resume at %v: %d frames received, want %d", c.resume, got, len(bufs))
		}
	}
}

// TestProbeLostAtDeadlinePoll: a probe whose frame never arrives (the
// link is down) counts Lost at the first backoff poll at or after its
// deadline, and the timestamper task wakes once for the whole wait.
func TestProbeLostAtDeadlinePoll(t *testing.T) {
	app := NewApp(6)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	tx.Port.Link().SetDown()

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	ts.Timeout = 100*sim.Microsecond + 500*sim.Nanosecond
	var ok bool
	var done sim.Time
	var wakes uint64
	app.LaunchTask("timestamper", func(task *Task) {
		w0 := app.Eng.SchedStats().ProcWakes
		_, ok = ts.Probe(task)
		done, wakes = task.Now(), app.Eng.SchedStats().ProcWakes-w0
	})
	app.RunFor(sim.Millisecond)
	if want := sim.Time(101 * sim.Microsecond); ok || ts.Lost != 1 || done != want || wakes != 1 {
		t.Fatalf("lost probe: ok %v, Lost %d, returned at %v after %d task wakes; want false, 1, %v, 1",
			ok, ts.Lost, done, wakes, want)
	}
	if got := tx.Port.Link().DroppedFrames; got != 1 {
		t.Fatalf("link dropped %d frames, want the probe", got)
	}
}
