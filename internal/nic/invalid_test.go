package nic

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/mempool"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// tapFrame is one frame as a link handed it to its endpoint.
type tapFrame struct {
	data     []byte
	wireSize int
	crcOK    bool
}

// tap is an endpoint that records every frame it is handed.
type tap struct{ frames []tapFrame }

func (t *tap) DeliverFrame(f *wire.Frame, _ sim.Time) {
	t.frames = append(t.frames, tapFrame{slices.Clone(f.Data), f.WireSize, f.CRCOK})
}

// sendInvalidMix queues a 730-byte bad-FCS filler (the CRC-gap method's
// gap frame), a 40-byte runt with a good FCS and a 124-byte UDP frame,
// and returns a copy of the UDP frame's bytes.
func sendInvalidMix(eng *sim.Engine, q *TxQueue) []byte {
	pool := mempool.New(mempool.Config{Count: 8})
	filler := makeUDP(pool, 730, 1)
	filler.TxMeta.InvalidCRC = true
	runt := pool.Alloc(40)
	proto.EthHdr(runt.Payload()).Fill(proto.EthFill{EtherType: proto.EtherTypeIPv4})
	valid := makeUDP(pool, 124, 3)
	want := slices.Clone(valid.Payload())
	eng.Schedule(0, func() {
		q.SendOne(filler)
		q.SendOne(runt)
		q.SendOne(valid)
	})
	return want
}

// TestInvalidFramesCarryNoPayload: a frame the receiving MAC drops
// unread reaches it without a payload, while its wire size, the link's
// byte count and the receiver's error counter are those of the frame
// with its bytes (the values are pinned from the model that copied
// them). A valid frame sent between them arrives byte for byte.
func TestInvalidFramesCarryNoPayload(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewPort(eng, PortConfig{Profile: ChipX540, ID: 0})
	rec := &tap{}
	link := wire.NewLink(eng, a.Speed(), wire.PHY10GBaseT, 2, rec)
	a.Connect(link)
	want := sendInvalidMix(eng, a.GetTxQueue(0))
	eng.RunAll()
	link.Pull()

	if len(rec.frames) != 3 {
		t.Fatalf("the link delivered %d frames, want 3", len(rec.frames))
	}
	for i, c := range []struct {
		wireSize int
		crcOK    bool
	}{{734, false}, {44, true}, {128, true}} {
		f := rec.frames[i]
		if f.wireSize != c.wireSize || f.crcOK != c.crcOK {
			t.Errorf("frame %d: wire size %d, FCS ok %v; want %d, %v", i, f.wireSize, f.crcOK, c.wireSize, c.crcOK)
		}
	}
	if len(rec.frames[0].data) != 0 || len(rec.frames[1].data) != 0 {
		t.Errorf("invalid frames carry %d and %d payload bytes, want none",
			len(rec.frames[0].data), len(rec.frames[1].data))
	}
	if !bytes.Equal(rec.frames[2].data, want) {
		t.Errorf("valid frame arrived as %x, want %x", rec.frames[2].data, want)
	}
	if link.TxFrames != 3 || link.TxBytes != 906 {
		t.Errorf("link counted %d frames, %d bytes; want 3, 906", link.TxFrames, link.TxBytes)
	}
	if st := a.CounterSnapshot(); st.TxPackets != 3 || st.TxBytes != 894 {
		t.Errorf("sender counted %d packets, %d bytes; want 3, 894", st.TxPackets, st.TxBytes)
	}

	// The same frames into a peer port: two errors, one packet.
	eng2, a2, b2 := testPair(t, 1)
	sendInvalidMix(eng2, a2.GetTxQueue(0))
	eng2.RunAll()
	if st := b2.CounterSnapshot(); st.RxCRCErrors != 2 || st.RxPackets != 1 || st.RxBytes != 124 {
		t.Errorf("receiver counted %d errors, %d packets, %d bytes; want 2, 1, 124",
			st.RxCRCErrors, st.RxPackets, st.RxBytes)
	}
	if l := a2.Link(); l.TxBytes != 906 {
		t.Errorf("peer link counted %d bytes, want 906", l.TxBytes)
	}
}
