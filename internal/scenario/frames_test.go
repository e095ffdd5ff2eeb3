package scenario_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestEmittedFrameDigests pins every byte the Listing 2 flood puts on
// the wire, and when: each transmitted frame's wire start instant,
// length and bytes (checksums as the wire carries them) are hashed in
// departure order. The runs are long enough that every pool buffer is
// sent several times, so recycled buffers — which keep their contents,
// checksums included — are covered as well as first uses. Every UDP
// frame must also carry valid IPv4 and UDP checksums, and every TCP
// frame valid IPv4 and TCP checksums and its template's sequence
// number (0).
func TestEmittedFrameDigests(t *testing.T) {
	for _, c := range []struct {
		name, scenario string
		spec           func(scenario.Spec) scenario.Spec
		frames         int
		digest         string
	}{
		{"flood", "flood", func(s scenario.Spec) scenario.Spec {
			s.Runtime = 2 * sim.Millisecond
			return s
		}, 30784, "db58c23f2855279d78c79126d9d819b8f7e4cc01bbe64c1e8a89fbf0fa331c04"},
		// A TCP flow through the same flood hook.
		{"flood-tcp", "flood", func(s scenario.Spec) scenario.Spec {
			s.Runtime = 2 * sim.Millisecond
			f := scenario.DefaultFlow()
			f.L4 = "tcp"
			s.Flows = []scenario.Flow{f}
			return s
		}, 30784, "ea5383dbefdfc62172723c1831fd7403bb6d93bde34746bf831a65e4df8cdf07"},
		// Both flows well above their defaults, so each flow's 4096
		// buffer pool is recycled within the run.
		{"qos", "qos", func(s scenario.Spec) scenario.Spec {
			s.Runtime = 10 * sim.Millisecond
			s.Flows = append([]scenario.Flow(nil), s.Flows...)
			s.Flows[0].RateMpps, s.Flows[1].RateMpps = 2, 5
			return s
		}, 69654, "58b03e6baaf9c4828919fea5d672db8a799626eab5cddfcef0f96d8939fa4825"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, ok := scenario.Get(c.scenario)
			if !ok {
				t.Fatalf("scenario %q not registered", c.scenario)
			}
			spec := c.spec(sc.DefaultSpec())
			spec.Seed = 1
			env := scenario.NewEnv(spec, io.Discard)
			h := sha256.New()
			frames := 0
			var hdr [10]byte
			env.TX().SetTxTrace(func(_ *nic.TxQueue, m *mempool.Mbuf, at sim.Time) {
				data := m.Payload()
				binary.BigEndian.PutUint64(hdr[:8], uint64(at))
				binary.BigEndian.PutUint16(hdr[8:], uint16(len(data)))
				h.Write(hdr[:])
				h.Write(data)
				frames++
				pkt := proto.UDPPacket{B: data}
				if pkt.Eth().EtherType() != proto.EtherTypeIPv4 {
					return
				}
				switch pkt.IP().Protocol() {
				case proto.IPProtoUDP:
					if !pkt.VerifyChecksums() {
						t.Errorf("frame %d at %v: invalid IPv4 or UDP checksum", frames, at)
					}
				case proto.IPProtoTCP:
					tcp := proto.TCPPacket{B: data}
					if seq := binary.BigEndian.Uint32(tcp.TCP()[4:8]); !tcp.VerifyChecksums() || seq != 0 {
						t.Errorf("frame %d at %v: TCP checksums valid %v, sequence number %#x", frames, at, tcp.VerifyChecksums(), seq)
					}
				}
			})
			if _, err := sc.Run(env); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); frames != c.frames || got != c.digest {
				t.Fatalf("%d frames, digest %s; want %d frames, digest %s", frames, got, c.frames, c.digest)
			}
		})
	}
}
