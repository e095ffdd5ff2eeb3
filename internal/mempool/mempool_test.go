package mempool

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoolAllocFree(t *testing.T) {
	p := New(Config{Count: 4, BufSize: 128})
	if p.Count() != 4 || p.Available() != 4 {
		t.Fatalf("count=%d avail=%d", p.Count(), p.Available())
	}
	m := p.Alloc(64)
	if m == nil {
		t.Fatal("alloc failed")
	}
	if m.Len != 64 || len(m.Data) != 128 {
		t.Fatalf("len=%d room=%d", m.Len, len(m.Data))
	}
	if p.Available() != 3 {
		t.Fatalf("avail = %d", p.Available())
	}
	m.Free()
	if p.Available() != 4 {
		t.Fatalf("avail after free = %d", p.Available())
	}
	allocs, frees := p.Stats()
	if allocs != 1 || frees != 1 {
		t.Fatalf("stats = %d, %d", allocs, frees)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := New(Config{Count: 2, BufSize: 64})
	a := p.Alloc(60)
	b := p.Alloc(60)
	if a == nil || b == nil {
		t.Fatal("allocs failed")
	}
	if c := p.Alloc(60); c != nil {
		t.Fatal("alloc from exhausted pool succeeded")
	}
	a.Free()
	if c := p.Alloc(60); c == nil {
		t.Fatal("alloc after free failed")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New(Config{Count: 1, BufSize: 64})
	m := p.Alloc(60)
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free()
}

func TestPrefillRunsOncePerBuffer(t *testing.T) {
	calls := 0
	p := New(Config{Count: 8, BufSize: 64, Prefill: func(m *Mbuf) {
		calls++
		m.Data[0] = 0xAB
	}})
	if calls != 8 {
		t.Fatalf("prefill ran %d times, want 8", calls)
	}
	m := p.Alloc(60)
	if m.Data[0] != 0xAB {
		t.Fatal("prefilled contents missing after alloc")
	}
}

// TestContentsSurviveRecycling encodes the paper's §4.2 observation that
// buffer recycling does not erase packet contents: pre-filled fields
// written once at pool creation persist across alloc/free cycles.
func TestContentsSurviveRecycling(t *testing.T) {
	p := New(Config{Count: 2, BufSize: 64, Prefill: func(m *Mbuf) {
		copy(m.Data, []byte{1, 2, 3, 4})
	}})
	for i := 0; i < 10; i++ {
		m := p.Alloc(60)
		if m.Data[0] != 1 || m.Data[3] != 4 {
			t.Fatalf("iteration %d: prefill lost", i)
		}
		m.Data[0] = 1 // tx loop only touches changing fields
		m.Free()
	}
}

func TestResetClearsTxMeta(t *testing.T) {
	p := New(Config{Count: 1, BufSize: 64})
	m := p.Alloc(60)
	m.TxMeta.OffloadUDPChecksum = true
	m.TxMeta.InvalidCRC = true
	m.Free()
	m = p.Alloc(60)
	if m.TxMeta.OffloadUDPChecksum || m.TxMeta.InvalidCRC {
		t.Fatal("TxMeta survived recycling")
	}
}

func TestResetOversizePanics(t *testing.T) {
	p := New(Config{Count: 1, BufSize: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize alloc did not panic")
		}
	}()
	p.Alloc(65)
}

func TestAllocBatch(t *testing.T) {
	p := New(Config{Count: 10, BufSize: 64})
	out := make([]*Mbuf, 8)
	if n := p.AllocBatch(out, 60); n != 8 {
		t.Fatalf("batch alloc = %d", n)
	}
	out2 := make([]*Mbuf, 8)
	if n := p.AllocBatch(out2, 60); n != 2 {
		t.Fatalf("second batch alloc = %d, want 2", n)
	}
}

// TestAllocBatchExhaustion: a burst comes up short only when the pool
// is dry, and recovers after a free.
func TestAllocBatchExhaustion(t *testing.T) {
	p := New(Config{Count: 16})
	ba := p.BufArray(32)
	if n := ba.Alloc(60); n != 16 {
		t.Fatalf("Alloc on small pool = %d, want 16", n)
	}
	out := ba.Slice(16)
	dry := make([]*Mbuf, 4)
	if n := p.AllocBatch(dry, 60); n != 0 {
		t.Fatalf("dry AllocBatch = %d, want 0", n)
	}
	out[0].Free()
	if n := p.AllocBatch(dry, 60); n != 1 {
		t.Fatalf("post-free AllocBatch = %d, want 1", n)
	}
}

// TestPoolSyncsOnce: every pool operation runs the sync hook exactly
// once, a dry allocation and a whole-burst FreeAll included, and an
// allocation sees what the hook freed.
func TestPoolSyncsOnce(t *testing.T) {
	p := New(Config{Count: 4})
	bufs := make([]*Mbuf, 4)
	if n := p.AllocBatch(bufs, 60); n != 4 {
		t.Fatalf("alloc batch = %d", n)
	}
	syncs := 0
	p.SetSync(func() { syncs++ })
	if m := p.Alloc(60); m != nil {
		t.Fatal("alloc from exhausted pool succeeded")
	}
	if n := p.AllocBatch(bufs[:1], 60); n != 0 {
		t.Fatalf("dry AllocBatch = %d, want 0", n)
	}
	bufs[3].Free()
	p.Available()
	if syncs != 4 {
		t.Fatalf("four pool operations ran the sync hook %d times, want 4", syncs)
	}
	ba := p.BufArray(3)
	copy(ba.Bufs, bufs[:3])
	syncs = 0
	ba.FreeAll()
	if syncs != 1 {
		t.Fatalf("FreeAll of a 3-buffer burst ran the sync hook %d times, want 1", syncs)
	}
	if n := p.AllocBatch(bufs, 60); n != 4 { // empty the pool again
		t.Fatalf("alloc batch after FreeAll = %d, want 4", n)
	}
	p.SetSync(func() {
		if m := bufs[0]; m != nil {
			bufs[0] = nil
			m.Free() // re-enters the pool, as a lazily pulling producer does
		}
	})
	if m := p.Alloc(60); m == nil {
		t.Fatal("alloc after the sync hook freed a buffer failed")
	}
}

func TestBufArrayAllocFree(t *testing.T) {
	p := New(Config{Count: 128, BufSize: 256})
	ba := p.BufArray(32)
	if len(ba.Bufs) != 32 {
		t.Fatalf("len = %d", len(ba.Bufs))
	}
	n := ba.Alloc(124)
	if n != 32 {
		t.Fatalf("alloc = %d", n)
	}
	for _, m := range ba.Slice(n) {
		if m.Len != 124 {
			t.Fatalf("pkt len = %d", m.Len)
		}
	}
	ba.FreeAll()
	if p.Available() != 128 {
		t.Fatalf("avail = %d after FreeAll", p.Available())
	}
	for _, m := range ba.Bufs {
		if m != nil {
			t.Fatal("FreeAll left a buffer slot set")
		}
	}
}

func TestBufArrayDefaultSize(t *testing.T) {
	p := New(Config{Count: 128})
	if ba := p.BufArray(0); len(ba.Bufs) != DefaultBatchSize {
		t.Fatalf("default size = %d", len(ba.Bufs))
	}
}

// TestUnboundBufArrayAllocPanics: a BufArray not bound to a pool (a
// bare literal) has nothing to allocate from; Alloc must say so.
func TestUnboundBufArrayAllocPanics(t *testing.T) {
	ba := &BufArray{Bufs: make([]*Mbuf, 4)}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc on unbound BufArray did not panic")
		}
	}()
	ba.Alloc(60)
}

func TestSlabIsolation(t *testing.T) {
	p := New(Config{Count: 4, BufSize: 64})
	a := p.Alloc(64)
	b := p.Alloc(64)
	for i := range a.Data {
		a.Data[i] = 0xFF
	}
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("write to one buffer leaked into another")
		}
	}
	// Full-capacity write must not panic (cap is clamped).
	_ = append(a.Data[:0:cap(a.Data)], make([]byte, 64)...)
}

// Property: alloc/free balance — after any sequence of ops the number of
// available buffers equals Count - live, and allocation never returns a
// buffer that is already live.
func TestPoolBalanceProperty(t *testing.T) {
	f := func(ops []bool) bool {
		p := New(Config{Count: 16, BufSize: 64})
		var live []*Mbuf
		for _, alloc := range ops {
			if alloc {
				m := p.Alloc(60)
				if m == nil {
					if len(live) != 16 {
						return false // pool dry while buffers remain
					}
					continue
				}
				for _, l := range live {
					if l == m {
						return false // returned a live buffer
					}
				}
				live = append(live, m)
			} else if len(live) > 0 {
				live[len(live)-1].Free()
				live = live[:len(live)-1]
			}
			if p.Available() != 16-len(live) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFreeBatch(b *testing.B) {
	p := New(Config{Count: 512, BufSize: 2048})
	ba := p.BufArray(63)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba.Alloc(60)
		ba.FreeAll()
	}
}
