package mempool

import "testing"

func TestCacheAllocFree(t *testing.T) {
	p := New(Config{Count: 64})
	c := p.NewCache(16)
	m := c.Alloc(60)
	if m == nil {
		t.Fatal("alloc failed")
	}
	if m.Len != 60 {
		t.Fatalf("len = %d", m.Len)
	}
	if c.Refills != 1 {
		t.Fatalf("refills = %d", c.Refills)
	}
	// The refill pulled half the cache; the next allocs are hits.
	hits := c.Hits
	for i := 0; i < len(c.local); i++ {
		if c.Alloc(60) == nil {
			t.Fatal("alloc from warm cache failed")
		}
	}
	if c.Hits == hits {
		t.Fatal("warm allocations did not hit the cache")
	}
	c.Put(m)
	if len(c.local) == 0 {
		t.Fatal("Put did not cache the buffer")
	}
}

// TestCacheAccounting: buffers sitting in the cache are in-use from
// the pool's perspective, and Flush returns all of them.
func TestCacheAccounting(t *testing.T) {
	p := New(Config{Count: 64})
	c := p.NewCache(16)
	m := c.Alloc(60)
	if got := p.Available(); got != 64-8 { // one refill of limit/2
		t.Fatalf("available = %d, want %d", got, 64-8)
	}
	c.Put(m)
	c.Flush()
	if got := p.Available(); got != 64 {
		t.Fatalf("available after flush = %d, want 64", got)
	}
	if len(c.local) != 0 {
		t.Fatalf("cache len after flush = %d", len(c.local))
	}
}

// TestCacheSpill: overfilling the cache spills batches back to the
// pool instead of growing without bound.
func TestCacheSpill(t *testing.T) {
	p := New(Config{Count: 128})
	c := p.NewCache(8)
	bufs := make([]*Mbuf, 64)
	if n := c.AllocBatch(bufs, 60); n != 64 {
		t.Fatalf("alloc batch = %d", n)
	}
	for _, m := range bufs {
		c.Put(m)
	}
	if len(c.local) > 8 {
		t.Fatalf("cache grew past its limit: %d", len(c.local))
	}
	if c.Spills == 0 {
		t.Fatal("no spills recorded")
	}
	c.Flush()
	if got := p.Available(); got != 128 {
		t.Fatalf("available = %d, want 128", got)
	}
}

// TestCacheExhaustion: when pool and cache are dry, Alloc reports nil
// rather than panicking, and recycling resolves it.
func TestCacheExhaustion(t *testing.T) {
	p := New(Config{Count: 4})
	c := p.NewCache(8)
	bufs := make([]*Mbuf, 4)
	if n := c.AllocBatch(bufs, 60); n != 4 {
		t.Fatalf("alloc batch = %d", n)
	}
	if m := c.Alloc(60); m != nil {
		t.Fatal("alloc from exhausted pool succeeded")
	}
	bufs[0].Free() // foreign free, straight to the pool
	if m := c.Alloc(60); m == nil {
		t.Fatal("alloc after free failed")
	}
}

// TestCacheSyncsOnce: a cache operation runs the pool's sync hook once.
// The refill behind a miss at a dry pool and the spill behind a Put
// into a full cache do not run it again, and a refill still sees what
// the hook freed.
func TestCacheSyncsOnce(t *testing.T) {
	p := New(Config{Count: 4})
	c := p.NewCache(2)
	bufs := make([]*Mbuf, 4)
	if n := c.AllocBatch(bufs, 60); n != 4 {
		t.Fatalf("alloc batch = %d", n)
	}
	syncs := 0
	p.SetSync(func() { syncs++ })
	if m := c.Alloc(60); m != nil {
		t.Fatal("alloc from exhausted pool succeeded")
	}
	if n := c.AllocBatch(bufs[:1], 60); n != 0 {
		t.Fatalf("dry AllocBatch = %d, want 0", n)
	}
	if syncs != 2 {
		t.Fatalf("two dry allocations ran the sync hook %d times, want 2", syncs)
	}
	c.Put(bufs[1])
	c.Put(bufs[2])
	syncs = 0
	c.Put(bufs[3]) // spills
	if syncs != 1 || c.Spills != 1 {
		t.Fatalf("a spilling Put ran the sync hook %d times (%d spills), want 1", syncs, c.Spills)
	}
	for c.Alloc(60) != nil { // empty the cache and the pool again
	}
	p.SetSync(func() {
		if m := bufs[0]; m != nil {
			bufs[0] = nil
			m.Free() // re-enters the pool, as a lazily pulling producer does
		}
	})
	if m := c.Alloc(60); m == nil {
		t.Fatal("alloc after the sync hook freed a buffer failed")
	}
}

func TestCacheDoubleFreePanics(t *testing.T) {
	p := New(Config{Count: 8})
	c := p.NewCache(4)
	m := c.Alloc(60)
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free through cache did not panic")
		}
	}()
	c.Put(m)
}

func TestCacheDoublePutPanics(t *testing.T) {
	p := New(Config{Count: 8})
	c := p.NewCache(4)
	m := c.Alloc(60)
	c.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	c.Put(m)
}

// TestCacheFreeWhileCachedPanics: a buffer parked in a cache must not
// be freeable to the pool behind the cache's back.
func TestCacheFreeWhileCachedPanics(t *testing.T) {
	p := New(Config{Count: 8})
	c := p.NewCache(4)
	m := c.Alloc(60)
	c.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of a cached buffer did not panic")
		}
	}()
	m.Free()
}

func TestCacheWrongPoolPanics(t *testing.T) {
	p1 := New(Config{Count: 8})
	p2 := New(Config{Count: 8})
	c := p1.NewCache(4)
	m := p2.Alloc(60)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-pool Put did not panic")
		}
	}()
	c.Put(m)
}

// TestCacheAllocBatchBulk: a whole burst is served with at most one
// pool refill per cache-half, hits are counted per buffer served from
// stock, and Put recycles the burst back through the cache.
func TestCacheAllocBatchBulk(t *testing.T) {
	p := New(Config{Count: 256})
	c := p.NewCache(64)
	out := make([]*Mbuf, 48)
	if n := c.AllocBatch(out, 60); n != 48 {
		t.Fatalf("AllocBatch = %d", n)
	}
	if c.Refills == 0 {
		t.Fatal("no refill recorded")
	}
	for _, m := range out {
		c.Put(m)
	}
	hitsBefore := c.Hits
	if n := c.AllocBatch(out, 60); n != 48 {
		t.Fatalf("second AllocBatch = %d", n)
	}
	if c.Hits < hitsBefore+32 {
		t.Fatalf("bulk hits not counted per buffer: %d -> %d", hitsBefore, c.Hits)
	}
	for _, m := range out {
		c.Put(m)
	}
	c.Flush()
	if p.Available() != p.Count() {
		t.Fatalf("pool leaked: %d of %d", p.Available(), p.Count())
	}
}

// TestCacheBufArray: a cache-bound BufArray allocates through the
// cache and FreeAll returns the buffers to it, not the pool.
func TestCacheBufArray(t *testing.T) {
	p := New(Config{Count: 128})
	c := p.NewCache(32)
	ba := c.BufArray(16)
	if n := ba.Alloc(60); n != 16 {
		t.Fatalf("Alloc = %d", n)
	}
	spills := c.Spills
	ba.FreeAll()
	if len(c.local) == 0 {
		t.Fatal("FreeAll bypassed the cache")
	}
	if c.Spills != spills {
		t.Fatalf("FreeAll spilled unexpectedly")
	}
	for _, m := range ba.Bufs {
		if m != nil {
			t.Fatal("FreeAll left references")
		}
	}
	c.Flush()
	if p.Available() != p.Count() {
		t.Fatalf("pool leaked: %d of %d", p.Available(), p.Count())
	}
}

// TestCacheAllocBatchExhaustion: the burst comes up short only when
// cache and pool are both dry, and recovers after a free.
func TestCacheAllocBatchExhaustion(t *testing.T) {
	p := New(Config{Count: 16})
	c := p.NewCache(8)
	out := make([]*Mbuf, 32)
	if n := c.AllocBatch(out, 60); n != 16 {
		t.Fatalf("AllocBatch on small pool = %d, want 16", n)
	}
	if n := c.AllocBatch(out[:4], 60); n != 0 {
		t.Fatalf("dry AllocBatch = %d, want 0", n)
	}
	c.Put(out[0])
	if n := c.AllocBatch(out[:4], 60); n != 1 {
		t.Fatalf("post-free AllocBatch = %d, want 1", n)
	}
}
