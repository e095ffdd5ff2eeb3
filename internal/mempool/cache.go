package mempool

import "fmt"

// Cache is a per-core allocation front for a Pool — DPDK's per-lcore
// mempool cache (§4.2: "each task uses its own queues and mempools").
// The owning core allocates and frees through the cache; the pool's
// free list is touched only to refill or spill a batch at a time, so
// in the steady state most operations are plain slice pushes and pops.
//
// Like its Pool, a Cache belongs to one engine and the procs on it
// (one multicore shard) and takes no lock. Buffers held in
// the cache are accounted as in-use by the pool — Pool.Available does
// not count them — and may be returned to the pool at any time with
// Flush. Buffers freed elsewhere (e.g. by the NIC model after
// transmit) go straight back to the pool, exactly like a DPDK free
// from a foreign lcore bypassing the owner's cache.
type Cache struct {
	pool    *Pool
	local   []*Mbuf
	scratch []*Mbuf // reusable transfer buffer for refills
	limit   int

	// Hits counts allocations served from the cache; Refills and
	// Spills count batch transfers from/to the backing pool.
	Hits    uint64
	Refills uint64
	Spills  uint64
}

// defaultCacheSize mirrors DPDK's typical per-lcore cache of a few
// hundred mbufs.
const defaultCacheSize = 256

// NewCache creates a per-core cache over p holding at most size
// buffers (<= 0 selects the default of 256).
func (p *Pool) NewCache(size int) *Cache {
	if size <= 0 {
		size = defaultCacheSize
	}
	half := size / 2
	if half < 1 {
		half = 1
	}
	return &Cache{
		pool:    p,
		limit:   size,
		local:   make([]*Mbuf, 0, size),
		scratch: make([]*Mbuf, half),
	}
}

// refill pulls up to half the cache capacity from the pool (one batch,
// no allocation; the caller ran the sync hook) and returns the count.
func (c *Cache) refill() int {
	n := c.pool.allocBatch(c.scratch, 0)
	if n > 0 {
		c.Refills++
		for i := 0; i < n; i++ {
			c.scratch[i].cached = true
			c.local = append(c.local, c.scratch[i])
			c.scratch[i] = nil
		}
	}
	return n
}

// Alloc takes one buffer with the given packet length, refilling from
// the pool on a cache miss. Returns nil only when pool and cache are
// both exhausted.
func (c *Cache) Alloc(length int) *Mbuf {
	c.pool.runSync()
	if len(c.local) == 0 {
		if c.refill() == 0 {
			return nil
		}
	} else {
		c.Hits++
	}
	n := len(c.local) - 1
	m := c.local[n]
	c.local[n] = nil
	c.local = c.local[:n]
	m.cached = false
	m.Reset(length)
	return m
}

// AllocBatch fills out with buffers of the given length and returns
// how many it could allocate (short only when pool and cache ran dry).
// The batch is served from the cached stock in bulk; the pool's free
// list is touched once per refill, not per buffer.
func (c *Cache) AllocBatch(out []*Mbuf, length int) int {
	c.pool.runSync()
	filled := 0
	for filled < len(out) {
		fromStock := len(c.local) > 0
		if !fromStock && c.refill() == 0 {
			return filled
		}
		n := len(c.local)
		take := len(out) - filled
		if take > n {
			take = n
		}
		for i := 0; i < take; i++ {
			m := c.local[n-1-i]
			c.local[n-1-i] = nil
			m.cached = false
			m.Reset(length)
			out[filled+i] = m
		}
		c.local = c.local[:n-take]
		if fromStock {
			c.Hits += uint64(take)
		}
		filled += take
	}
	return filled
}

// BufArray returns a batch wrapper of the given size whose Alloc path
// goes through this cache (size <= 0 selects DefaultBatchSize) — the
// reusable per-task burst the batched TX loops are written around.
func (c *Cache) BufArray(size int) *BufArray {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BufArray{Bufs: make([]*Mbuf, size), pool: c.pool, cache: c}
}

// Put returns a buffer to the cache. When the cache is full, half of
// it spills back to the pool in one batch. Freeing the same buffer
// twice — whether through the pool or the cache — panics.
func (c *Cache) Put(m *Mbuf) {
	c.pool.runSync()
	c.put(m)
}

func (c *Cache) put(m *Mbuf) {
	if m.pool != c.pool {
		panic("mempool: buffer returned to cache of wrong pool")
	}
	if !m.inUse {
		panic("mempool: double free through cache")
	}
	if m.cached {
		panic(fmt.Sprintf("mempool: double Put of buffer %d into cache", m.index))
	}
	if len(c.local) >= c.limit {
		c.spill(c.limit / 2)
	}
	m.cached = true
	c.local = append(c.local, m)
}

// spill returns n cached buffers to the pool in one batch.
func (c *Cache) spill(n int) {
	if n > len(c.local) {
		n = len(c.local)
	}
	if n <= 0 {
		return
	}
	c.Spills++
	victims := c.local[len(c.local)-n:]
	for _, m := range victims {
		m.cached = false
	}
	c.pool.freeBatch(victims)
	for i := range victims {
		victims[i] = nil
	}
	c.local = c.local[:len(c.local)-n]
}

// Flush returns every cached buffer to the pool (end-of-run cleanup).
func (c *Cache) Flush() {
	c.pool.runSync()
	c.spill(len(c.local))
}
