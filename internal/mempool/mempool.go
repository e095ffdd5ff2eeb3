// Package mempool implements DPDK-style packet buffer management:
// fixed-size buffers (Mbuf) allocated from preallocated pools, with a
// per-buffer prefill callback and batch wrappers (BufArray).
//
// The object model deliberately matches the one the paper's §4.2
// analyses: the transmit function is asynchronous, so a buffer handed to
// the NIC must not be touched until the NIC reports completion; buffers
// are recycled through the pool without erasing their contents, which is
// why a prefill callback at pool creation time plus per-packet
// modification of only the fields that change is the efficient pattern.
package mempool

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// DefaultBufSize is the data room of a buffer: enough for a 1518 B
// Ethernet frame plus headroom, rounded like DPDK's 2 kB mbufs.
const DefaultBufSize = 2048

// DefaultBatchSize is the conventional burst size used by bufArrays.
const DefaultBatchSize = 63 // MoonGen's default bufArray size

// Mbuf is a packet buffer. Data is the full data room; the live packet
// occupies Data[:Len]. The zero Mbuf is not usable; buffers come from a
// Pool.
type Mbuf struct {
	Data []byte // full data room, fixed size
	Len  int    // current packet length

	// TxMeta carries per-packet transmit metadata interpreted by the
	// NIC model, the equivalent of DPDK's mbuf offload flags and the
	// DMA descriptor bitfields that checksum offloading sets.
	TxMeta TxMeta

	// RxMeta carries per-packet receive metadata written by the NIC
	// model (timestamps on chips that timestamp all received packets,
	// such as the 82580).
	RxMeta RxMeta

	pool  *Pool
	index int  // position in the pool's backing store
	inUse bool // owned by the application or NIC (not in the free list)
}

// TxMeta is per-packet transmit metadata: offload requests and flags
// that the simulated NIC interprets when the packet reaches the
// hardware, mirroring DPDK DMA-descriptor fields.
type TxMeta struct {
	// The flags come first so the struct packs into 32 bytes.

	// Offload checksum computation requests. The NIC fills the
	// corresponding header checksums when the packet is fetched.
	OffloadIPChecksum  bool
	OffloadUDPChecksum bool
	OffloadTCPChecksum bool

	// InvalidCRC asks the MAC to emit the frame with a corrupted FCS.
	// This is the transmit side of the paper's §8 CRC-based rate
	// control: filler frames are sent with a bad checksum so the
	// device under test drops them in hardware.
	InvalidCRC bool

	// Timestamp asks the NIC to hardware-timestamp this frame on
	// transmit (PTP path, paper §6).
	Timestamp bool

	// LaunchAt, when later than the instant the MAC scheduler looks at
	// the frame, is its earliest departure: the NIC holds the frame at
	// the head of its ring until then (the LaunchTime descriptor field
	// of later Intel NICs, SO_TXTIME on Linux). Zero sends at once.
	LaunchAt sim.Time
}

// RxMeta is per-packet receive metadata: what the NIC writes alongside
// the packet data (the 82580 prepends hardware timestamps to all
// received packets; we carry them out of band).
type RxMeta struct {
	// Timestamp is the hardware receive timestamp in NIC clock time.
	Timestamp int64
	// HasTimestamp reports whether Timestamp is valid.
	HasTimestamp bool
	// Queue is the receive queue the packet was steered to.
	Queue int
	// Arrival is the frame's PHY-level receive instant in simulation
	// time (picoseconds) — the per-descriptor arrival record the
	// receiver-side flow analysis computes inter-arrival times and
	// stamped latencies from.
	Arrival int64
}

// Reset clears per-packet state before reuse. Buffer contents are
// intentionally preserved (recycling "does not erase the packets'
// contents", §4.2).
func (m *Mbuf) Reset(length int) {
	if length > len(m.Data) {
		panic(fmt.Sprintf("mempool: packet length %d exceeds data room %d", length, len(m.Data)))
	}
	m.Len = length
	m.TxMeta = TxMeta{}
	m.RxMeta = RxMeta{}
}

// Payload returns the live packet bytes Data[:Len].
func (m *Mbuf) Payload() []byte { return m.Data[:m.Len] }

// Pool returns the owning pool.
func (m *Mbuf) Pool() *Pool { return m.pool }

// Free returns the buffer to its pool. Freeing a buffer twice panics:
// double-free is a real bug class the pool guards against.
func (m *Mbuf) Free() {
	m.pool.put(m)
}

// Pool is a fixed-size packet buffer pool. A Pool belongs to one
// engine and the procs on it (§4.2: each task uses its own mempools):
// it takes no lock, because the engine's handoffs already order every
// access, and a sharded run builds separate pools on each shard. With
// one owner there is nothing for a per-core cache in front of it to
// save, so every allocation and free goes straight to the free list.
//
// Sent buffers come back lazily, the way a poll-mode driver reclaims
// transmit descriptors (FreeAt): at the first operation on the pool
// (alloc, free, Available, Stats) at or after their
// completion, so the free list is exactly what completion events would
// have left — recycled buffers keep their contents.
type Pool struct {
	bufs []*Mbuf
	free []int // indices of free buffers, LIFO for cache locality

	// owed holds sent buffers not yet reclaimed from owedHead on,
	// sorted by completion (instant, then arm sequence); sync is the
	// SetSync hook.
	owed     []Sent
	owedHead int
	eng      *sim.Engine
	sync     func()

	allocs uint64
	frees  uint64
}

// Sent is a buffer the NIC sent, owed to its pool as of its transmit
// completion: the event that would free it fires at At, right after
// the Schedule call numbered Arm.
type Sent struct {
	M   *Mbuf
	At  sim.Time
	Arm uint64
}

// Config configures a pool.
type Config struct {
	// Count is the number of buffers; DPDK defaults to 2047-ish pools,
	// we default to 2048.
	Count int
	// BufSize is the data room per buffer (default DefaultBufSize).
	BufSize int
	// Prefill, if non-nil, is invoked once per buffer at pool creation
	// time. It is MoonGen's memory.createMemPool(function(buf) ...)
	// callback: scripts fill every packet with default values once so
	// the transmit loop only touches fields that change per packet.
	Prefill func(buf *Mbuf)
}

// New creates a pool. All buffers are allocated up front from two
// backing slabs — one for the data rooms, one for the Mbuf headers —
// and Prefill runs on each. The header slab matters as much as the
// data slab: a pool is five allocations total instead of one per
// buffer, so creating the per-core pools of a many-shard experiment
// does not flood the garbage collector with objects.
func New(cfg Config) *Pool {
	if cfg.Count <= 0 {
		cfg.Count = 2048
	}
	if cfg.BufSize <= 0 {
		cfg.BufSize = DefaultBufSize
	}
	p := &Pool{}
	slab := make([]byte, cfg.Count*cfg.BufSize)
	hdrs := make([]Mbuf, cfg.Count)
	p.bufs = make([]*Mbuf, cfg.Count)
	p.free = make([]int, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		m := &hdrs[i]
		m.Data = slab[i*cfg.BufSize : (i+1)*cfg.BufSize : (i+1)*cfg.BufSize]
		m.Len = cfg.BufSize
		m.pool = p
		m.index = i
		if cfg.Prefill != nil {
			cfg.Prefill(m)
		}
		m.Len = 0
		p.bufs[i] = m
		p.free[i] = cfg.Count - 1 - i // so buffer 0 pops first
	}
	return p
}

// Count returns the total number of buffers in the pool.
func (p *Pool) Count() int { return len(p.bufs) }

// SetSync installs fn to run before every operation on the pool, so a
// producer that fills buffers lazily (a port pulling its arrivals)
// catches up first. fn may re-enter the pool.
func (p *Pool) SetSync(fn func()) { p.sync = fn }

func (p *Pool) runSync() {
	if p.sync != nil {
		p.sync()
	}
}

// catchUp runs the sync hook and reclaims the owed buffers that are due:
// the step before every pool operation. A pool the NIC never sent from
// (a receive pool) owes nothing and skips the reclaim.
func (p *Pool) catchUp() {
	p.runSync()
	if p.owedHead < len(p.owed) {
		p.reclaim()
	}
}

// reclaim returns the owed buffers that are due to the free list.
func (p *Pool) reclaim() {
	n := p.owedHead
	for n < len(p.owed) && p.eng.Due(p.owed[n].At, p.owed[n].Arm) {
		p.putOne(p.owed[n].M)
		n++
	}
	if n > 0 && 2*n >= len(p.owed) { // drop the reclaimed prefix
		p.owed = p.owed[:copy(p.owed, p.owed[n:])]
		n = 0
	}
	p.owedHead = n
}

// FreeAt hands sent buffers of p back, in completion order, on eng.
// Each rejoins the free list at the first operation its completion is
// due for (sim.Engine.Due).
func (p *Pool) FreeAt(sent []Sent, eng *sim.Engine) {
	if p.eng != eng {
		p.eng = eng
		eng.AddDeferred(p.lastOwed)
	}
	for _, s := range sent {
		i := len(p.owed) // another port's train may complete earlier
		for i > p.owedHead && (p.owed[i-1].At > s.At || p.owed[i-1].At == s.At && p.owed[i-1].Arm > s.Arm) {
			i--
		}
		if i == len(p.owed) {
			p.owed = append(p.owed, s)
		} else {
			p.owed = slices.Insert(p.owed, i, s)
		}
	}
}

// lastOwed is the completion instant of the last owed buffer (0 for
// none), for sim.Engine.AddDeferred.
func (p *Pool) lastOwed() sim.Time {
	if n := len(p.owed); n > p.owedHead {
		return p.owed[n-1].At
	}
	return 0
}

// Available returns the number of free buffers.
func (p *Pool) Available() int {
	p.catchUp()
	return len(p.free)
}

// Stats returns cumulative allocation and free counts.
func (p *Pool) Stats() (allocs, frees uint64) {
	p.catchUp()
	return p.allocs, p.frees
}

// Alloc takes one buffer with the given packet length, or nil if the
// pool is exhausted.
func (p *Pool) Alloc(length int) *Mbuf {
	p.catchUp()
	return p.allocOne(length)
}

func (p *Pool) allocOne(length int) *Mbuf {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	idx := p.free[n-1]
	p.free = p.free[:n-1]
	m := p.bufs[idx]
	m.inUse = true
	m.Reset(length)
	p.allocs++
	return m
}

// AllocBatch fills out with freshly allocated buffers of the given
// length and returns how many it could allocate.
func (p *Pool) AllocBatch(out []*Mbuf, length int) int {
	p.catchUp()
	for i := range out {
		m := p.allocOne(length)
		if m == nil {
			return i
		}
		out[i] = m
	}
	return len(out)
}

func (p *Pool) put(m *Mbuf) {
	p.catchUp()
	p.putOne(m)
}

func (p *Pool) putOne(m *Mbuf) {
	if m.pool != p {
		panic("mempool: buffer returned to wrong pool")
	}
	if !m.inUse {
		panic(fmt.Sprintf("mempool: double free of buffer %d", m.index))
	}
	m.inUse = false
	p.free = append(p.free, m.index)
	p.frees++
}

// BufArray is MoonGen's bufArray: a reusable batch of packet buffers
// processed together, "a thin wrapper around a C array containing packet
// buffers ... to process packets in batches instead of passing them
// one-by-one" (§4.2). A BufArray is bound to a Pool (Pool.BufArray);
// the batched TX loops reuse one array for the whole run, so the hot
// path performs no per-packet slice allocations.
type BufArray struct {
	Bufs []*Mbuf
	pool *Pool
}

// BufArray returns a batch wrapper of the given size bound to this pool
// (mem:bufArray()). Size <= 0 selects DefaultBatchSize.
func (p *Pool) BufArray(size int) *BufArray {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BufArray{Bufs: make([]*Mbuf, size), pool: p}
}

// Alloc fills the whole array with packets of the given size
// (bufs:alloc(PKT_SIZE)). It returns the number allocated, which is
// less than Len only if the pool ran dry — in a correctly sized setup
// that means the NIC is holding every buffer and the caller should
// retry, which is exactly how DPDK applications behave.
func (a *BufArray) Alloc(size int) int {
	if a.pool == nil {
		panic("mempool: Alloc on unbound BufArray")
	}
	return a.pool.AllocBatch(a.Bufs, size)
}

// FreeAll returns every non-nil buffer to its pool and clears the
// slots (bufs:freeAll()). The array's pool catches up once for the
// whole burst: nothing its sync hook or reclaim would do changes
// between two frees at one instant.
func (a *BufArray) FreeAll() {
	if a.pool != nil {
		a.pool.catchUp()
	}
	for i, m := range a.Bufs {
		if m == nil {
			continue
		}
		if m.pool == a.pool {
			a.pool.putOne(m)
		} else {
			m.Free()
		}
		a.Bufs[i] = nil
	}
}

// Clear drops the first n references without freeing (the buffers were
// handed to the NIC): the reuse step between bursts.
func (a *BufArray) Clear(n int) {
	for i := 0; i < n; i++ {
		a.Bufs[i] = nil
	}
}

// Slice returns the first n buffers, the shape used after a short
// receive: rx := queue.RecvBurst(bufs); for _, b := range bufs.Slice(rx) {...}
func (a *BufArray) Slice(n int) []*Mbuf { return a.Bufs[:n] }
