package ring

import (
	"fmt"
	"sync/atomic"
)

// mpmcSlot pairs an item with a sequence number in the Vyukov bounded
// MPMC queue scheme. The sequence number encodes whether the slot is
// ready for a producer or a consumer of a given lap.
type mpmcSlot[T any] struct {
	seq  atomic.Uint64
	item T
}

// MPMC is a bounded multi-producer multi-consumer lock-free queue
// (Vyukov's algorithm, the same family DPDK's default rte_ring uses).
// Any number of goroutines may enqueue and dequeue concurrently. It
// backs MoonGen-style inter-task pipes, where several slave tasks feed
// one statistics task.
type MPMC[T any] struct {
	buf  []mpmcSlot[T]
	mask uint64
	_    [7]uint64
	enq  atomic.Uint64
	_    [7]uint64
	deq  atomic.Uint64
	_    [7]uint64
}

// NewMPMC returns an MPMC ring with capacity rounded up to a power of
// two, minimum 2: Vyukov's sequence scheme cannot distinguish full from
// empty with a single slot (slot.seq wraps onto the next lap's enqueue
// position). Capacity must be positive.
func NewMPMC[T any](capacity int) *MPMC[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: invalid capacity %d", capacity))
	}
	n := ceilPow2(capacity)
	if n < 2 {
		n = 2
	}
	q := &MPMC[T]{buf: make([]mpmcSlot[T], n), mask: uint64(n - 1)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the ring capacity.
func (q *MPMC[T]) Cap() int { return len(q.buf) }

// Len returns an approximate number of queued items.
func (q *MPMC[T]) Len() int {
	n := int(q.enq.Load()) - int(q.deq.Load())
	if n < 0 {
		return 0
	}
	if n > len(q.buf) {
		return len(q.buf)
	}
	return n
}

// EnqueueOne adds one item, reporting whether there was room.
func (q *MPMC[T]) EnqueueOne(item T) bool {
	pos := q.enq.Load()
	for {
		slot := &q.buf[pos&q.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				slot.item = item
				slot.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case diff < 0:
			return false // full
		default:
			pos = q.enq.Load()
		}
	}
}

// DequeueOne removes one item, reporting whether one was available.
func (q *MPMC[T]) DequeueOne() (T, bool) {
	var zero T
	pos := q.deq.Load()
	for {
		slot := &q.buf[pos&q.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				item := slot.item
				slot.item = zero
				slot.seq.Store(pos + uint64(len(q.buf)))
				return item, true
			}
			pos = q.deq.Load()
		case diff < 0:
			return zero, false // empty
		default:
			pos = q.deq.Load()
		}
	}
}

// EnqueueBurst adds up to len(items) items and returns the number
// added. Unlike the SPSC ring the slots are claimed one CAS at a time
// (Vyukov slots cannot be range-reserved without spinning on foreign
// producers), but the burst call is still the unit of work: a short
// count means the ring filled mid-burst and items[:n] was added.
func (q *MPMC[T]) EnqueueBurst(items []T) int {
	for i := range items {
		if !q.EnqueueOne(items[i]) {
			return i
		}
	}
	return len(items)
}

// DequeueBurst removes up to len(out) items and returns the count.
func (q *MPMC[T]) DequeueBurst(out []T) int {
	for i := range out {
		item, ok := q.DequeueOne()
		if !ok {
			return i
		}
		out[i] = item
	}
	return len(out)
}
