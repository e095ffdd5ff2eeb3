// Package ring provides Ring, the simulator's FIFO queue: the NIC's
// descriptor rings, a link's in-flight frames and the DuT forwarder's
// driver backlog.
//
// Every queue belongs to one engine and every task runs as a coroutine
// of that engine, so a ring has exactly one goroutine and needs no
// synchronisation. A Ring is unbounded; a user that models a bounded
// hardware ring keeps its own bound, as the NIC does: a full
// descriptor ring gives the short counts of DPDK's
// rte_ring_enqueue_burst, which MoonGen's queue:send and queue:recv
// loops are built on (paper §4.2).
package ring

// Ring is a single-goroutine FIFO queue over a circular buffer. The
// zero value is an empty ring; it doubles its buffer when a push finds
// it full and never shrinks, so a ring that has reached its working
// depth pushes and pops without allocating. Popped slots are zeroed so
// the ring never pins references.
type Ring[T any] struct {
	buf []T // power-of-two length, or nil
	// head and tail run free: the ring holds tail-head items, and item
	// i sits in slot (head+i) & (len(buf)-1).
	head, tail uint
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.tail-r.head == uint(len(r.buf)) {
		r.grow()
	}
	r.buf[r.tail&uint(len(r.buf)-1)] = v
	r.tail++
}

// TryPush appends v unless the ring holds limit items or its buffer is
// full, reporting whether it did. It never grows the ring, so it
// inlines where Push does not: a bounded ring that Reserve sized to its
// bound refuses a push only at the bound.
func (r *Ring[T]) TryPush(v T, limit int) bool {
	n := r.tail - r.head
	if n >= uint(limit) || n == uint(len(r.buf)) {
		return false
	}
	r.buf[r.tail&uint(len(r.buf)-1)] = v
	r.tail++
	return true
}

// Reserve grows the buffer, keeping the queued items, so that it holds
// at least n items.
func (r *Ring[T]) Reserve(n int) {
	if n <= len(r.buf) {
		return
	}
	size := max(len(r.buf), 8)
	for size < n {
		size <<= 1
	}
	buf := make([]T, size)
	l := r.Len()
	for i := range l {
		buf[i] = r.At(i)
	}
	r.buf, r.head, r.tail = buf, 0, uint(l)
}

// Pop removes and returns the head item, reporting whether there was
// one.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.head == r.tail {
		return zero, false
	}
	i := r.head & uint(len(r.buf)-1)
	v := r.buf[i]
	r.buf[i] = zero
	r.head++
	return v, true
}

// Peek returns the head item without removing it, reporting whether
// there was one.
func (r *Ring[T]) Peek() (T, bool) {
	if r.head == r.tail {
		var zero T
		return zero, false
	}
	return r.buf[r.head&uint(len(r.buf)-1)], true
}

// At returns the i-th queued item (0 is the head); 0 <= i < Len().
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+uint(i))&uint(len(r.buf)-1)] }

// grow doubles the buffer (to 8 slots at first) of a full ring. The
// items from the head slot to the end of the old buffer keep their
// slots; those that had wrapped round to its front move to just past
// its end, and the slots they leave are zeroed. grow is kept this
// small so that it inlines into Push and Push still inlines into its
// callers.
func (r *Ring[T]) grow() {
	n := uint(len(r.buf))
	r.head &= n - 1
	r.tail = r.head + n
	r.buf = append(r.buf, make([]T, max(n, 8))...)
	clear(r.buf[:copy(r.buf[n:], r.buf[:r.head])])
}
