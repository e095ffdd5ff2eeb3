package ring

// FIFO is an unbounded single-goroutine queue over a compacted slice:
// Push appends, Pop advances a head index, and the drained prefix is
// compacted away once it dominates the slice. Steady-state operation
// performs no allocation, and popped slots are zeroed so the queue
// never pins references.
//
// It backs the simulator's monotonic-deadline pipelines (a link's
// in-flight frames, a port's transmit completions), which need FIFO
// order, unbounded depth and zero-alloc pushes — not the bounded
// lock-free semantics of the SPSC ring.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 64 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		var zero T
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Peek returns the head item without removing it.
func (f *FIFO[T]) Peek() (T, bool) {
	if f.head == len(f.buf) {
		var zero T
		return zero, false
	}
	return f.buf[f.head], true
}

// At returns the i-th queued item (0 is the head).
func (f *FIFO[T]) At(i int) T { return f.buf[f.head+i] }

// Pop removes and returns the head item.
func (f *FIFO[T]) Pop() (T, bool) {
	if f.head == len(f.buf) {
		var zero T
		return zero, false
	}
	v := f.buf[f.head]
	var z T
	f.buf[f.head] = z
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v, true
}
