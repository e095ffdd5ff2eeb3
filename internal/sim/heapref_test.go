package sim

import "fmt"

// heapEngine is the reference scheduler the timing wheel is pinned
// against: a plain binary min-heap over (time, schedule sequence). It
// has no procs, random streams or stop time — only the ordering
// contract the Engine must honour: events fire in time order, equal
// times in schedule order, including events scheduled re-entrantly at
// the current instant.
type heapEngine struct {
	now Time
	seq uint64
	ev  []heapEvent
}

type heapEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// schedulerUnderTest is the surface the ordering pins drive on both
// the real Engine and the reference heap.
type schedulerUnderTest interface {
	Schedule(at Time, fn func())
	Now() Time
	Step() bool
	Run(until Time) int
	NextAt() Time
}

func (h *heapEngine) Now() Time { return h.now }

func (h *heapEngine) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

// Schedule inserts fn at time at and sifts it up.
func (h *heapEngine) Schedule(at Time, fn func()) {
	if at < h.now {
		panic(fmt.Sprintf("heapEngine: schedule at %v before now %v", at, h.now))
	}
	h.seq++
	h.ev = append(h.ev, heapEvent{at: at, seq: h.seq, fn: fn})
	for i := len(h.ev) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// NextAt returns the earliest pending time, or Never.
func (h *heapEngine) NextAt() Time {
	if len(h.ev) == 0 {
		return Never
	}
	return h.ev[0].at
}

// Step pops and fires the earliest event.
func (h *heapEngine) Step() bool {
	n := len(h.ev) - 1
	if n < 0 {
		return false
	}
	top := h.ev[0]
	h.ev[0] = h.ev[n]
	h.ev[n] = heapEvent{}
	h.ev = h.ev[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
	h.now = top.at
	top.fn()
	return true
}

// Run fires events up to and including until, then advances now to
// until, exactly like Engine.Run.
func (h *heapEngine) Run(until Time) int {
	n := 0
	for len(h.ev) > 0 && h.ev[0].at <= until {
		h.Step()
		n++
	}
	if h.now < until && until != Never {
		h.now = until
	}
	return n
}
