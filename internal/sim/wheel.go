package sim

import (
	"math/bits"
	"slices"
)

// Timing-wheel ready queue — the engine's scheduler.
//
// The binary heap pays O(log n) comparisons per schedule and per fire.
// Simulated packet trains produce densely clustered event times (every
// departure, delivery and completion lands within nanoseconds of its
// neighbours), which is exactly the distribution a calendar queue turns
// into O(1) operations: events hash by time into a circular array of
// slots, the cursor only ever moves forward, and one slot holds at most
// a handful of events.
//
// Layout:
//
//   - The wheel proper covers wheelSlots ticks of wheelTick picoseconds
//     each (64 µs of simulated future at the default constants). Events
//     within that horizon are pushed onto their slot's singly-linked
//     list in O(1); slot nodes are pooled, so the steady state
//     schedules without allocating.
//   - Events beyond the horizon (rate-control timers, experiment stop
//     boundaries, long sleeps) go to a small overflow min-heap and are
//     promoted into the wheel as the cursor approaches them — each
//     event overflows at most once.
//   - Firing a slot materializes it into a buffer sorted by (time,
//     sequence), which restores the exact global order of a binary
//     heap: equal-time events fire in schedule order, so every golden
//     CSV and determinism pin stays bit-identical. The equivalence with
//     the reference heap engine in heapref_test.go is pinned by
//     TestWheelMatchesHeapOrder.
//
// Re-entrancy: an event scheduling at the current instant (Sleep(0),
// a pump kicked from a send) lands in the currently-firing tick's buffer
// at its sorted position and fires in the same pass.
const (
	// wheelTickShift sets the tick to 2^16 ps = 65.536 ns — on the
	// order of one minimum-frame wire time at 10 GbE, so back-to-back
	// datapath events spread roughly one per slot.
	wheelTickShift = 16
	// wheelSlots × tick ≈ 67 µs of near future covered by the wheel;
	// task backoffs (1 µs) and receive polls (20 µs) stay inside it.
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// wheelNode is one scheduled event. Nodes are pooled by the wheel
// (free list), so steady-state scheduling performs no allocations.
type wheelNode struct {
	at   Time
	seq  uint64
	fn   func()
	next *wheelNode
}

// nodeLess is the engine's total event order: time, then schedule
// sequence (equal-time FIFO).
func nodeLess(a, b *wheelNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nodeCmp is nodeLess for slices.SortFunc.
func nodeCmp(a, b *wheelNode) int {
	switch {
	case nodeLess(a, b):
		return -1
	case nodeLess(b, a):
		return 1
	}
	return 0
}

// timingWheel is the calendar queue. Invariants (tick = at >> shift):
//
//   - cursor is the tick of the last popped event (0 initially) and
//     never decreases; every pending event has tick ≥ cursor.
//   - slot lists hold only ticks in [cursor, cursor+wheelSlots), so a
//     slot index maps to exactly one tick — no revolution ambiguity.
//   - the overflow heap holds only ticks ≥ cursor+wheelSlots once
//     promote has run; promote is called before every pop/peek.
//   - the fired buffer, when loaded, is the sorted remainder of the
//     earliest tick; slots and overflow then hold strictly later ticks.
type timingWheel struct {
	slots    [wheelSlots]*wheelNode // unordered lists; sorted at load
	occupied [wheelWords]uint64
	cursor   int64
	slotLen  int // events parked in slots

	// fired is the loaded (currently firing) tick, sorted by (at, seq).
	fired     []*wheelNode
	firedIdx  int
	firedTick int64
	loaded    bool

	over nodeHeap // far-future overflow, min-heap by (at, seq)

	free  *wheelNode // node pool
	freeN int

	// Diagnostics sampled by Engine.SchedStats.
	promotions uint64 // overflow events promoted into slots
	maxDepth   int    // largest materialized tick buffer
}

func (w *timingWheel) len() int {
	return w.slotLen + (len(w.fired) - w.firedIdx) + w.over.len()
}

func (w *timingWheel) alloc() *wheelNode {
	if n := w.free; n != nil {
		w.free = n.next
		w.freeN--
		n.next = nil
		return n
	}
	// Grow the pool a slab at a time: a run that keeps many events
	// pending (an unrolled fault plan, long timers) then allocates once
	// per nodeSlab events instead of once per event.
	slab := make([]wheelNode, nodeSlab)
	for i := 1; i < nodeSlab; i++ {
		w.release(&slab[i])
	}
	return &slab[0]
}

// nodeSlab is the number of nodes one pool refill allocates.
const nodeSlab = 64

// release returns a fired node to the pool. The pool is bounded only by
// the peak pending-event population, which the simulation bounds by
// construction (one event per port pump, per armed receive line, per task).
func (w *timingWheel) release(n *wheelNode) {
	n.fn = nil // release the closure for GC
	n.next = w.free
	w.free = n
	w.freeN++
}

// tickOf maps a time to its wheel tick. Time is non-negative (the
// engine rejects scheduling in the past and starts at 0).
func tickOf(at Time) int64 { return int64(at) >> wheelTickShift }

// schedule inserts an event. O(1) except for the re-entrant insert
// into the currently-firing tick (binary search + copy).
func (w *timingWheel) schedule(at Time, seq uint64, fn func()) {
	n := w.alloc()
	n.at, n.seq, n.fn = at, seq, fn
	tick := tickOf(at)
	if w.loaded {
		if tick == w.firedTick {
			w.insertFired(n)
			return
		}
		if tick < w.firedTick {
			// Only reachable between runs: Run(until) materialized a
			// future multi-event tick, stopped before it (leaving the
			// sorted remainder loaded), and a fresh event now targets
			// an earlier tick.
			w.unload()
		}
	}
	if tick-w.cursor >= wheelSlots {
		w.over.push(n)
		return
	}
	w.pushSlot(n, int(tick&wheelMask))
}

// pushSlot prepends to a slot list (order restored by the load sort).
func (w *timingWheel) pushSlot(n *wheelNode, slot int) {
	n.next = w.slots[slot]
	w.slots[slot] = n
	w.occupied[slot>>6] |= 1 << (slot & 63)
	w.slotLen++
}

// insertFired places a node into the sorted remainder of the firing
// buffer. New events carry the highest sequence, so an event scheduled
// for the current instant lands after every pending equal-time event —
// the same-tick re-entrancy order a binary heap produces.
func (w *timingWheel) insertFired(n *wheelNode) {
	lo, hi := w.firedIdx, len(w.fired)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodeLess(w.fired[mid], n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.fired = append(w.fired, nil)
	copy(w.fired[lo+1:], w.fired[lo:])
	w.fired[lo] = n
}

// unload parks the unfired remainder of the loaded tick back into its
// slot (the load sort re-establishes order).
func (w *timingWheel) unload() {
	slot := int(w.firedTick & wheelMask)
	for i := len(w.fired) - 1; i >= w.firedIdx; i-- {
		w.pushSlot(w.fired[i], slot)
		w.fired[i] = nil
	}
	w.fired = w.fired[:0]
	w.firedIdx = 0
	w.loaded = false
}

// promote moves overflow events whose tick entered the wheel horizon
// into their slots. Called before every pop/peek, it keeps the overflow
// heap strictly beyond the horizon, so the wheel always holds the
// earliest pending event when it is non-empty. The empty-overflow case
// is a single inlined branch.
func (w *timingWheel) promote() {
	if len(w.over.ns) == 0 {
		return
	}
	w.promoteSlow()
}

func (w *timingWheel) promoteSlow() {
	for w.over.len() > 0 {
		h := w.over.head()
		tick := tickOf(h.at)
		if tick-w.cursor >= wheelSlots {
			return
		}
		w.over.popHead()
		w.pushSlot(h, int(tick&wheelMask))
		w.promotions++
	}
}

// firstOccupied returns the slot of the earliest pending tick. Must
// only be called with slotLen > 0. The bitmap scan starts at the
// cursor's slot and wraps once: slots behind the cursor's index hold
// later (wrapped) ticks.
func (w *timingWheel) firstOccupied() int {
	start := int(w.cursor) & wheelMask
	wi := start >> 6
	word := w.occupied[wi] &^ ((1 << (start & 63)) - 1)
	for range wheelWords + 1 {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi = (wi + 1) & (wheelWords - 1)
		word = w.occupied[wi]
	}
	panic("sim: timing wheel bitmap desynchronized")
}

// load materializes a slot into the fired buffer in (time, seq) order.
// Slots mostly hold one or a handful of events (the tick is on the
// order of one frame time), so tiny inputs take an insertion sort and
// only genuinely crowded ticks pay for the general sort.
func (w *timingWheel) load(slot int) {
	n := w.slots[slot]
	w.slots[slot] = nil
	w.occupied[slot>>6] &^= 1 << (slot & 63)
	for n != nil {
		next := n.next
		n.next = nil
		w.fired = append(w.fired, n)
		w.slotLen--
		n = next
	}
	if len(w.fired) <= 16 {
		for i := 1; i < len(w.fired); i++ {
			x := w.fired[i]
			j := i - 1
			for j >= 0 && nodeLess(x, w.fired[j]) {
				w.fired[j+1] = w.fired[j]
				j--
			}
			w.fired[j+1] = x
		}
	} else {
		slices.SortFunc(w.fired, nodeCmp)
	}
	w.firedIdx = 0
	w.firedTick = tickOf(w.fired[0].at)
	w.loaded = true
	if len(w.fired) > w.maxDepth {
		w.maxDepth = len(w.fired)
	}
}

// popAtMost removes and returns the earliest event, but only if its
// time is ≤ until. One traversal serves both the peek and the pop of
// the engine's Run loop. Must only be called when len() > 0 or with a
// finite until.
func (w *timingWheel) popAtMost(until Time) (Time, uint64, func(), bool) {
	w.promote()
	if !w.loaded {
		if w.slotLen > 0 {
			slot := w.firstOccupied()
			if n := w.slots[slot]; n.next == nil {
				// Singleton slot: fire without materializing a buffer.
				if n.at > until {
					return 0, 0, nil, false
				}
				w.slots[slot] = nil
				w.occupied[slot>>6] &^= 1 << (slot & 63)
				w.slotLen--
				w.cursor = tickOf(n.at)
				at, seq, fn := n.at, n.seq, n.fn
				w.release(n)
				return at, seq, fn, true
			}
			w.load(slot)
		} else {
			if len(w.over.ns) == 0 || w.over.head().at > until {
				return 0, 0, nil, false
			}
			n := w.over.popHead()
			w.cursor = tickOf(n.at)
			at, seq, fn := n.at, n.seq, n.fn
			w.release(n)
			return at, seq, fn, true
		}
	}
	n := w.fired[w.firedIdx]
	if n.at > until {
		return 0, 0, nil, false
	}
	w.fired[w.firedIdx] = nil
	w.firedIdx++
	if w.firedIdx == len(w.fired) {
		w.fired = w.fired[:0]
		w.firedIdx = 0
		w.loaded = false
	}
	w.cursor = w.firedTick
	at, seq, fn := n.at, n.seq, n.fn
	w.release(n)
	return at, seq, fn, true
}

// peek returns the earliest pending time, or Never: the loaded
// remainder's head, else the minimum of the first occupied slot's
// (unordered) list, else the overflow heap's head.
func (w *timingWheel) peek() Time {
	w.promote()
	switch {
	case w.loaded:
		return w.fired[w.firedIdx].at
	case w.slotLen > 0:
		n := w.slots[w.firstOccupied()]
		at := n.at
		for n = n.next; n != nil; n = n.next {
			at = min(at, n.at)
		}
		return at
	case len(w.over.ns) > 0:
		return w.over.head().at
	}
	return Never
}

// nodeHeap is a binary min-heap of overflow nodes ordered by (at, seq).
type nodeHeap struct {
	ns []*wheelNode
}

func (h *nodeHeap) len() int         { return len(h.ns) }
func (h *nodeHeap) head() *wheelNode { return h.ns[0] }

func (h *nodeHeap) push(n *wheelNode) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(h.ns[i], h.ns[parent]) {
			break
		}
		h.ns[i], h.ns[parent] = h.ns[parent], h.ns[i]
		i = parent
	}
}

func (h *nodeHeap) popHead() *wheelNode {
	n := len(h.ns) - 1
	top := h.ns[0]
	h.ns[0] = h.ns[n]
	h.ns[n] = nil
	h.ns = h.ns[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && nodeLess(h.ns[l], h.ns[least]) {
			least = l
		}
		if r < n && nodeLess(h.ns[r], h.ns[least]) {
			least = r
		}
		if least == i {
			break
		}
		h.ns[i], h.ns[least] = h.ns[least], h.ns[i]
		i = least
	}
	return top
}
