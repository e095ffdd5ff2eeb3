package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The TestSPSC* names are those of the tests of the bounded SPSC ring
// that Ring replaced; each now checks the same behaviour of Ring.

// TestSPSCBasic: items pop in push order, and a pop from an empty ring
// (the zero value included) reports none and returns the zero value.
func TestSPSCBasic(t *testing.T) {
	var r Ring[int]
	if v, ok := r.Pop(); ok || v != 0 {
		t.Fatalf("pop from the zero ring = %d, %v", v, ok)
	}
	r.Push(1)
	r.Push(2)
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	for _, want := range []int{1, 2} {
		if v, ok := r.Pop(); !ok || v != want {
			t.Fatalf("pop = %d, %v, want %d", v, ok, want)
		}
	}
	if v, ok := r.Pop(); ok || v != 0 {
		t.Fatalf("pop from an emptied ring = %d, %v", v, ok)
	}
}

// TestSPSCFull: a push onto a ring whose buffer is full grows it
// instead of refusing, also when the items have wrapped round; the
// descriptor bound is the NIC's (burst_test.go).
func TestSPSCFull(t *testing.T) {
	var r Ring[int]
	for i := range 8 {
		r.Push(i)
	}
	if r.Len() != len(r.buf) {
		t.Fatalf("len %d, buffer %d: not full", r.Len(), len(r.buf))
	}
	for range 3 {
		r.Pop()
	}
	for i := 8; i < 11; i++ {
		r.Push(i) // wraps into the three popped slots: full again
	}
	r.Push(11)
	if r.Len() != 9 || len(r.buf) != 16 {
		t.Fatalf("len %d, buffer %d after pushing onto a full ring, want 9, 16", r.Len(), len(r.buf))
	}
	for want := 3; want < 12; want++ {
		if v, ok := r.Pop(); !ok || v != want {
			t.Fatalf("pop = %d, %v, want %d", v, ok, want)
		}
	}
}

// TestSPSCPeek: Peek returns the head without consuming it.
func TestSPSCPeek(t *testing.T) {
	var r Ring[string]
	if _, ok := r.Peek(); ok {
		t.Fatal("peek on empty ring")
	}
	r.Push("x")
	r.Push("y")
	if v, ok := r.Peek(); !ok || v != "x" {
		t.Fatalf("peek = %q, %v", v, ok)
	}
	if r.Len() != 2 {
		t.Fatal("peek consumed the item")
	}
	if v, _ := r.Pop(); v != "x" {
		t.Fatalf("pop after peek = %q", v)
	}
}

// TestSPSCWraparound: a ring that stays below its buffer's length
// wraps round it without growing or allocating.
func TestSPSCWraparound(t *testing.T) {
	var r Ring[int]
	round := 0
	cycle := func() {
		for i := range 3 {
			r.Push(round*10 + i)
		}
		for i := range 3 {
			if v, ok := r.Pop(); !ok || v != round*10+i {
				t.Fatalf("round %d pop got %d, %v", round, v, ok)
			}
		}
		round++
	}
	cycle() // first push allocates the 8-slot buffer
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per push/pop cycle at working depth", allocs)
	}
	if len(r.buf) != 8 {
		t.Fatalf("buffer grew to %d slots at a depth of 3", len(r.buf))
	}
}

// TestSPSCModelProperty: any interleaving of Push, Pop, Peek and At
// behaves like a slice used as a queue. Runs of pushes grow the ring
// several times over, and the pops between them leave the head in the
// middle of the buffer, so grows also move wrapped items.
func TestSPSCModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var r Ring[int]
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push 1 to 64 items
				for range 1 + int(op>>2) {
					r.Push(next)
					model = append(model, next)
					next++
				}
			case 2: // pop 1 to 64 items, one past the end at most
				for range 1 + int(op>>2) {
					v, ok := r.Pop()
					if ok != (len(model) > 0) {
						return false
					}
					if !ok {
						break
					}
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				v, ok := r.Peek()
				if ok != (len(model) > 0) || ok && v != model[0] {
					return false
				}
			}
			if r.Len() != len(model) {
				return false
			}
			for i, want := range model {
				if r.At(i) != want {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPopZeroesSlot: a popped slot drops its reference, and so does
// the slot a wrapped item leaves when the ring grows, so the ring
// never pins what it no longer holds.
func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	for i := range 8 {
		r.Push(&i)
	}
	for range 3 {
		r.Pop()
	}
	for i := range 3 {
		r.Push(&i) // wraps into the three popped slots
	}
	r.Push(new(int)) // full: grows and moves the wrapped three
	live := map[int]bool{}
	for i := range r.Len() {
		live[int((r.head+uint(i))&uint(len(r.buf)-1))] = true
	}
	for s, p := range r.buf {
		if !live[s] && p != nil {
			t.Fatalf("slot %d holds a reference after growing", s)
		}
	}
	for r.Len() > 0 {
		s := r.head & uint(len(r.buf)-1)
		r.Pop()
		if r.buf[s] != nil {
			t.Fatalf("slot %d holds a reference after Pop", s)
		}
	}
}
