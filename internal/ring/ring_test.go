package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// soakItems picks the item count for the concurrent soak tests: enough
// to exercise wraparound and contention in -short CI runs, a longer
// soak otherwise. The spin loops yield (runtime.Gosched) so the test
// does not degenerate into scheduler-starved busy waiting on small
// machines.
func soakItems(full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 127: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSPSCBasic(t *testing.T) {
	r := NewSPSC[int](4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	if !r.EnqueueOne(1) || !r.EnqueueOne(2) {
		t.Fatal("enqueue failed on empty ring")
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	v, ok := r.DequeueOne()
	if !ok || v != 1 {
		t.Fatalf("dequeue = %d, %v", v, ok)
	}
	v, ok = r.DequeueOne()
	if !ok || v != 2 {
		t.Fatalf("dequeue = %d, %v", v, ok)
	}
	if _, ok := r.DequeueOne(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
}

func TestSPSCFull(t *testing.T) {
	r := NewSPSC[int](4)
	for i := 0; i < 4; i++ {
		if !r.EnqueueOne(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.EnqueueOne(99) {
		t.Fatal("enqueue into full ring succeeded")
	}
	if r.Free() != 0 {
		t.Fatalf("free = %d", r.Free())
	}
}

func TestSPSCBulkShortCount(t *testing.T) {
	r := NewSPSC[int](8)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	n := r.EnqueueBurst(in)
	if n != 8 {
		t.Fatalf("bulk enqueue = %d, want 8", n)
	}
	out := make([]int, 16)
	m := r.DequeueBurst(out)
	if m != 8 {
		t.Fatalf("bulk dequeue = %d, want 8", m)
	}
	for i := 0; i < 8; i++ {
		if out[i] != i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestSPSCPeek(t *testing.T) {
	r := NewSPSC[string](2)
	if _, ok := r.Peek(); ok {
		t.Fatal("peek on empty ring")
	}
	r.EnqueueOne("x")
	v, ok := r.Peek()
	if !ok || v != "x" {
		t.Fatalf("peek = %q, %v", v, ok)
	}
	if r.Len() != 1 {
		t.Fatal("peek consumed the item")
	}
}

func TestSPSCWraparound(t *testing.T) {
	r := NewSPSC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.EnqueueOne(round*10 + i) {
				t.Fatalf("round %d enqueue %d failed", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.DequeueOne()
			if !ok || v != round*10+i {
				t.Fatalf("round %d dequeue got %d, %v", round, v, ok)
			}
		}
	}
}

// TestSPSCConcurrent checks FIFO order and no loss/duplication with a
// real producer/consumer goroutine pair.
func TestSPSCConcurrent(t *testing.T) {
	total := soakItems(60000)
	r := NewSPSC[int](128)
	var got []int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.EnqueueOne(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]int, 32)
		for len(got) < total {
			n := r.DequeueBurst(buf)
			got = append(got, buf[:n]...)
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	if len(got) != total {
		t.Fatalf("received %d items, want %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

// Property: any interleaved sequence of enqueues and dequeues on a single
// goroutine behaves identically to a model queue (slice).
func TestSPSCModelProperty(t *testing.T) {
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := int(capSeed%32) + 1
		r := NewSPSC[int](capacity)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ok := r.EnqueueOne(next)
				modelOK := len(model) < r.Cap()
				if ok != modelOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.DequeueOne()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return r.Len() == len(model)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSPSC[int](0) },
		func() { NewSPSC[int](-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid capacity did not panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkSPSCEnqueueDequeue(b *testing.B) {
	r := NewSPSC[int](1024)
	batch := make([]int, 32)
	out := make([]int, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(batch)
		r.DequeueBurst(out)
	}
}

// TestBurstNamesAreCanonical: EnqueueBurst/DequeueBurst are the burst
// API the datapath uses, with rte_ring short-count semantics.
func TestBurstNamesAreCanonical(t *testing.T) {
	r := NewSPSC[int](8)
	in := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if n := r.EnqueueBurst(in); n != 8 {
		t.Fatalf("SPSC EnqueueBurst = %d, want 8 (short count on full)", n)
	}
	out := make([]int, 16)
	if n := r.DequeueBurst(out); n != 8 {
		t.Fatalf("SPSC DequeueBurst = %d", n)
	}
	for i := 0; i < 8; i++ {
		if out[i] != in[i] {
			t.Fatalf("burst order broken at %d: %d", i, out[i])
		}
	}
}

func BenchmarkSPSCBurst32(b *testing.B) {
	r := NewSPSC[int](1024)
	batch := make([]int, 32)
	out := make([]int, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(batch)
		r.DequeueBurst(out)
	}
}
