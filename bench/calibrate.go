package main

import (
	"math/rand"
	"time"
)

// calRef is the calibration kernel's time on the reference host. The
// timing metrics are scaled to it: a run on a host whose kernel takes
// 2×calRef reports half its measured times.
const calRef = 100 * time.Millisecond

// calibrate times a fixed synthetic kernel made of the operations the
// simulator's hot path is made of: binary-heap pushes and pops, map
// updates, 64-byte copies strided through a buffer larger than the
// caches, and goroutine handoffs over unbuffered channels. The kernel
// is part of the benchmark, not of the program under test, so its time
// moves only with the host's speed, which on a shared VM can swing by
// 2× within an hour as other tenants come and go.
func calibrate() time.Duration {
	const (
		iters    = 300000
		heapCap  = 1 << 15
		mapCap   = 1 << 15
		keySpace = 1 << 18
		stride   = 4096 + 64
	)
	r := rand.New(rand.NewSource(1))
	h := make([]int64, 0, heapCap+1)
	m := make(map[int64]int, mapCap)
	buf := make([]byte, 8<<20)
	var src [64]byte
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	defer close(ping)

	t0 := time.Now()
	off := 0
	for i := 0; i < iters; i++ {
		h = append(h, r.Int63())
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		if len(h) > heapCap {
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for k := 0; ; {
				l := 2*k + 1
				if l >= n {
					break
				}
				if l+1 < n && h[l+1] < h[l] {
					l++
				}
				if h[k] <= h[l] {
					break
				}
				h[k], h[l] = h[l], h[k]
				k = l
			}
		}
		m[r.Int63n(keySpace)]++
		if len(m) > mapCap {
			clear(m)
		}
		copy(buf[off:], src[:])
		off = (off + stride) % (len(buf) - len(src))
		if i%4 == 0 {
			ping <- struct{}{}
			<-pong
		}
	}
	return time.Since(t0)
}

// scaled converts a time measured on this host to the reference host.
func scaled(v float64, cal time.Duration) float64 {
	return v * float64(calRef) / float64(cal)
}
