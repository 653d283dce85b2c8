package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"

	"optanesim/internal/sim"
)

// probeRefSeconds is hostProbe's median time on the reference host, a
// 2-vCPU Intel Xeon VM in a quiet period. The end-to-end times are
// scaled to that host's speed (see README.md).
const probeRefSeconds = 0.240

// hostProbe is a fixed piece of host work in the benchmark's own code:
// dependent loads over a 32 MB array, then branchy integer work on a
// cache-resident table. No change to the simulator makes it faster or
// slower, so its time tracks only how fast the host runs at the moment.
//
// The array is mapped outside the Go heap: a 32 MB live object would
// raise the collector's heap goal and change how often the measured
// passes collect.
type hostProbe struct {
	next  []uint32
	table []uint32
}

func newHostProbe() (*hostProbe, error) {
	const n = 8 << 20
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map host probe array: %w", err)
	}
	h := &hostProbe{next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n), table: make([]uint32, 16<<10)}
	rng := sim.NewRand(1)
	perm := rng.Perm(n)
	for i := range perm {
		h.next[perm[i]] = uint32(perm[(i+1)%n])
	}
	for i := range h.table {
		h.table[i] = uint32(rng.Uint64())
	}
	return h, nil
}

// probeSink keeps the probe's result live, so the compiler cannot drop
// the work.
var probeSink uint64

// time runs the probe once and returns its host seconds.
func (h *hostProbe) time() float64 {
	start := time.Now()
	var x uint32
	for i := 0; i < 900_000; i++ {
		x = h.next[x]
	}
	acc := uint64(x)
	for i := 0; i < 12_000_000; i++ {
		v := h.table[(acc^uint64(i))&uint64(len(h.table)-1)]
		if v&1 == 0 {
			acc += uint64(v)
		} else {
			acc ^= uint64(v) << 7
		}
		acc = acc*0x9E3779B97F4A7C15 + 1
	}
	probeSink += acc
	return time.Since(start).Seconds()
}
