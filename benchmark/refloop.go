package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference loop gauges the host's speed while a workload runs. Wall
// time on a shared host drifts: the same episode costs up to twice as much
// a minute later, when other tenants load the machine's caches and memory.
// A timed phase therefore runs in short slices with a burst of the
// reference loop after each, and every wall-clock metric is scaled by how
// fast the loop ran against refStepNs, its cost per step on a quiet
// 2-vCPU host. The loop is a fixed miniature of the simulator's hot path
// (an event heap, goroutine hand-offs, map updates, scattered memory
// reads and writes), so it slows down with the simulator, and it is code
// of the benchmark, so a change to the simulator leaves it alone. It
// allocates nothing after it starts and keeps its working set outside the
// Go heap, so it leaves the episode's GC work and pacing as they were.

const (
	refStepNs   = 1000.0  // the loop's cost per step on a quiet host
	refProcs    = 16      // goroutines the loop's events hand control to
	refKeys     = 4096    // map entries, updated in place
	refMemWords = 1 << 19 // 4 MB of scattered reads and writes
	refBurst    = 1000    // steps per burst
	refLabel    = "refloop"
)

type refEvent struct {
	at, seq uint64
	proc    int
}

type refLoop struct {
	heap  []refEvent // min-heap by (at, seq)
	seq   uint64
	rng   uint64
	table map[uint64]uint64
	mem   []uint64
	wake  [refProcs]chan struct{}
	turn  chan struct{}
	procs sync.WaitGroup
	// labels tag the loop's CPU profile samples so that the per-package
	// shares leave it out (see cpuShares).
	labels context.Context

	steps   int           // steps run so far
	elapsed time.Duration // wall time spent in them
}

func newRefLoop() (*refLoop, error) {
	b, err := syscall.Mmap(-1, 0, refMemWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference loop's memory: %w", err)
	}
	l := &refLoop{rng: 0x9e3779b97f4a7c15, table: make(map[uint64]uint64, refKeys),
		mem: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refMemWords), turn: make(chan struct{}),
		labels: pprof.WithLabels(context.Background(), pprof.Labels(refLabel, refLabel))}
	for i := range l.mem {
		l.mem[i] = uint64(i)
	}
	for k := uint64(0); k < refKeys; k++ {
		l.table[k*0x9e3779b97f4a7c15] = k
	}
	for i := range l.wake {
		l.wake[i] = make(chan struct{})
		l.procs.Add(1)
		go l.proc(i)
		l.push(l.next()%1000, i)
	}
	return l, nil
}

// next is a SplitMix64 step.
func (l *refLoop) next() uint64 {
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// proc is one of the loop's processes: each time it is handed control it
// does one step's work, schedules its next wake-up and hands control back.
func (l *refLoop) proc(i int) {
	defer l.procs.Done()
	pprof.SetGoroutineLabels(l.labels)
	for range l.wake[i] {
		now := l.heap[0].at // the event being dispatched (popped after)
		for j := 0; j < 4; j++ {
			k := (l.next() % refKeys) * 0x9e3779b97f4a7c15
			l.table[k] += now
			w := l.next() % refMemWords
			l.mem[w] += l.mem[(w*7+1)%refMemWords] + uint64(j)
		}
		l.turn <- struct{}{}
	}
}

// burst runs refBurst steps and adds them to the loop's totals.
func (l *refLoop) burst() {
	pprof.SetGoroutineLabels(l.labels)
	defer pprof.SetGoroutineLabels(context.Background()) // the episode's goroutine has no labels of its own
	start := time.Now()
	for n := 0; n < refBurst; n++ {
		ev := l.heap[0]
		l.wake[ev.proc] <- struct{}{}
		<-l.turn
		l.pop()
		l.push(ev.at+1+l.next()%1000, ev.proc)
	}
	l.elapsed += time.Since(start)
	l.steps += refBurst
}

// stop ends the loop's goroutines, waits for them, and releases its memory.
func (l *refLoop) stop() {
	for _, c := range l.wake {
		close(c)
	}
	l.procs.Wait()
	// A failed unmap only keeps 4 MB mapped until the process exits.
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&l.mem[0])), refMemWords*8))
	l.mem = nil
}

func (l *refLoop) push(at uint64, proc int) {
	l.seq++
	l.heap = append(l.heap, refEvent{at, l.seq, proc})
	h := l.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (l *refLoop) pop() {
	h := l.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m, c := i, 2*i+1
		if c < n && h[c].before(h[m]) {
			m = c
		}
		if c+1 < n && h[c+1].before(h[m]) {
			m = c + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	l.heap = h
}

func (a refEvent) before(b refEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }
