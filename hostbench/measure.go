package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one host-time interval the benchmark recorded around a call
// into a layer. Op is the op index that caused it (-1 for set-up).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spans buffers the traced run's host spans in memory; they are written
// out when the benchmark ends. A nil *spans records nothing and costs one
// branch, so the untraced runs call the same code paths.
type spans struct {
	origin time.Time
	op     int
	recs   []span
}

func newSpans() *spans { return &spans{origin: time.Now(), op: -1} }

// begin returns the start time of a span (zero when tracing is off).
func (s *spans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span opened by begin.
func (s *spans) end(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.add(name, t0, time.Since(t0))
}

// add records a span whose duration was measured elsewhere.
func (s *spans) add(name string, t0 time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.recs = append(s.recs, span{Name: name, Op: s.op, StartNS: int64(t0.Sub(s.origin)), DurNS: int64(d)})
}

// medianDur returns the median duration of the named spans, in the given
// unit, and whether any were recorded.
func (s *spans) medianDur(name string, unit time.Duration) (float64, bool) {
	var v []float64
	for _, r := range s.recs {
		if r.Name == name {
			v = append(v, float64(r.DurNS)/float64(unit))
		}
	}
	if len(v) == 0 {
		return 0, false
	}
	return median(v), true
}

// median returns the middle value of v (the mean of the two middle ones
// for an even count). v is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, its value and the number of samples beyond it. ok
// is false when v has too few samples for any percentile to qualify.
func tail(v []float64) (pct, value float64, beyond int, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90} {
		idx := int(math.Ceil(p/100*float64(len(s)))) - 1
		if idx < 0 {
			continue
		}
		if n := len(s) - 1 - idx; n >= 10 {
			return p, s[idx], n, true
		}
	}
	return 0, 0, 0, false
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (the bytes the last garbage
// collection marked) while a phase runs. Live bytes, unlike all heap
// objects, do not depend on how far the collector lagged behind. It polls
// runtime/metrics; the goroutine sleeps between reads and stops (and is
// waited for) in stop.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func readHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: readHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				if v := readHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// gcCounters reads the runtime's cumulative GC CPU, used CPU and GC cycle
// count, for the traced run's gc.* metrics.
func gcCounters() (gcCPU, usedCPU, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64(), float64(s[3].Value.Uint64())
}

// allocCounters returns the cumulative bytes and objects the heap has
// allocated. runtime/metrics reads them without stopping the world; they
// lag by at most one span per size class, which chunks of ops absorb.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}
