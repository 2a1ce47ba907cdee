package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the nearest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the Go heap in use — bytes in spans holding
// objects, live or not yet swept — every few milliseconds. The
// highest value of a whole run mostly records where one collection's
// trigger happened to fall; peakMB instead takes the highest value in
// each window of the timed phase (one operation, or one second of
// traffic) and reports the median over windows: the heap a run
// typically peaks at while it works.
type heapSampler struct {
	stopc   chan struct{}
	once    sync.Once
	done    chan struct{}
	mu      sync.Mutex
	samples []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			hs.mu.Lock()
			hs.samples = append(hs.samples, heapSample{time.Now(), sample[0].Value.Uint64()})
			hs.mu.Unlock()
			select {
			case <-hs.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stop ends sampling; it may be called more than once.
func (hs *heapSampler) stop() {
	hs.once.Do(func() { close(hs.stopc) })
	<-hs.done
}

// window is a [start, end) interval of the timed phase.
type window [2]time.Time

// peakMB returns the median over windows of each window's highest heap
// sample, in MB.
func (hs *heapSampler) peakMB(windows []window) float64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	var peaks []float64
	for _, w := range windows {
		var peak uint64
		seen := false
		for _, s := range hs.samples {
			if !s.at.Before(w[0]) && s.at.Before(w[1]) {
				peak, seen = max(peak, s.bytes), true
			}
		}
		if seen {
			peaks = append(peaks, float64(peak)/(1<<20))
		}
	}
	return median(peaks)
}

// secondWindows splits [start, end) into one-second windows.
func secondWindows(start, end time.Time) []window {
	var out []window
	for t := start; t.Before(end); t = t.Add(time.Second) {
		out = append(out, window{t, t.Add(time.Second)})
	}
	return out
}
