package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// reportedPercentiles are the latency percentiles the benchmark reports.
var reportedPercentiles = []float64{50, 90}

// rank is the nearest-rank index (1-based) of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestSupported is the highest of the candidate percentiles that has at
// least minBeyond samples beyond it in n samples, or 0 when none has.
func highestSupported(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if beyond(n, p) >= minBeyond && p > best {
			best = p
		}
	}
	return best
}

// minSamples is the smallest sample count that supports every reported
// percentile.
func minSamples() int {
	n := 1
	for highestSupported(n, reportedPercentiles) < reportedPercentiles[len(reportedPercentiles)-1] {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMiB forces a collection and returns the live heap in MiB; callers
// keep the state they want counted reachable across the call. The second
// collection empties the sync.Pool victim caches the first one leaves, so
// pooled scratch buffers do not count as live.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
