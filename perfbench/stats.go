package main

import (
	"math"
	"runtime/metrics"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, lowered where
// needed so that at least minBeyond samples lie above it, together with
// the quantile actually reported and the sample count. With fewer than
// minBeyond+1 samples no rank qualifies and ok is false.
func percentile(xs []float64, q float64) (v, qEff float64, n int, ok bool) {
	n = len(xs)
	if n <= minBeyond {
		return 0, 0, n, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1-minBeyond))
	return s[idx], float64(idx+1) / float64(n), n, true
}

// median returns the middle sample (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Runtime counters read from runtime/metrics.
const (
	mAllocs    = "/gc/heap/allocs:bytes"
	mLive      = "/gc/heap/live:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	numSamples = 4
)

// runtimeStats is one reading of the runtime counters the benchmark
// reports.
type runtimeStats struct {
	allocs, live, gcCycles uint64
	gcPause                float64 // seconds, estimated from the pause histogram
}

// runtimeReader reads the runtime counters, reusing its sample buffers.
type runtimeReader struct {
	s [numSamples]metrics.Sample
}

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{s: [numSamples]metrics.Sample{{Name: mAllocs}, {Name: mLive}, {Name: mGCCycles}, {Name: mGCPauses}}}
}

func (r *runtimeReader) read() runtimeStats {
	metrics.Read(r.s[:])
	return runtimeStats{
		allocs:   r.s[0].Value.Uint64(),
		live:     r.s[1].Value.Uint64(),
		gcCycles: r.s[2].Value.Uint64(),
		gcPause:  histSum(r.s[3].Value.Float64Histogram()),
	}
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: mAllocs}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// histSum estimates the sum of a runtime histogram's samples, taking
// each bucket at the midpoint of its finite bounds.
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}
