package main

// Latency statistics. A failed request (non-2xx, transport error, loud
// partial/degraded/truncated answer, or wrong answer) keeps its place
// in the sample set with an infinite latency, so it misses every
// latency limit instead of vanishing from the percentiles.

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Sample is one finished client request.
type Sample struct {
	Class string
	// Template names the work the request asks for; samples of one
	// template are repeats of one piece of work.
	Template string
	// Block is the read round the sample belongs to.
	Block  int
	Start  time.Time
	Dur    time.Duration
	Failed bool
	// Bytes is the response body size; WallMS the server's own timing.
	Bytes  int
	WallMS float64
}

// latencyMS returns the sample's latency in ms, +Inf for a failure.
func (s Sample) latencyMS() float64 {
	if s.Failed {
		return math.Inf(1)
	}
	return float64(s.Dur.Nanoseconds()) / 1e6
}

// latencies collects the latencies of the samples keep accepts, sorted.
func latencies(samples []Sample, keep func(Sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, s.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of sorted values (p in
// (0,1]); NaN for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// Tail is the tail-latency choice for one sample set.
type Tail struct {
	// P is the percentile used (0.99, 0.95 or 0.90).
	P     float64
	Value float64
	// Beyond is how many samples lie above the percentile's rank; N is
	// the sample count.
	Beyond int
	N      int
	// Short is true when even p90 leaves fewer than minBeyond samples
	// beyond it: the value is then p90 on too few samples to trust.
	Short bool
}

// minBeyond is how many samples a tail percentile must leave above it.
const minBeyond = 10

// tailOf picks the highest of p99, p95, p90 that leaves at least
// minBeyond samples beyond its nearest rank.
func tailOf(sorted []float64) Tail {
	n := len(sorted)
	for _, p := range []float64{0.99, 0.95, 0.90} {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			return Tail{P: p, Value: percentile(sorted, p), Beyond: n - rank, N: n}
		}
	}
	rank := int(math.Ceil(0.90 * float64(n)))
	return Tail{P: 0.90, Value: percentile(sorted, 0.90), Beyond: n - rank, N: n, Short: true}
}

// failures counts the failed samples.
func failures(samples []Sample) int {
	n := 0
	for _, s := range samples {
		if s.Failed {
			n++
		}
	}
	return n
}

// templateMedian is the median over templates of each template's
// median latency, among the samples keep accepts. The samples of one
// template ask for the same work (or, for enumerate offsets and root
// windows, for evenly spread draws over one range), so its median is
// that work's typical latency: host interference that slows a minority of the template's
// samples leaves it where it was, and so does the seed, which moves
// where in the run each sample falls but not which templates the run
// holds. A pooled median would mix the templates in proportions that
// shift with both.
func templateMedian(samples []Sample, keep func(Sample) bool) float64 {
	byTemplate := map[string][]float64{}
	for _, s := range samples {
		if keep == nil || keep(s) {
			byTemplate[s.Template] = append(byTemplate[s.Template], s.latencyMS())
		}
	}
	if len(byTemplate) == 0 {
		return math.NaN()
	}
	var meds []float64
	for _, l := range byTemplate {
		sort.Float64s(l)
		meds = append(meds, percentile(l, 0.5))
	}
	sort.Float64s(meds)
	return percentile(meds, 0.5)
}

// median of unsorted values; 0 when empty (a layer the run did not
// cross spent no time in it).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// heapMB forces two collections and returns HeapInuse in MiB, so the
// figure is the live heap, not garbage awaiting the next cycle (the
// second cycle also empties the sync.Pool victim caches).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// jsonNumber makes a metric value JSON-safe: an infinite latency (the
// median or tail landed on failed requests) is reported as the largest
// float, which misses every limit; NaN (no samples) as 0.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}
