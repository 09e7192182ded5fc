// Package telemetry is the node-wide observability layer: a
// dependency-free metrics registry (counters, gauges, mergeable
// log-bucketed histograms) with Prometheus text exposition, a
// block-lifecycle tracer that localizes latency to pipeline stages, and
// an ops HTTP server exposing /metrics, /statusz, /healthz, and pprof.
//
// The package is a leaf: it imports only the standard library and nothing
// from this repo, so every subsystem (execution, ordering, persist,
// state, transport) can register its counters without cycles.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Buckets are
// powers of two indexed by bit length, so the histogram covers the full
// uint64 range in constant memory and two histograms always merge
// bucket-for-bucket — no reservoir, no rebinning.
const NumBuckets = 64

// Histogram is a log-bucketed (power-of-two) histogram of non-negative
// int64 observations. Bucket i counts values with bit length i, i.e.
// bucket 0 holds value 0, bucket i>0 holds [2^(i-1), 2^i - 1]. Count,
// sum, and max are exact; quantiles are estimated by linear
// interpolation within a bucket, so the relative error of a quantile is
// bounded by the bucket width (a factor of two).
//
// All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [NumBuckets]uint64
	count   uint64
	sum     int64
	max     int64
}

// bucketOf returns the bucket index for a value (negatives clamp to 0).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Observe records one value. Negative values clamp to zero (stage
// deltas can go slightly negative when two timestamps are taken across
// goroutines; clamping keeps the histogram meaningful).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Reset clears all buckets and aggregates, e.g. at the end of a
// measurement warm-up phase.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.buckets = [NumBuckets]uint64{}
	h.count = 0
	h.sum = 0
	h.max = 0
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     int64
	Max     int64
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{Buckets: h.buckets, Count: h.count, Sum: h.sum, Max: h.max}
}

// Merge folds other into h bucket-for-bucket. Because every histogram
// shares the same fixed power-of-two buckets, merging loses nothing
// beyond the bucketing already applied at Observe time.
func (h *Histogram) Merge(other HistogramSnapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range other.Buckets {
		h.buckets[i] += c
	}
	h.count += other.Count
	h.sum += other.Sum
	if other.Max > h.max {
		h.max = other.Max
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// holding the q-th observation and interpolating linearly inside it.
// The true max caps the estimate so q=1 is exact.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, ceil(q*count) clamped to
	// [1, count] — consistent with sorted-slice percentile indexing.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketLower(i), BucketUpper(i)
			if hi > s.Max {
				hi = s.Max // never report beyond the observed max
			}
			if hi < lo {
				return hi
			}
			// Position of the target within this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.Max
}

// Mean returns the exact mean of all observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// LatencyStats summarizes a histogram of nanosecond observations: the
// percentile snapshot the bench harness and parclient report. Count,
// Mean and Max are exact; the percentiles come from the same bucket code
// the ops server exposes, so a bench percentile and a /metrics percentile
// of the same samples agree by construction (relative error bounded by
// one power-of-two bucket, interpolated within it; never above Max).
type LatencyStats struct {
	Count              int64
	Mean               time.Duration
	P50, P90, P95, P99 time.Duration
	Max                time.Duration
}

// Latency reads the snapshot as latency statistics.
func (s HistogramSnapshot) Latency() LatencyStats {
	return LatencyStats{
		Count: int64(s.Count),
		Mean:  time.Duration(s.Mean()),
		P50:   time.Duration(s.Quantile(0.50)),
		P90:   time.Duration(s.Quantile(0.90)),
		P95:   time.Duration(s.Quantile(0.95)),
		P99:   time.Duration(s.Quantile(0.99)),
		Max:   time.Duration(s.Max),
	}
}
