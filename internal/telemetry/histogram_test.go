package telemetry

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must tile the non-negative int64 range.
	for i := 1; i < NumBuckets; i++ {
		if bucketLower(i) != BucketUpper(i-1)+1 {
			t.Errorf("bucket %d lower %d does not follow bucket %d upper %d",
				i, bucketLower(i), i-1, BucketUpper(i-1))
		}
		if bucketOf(bucketLower(i)) != i || bucketOf(BucketUpper(i)) != i {
			t.Errorf("bucket %d bounds [%d, %d] do not map back to bucket %d",
				i, bucketLower(i), BucketUpper(i), i)
		}
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	var h Histogram
	vals := []int64{0, 1, 3, 7, 100, 1e6, 5, 5, 5, -3}
	var sum, max int64
	for _, v := range vals {
		h.Observe(v)
		cv := v
		if cv < 0 {
			cv = 0
		}
		sum += cv
		if cv > max {
			max = cv
		}
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Max != max {
		t.Fatalf("max = %d, want %d", s.Max, max)
	}
}

// Quantile estimates must land within the bucket that holds the true
// quantile: relative error bounded by a factor of two, and never above
// the observed max.
func TestHistogramQuantileWithinBucket(t *testing.T) {
	var h Histogram
	var vals []int64
	v := int64(1)
	for i := 0; i < 1000; i++ {
		h.Observe(v)
		vals = append(vals, v)
		v = v*7%100003 + 1 // deterministic spread over ~[1, 100003]
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := vals[idx]
		got := s.Quantile(q)
		lo, hi := bucketLower(bucketOf(exact)), BucketUpper(bucketOf(exact))
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %d outside exact value %d's bucket [%d, %d]", q, got, exact, lo, hi)
		}
		if got > s.Max {
			t.Errorf("Quantile(%v) = %d exceeds max %d", q, got, s.Max)
		}
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("Quantile(1) = %d, want exact max %d", got, s.Max)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(0); i < 500; i++ {
		a.Observe(i * 3)
		both.Observe(i * 3)
	}
	for i := int64(0); i < 300; i++ {
		b.Observe(i * 17)
		both.Observe(i * 17)
	}
	a.Merge(b.Snapshot())
	got, want := a.Snapshot(), both.Snapshot()
	if got != want {
		t.Fatalf("merged snapshot differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Observe(seed*per + i)
			}
		}(int64(w))
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
}

func TestLatencyStats(t *testing.T) {
	var h Histogram
	if s := h.Snapshot().Latency(); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(int64(time.Duration(i) * time.Millisecond))
	}
	snap := h.Snapshot()
	s := snap.Latency()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms (exact)", s.Mean)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("Max = %v (exact)", s.Max)
	}
	// Percentiles come from power-of-two buckets: each estimate must land
	// within a factor of two of the exact value, never above the max, and
	// agree with the bucket code /metrics uses.
	for _, c := range []struct {
		name  string
		q     float64
		got   time.Duration
		exact time.Duration
	}{
		{"P50", 0.50, s.P50, 50 * time.Millisecond},
		{"P90", 0.90, s.P90, 90 * time.Millisecond},
		{"P95", 0.95, s.P95, 95 * time.Millisecond},
		{"P99", 0.99, s.P99, 99 * time.Millisecond},
	} {
		if c.got < c.exact/2 || c.got > 2*c.exact {
			t.Errorf("%s = %v, want within 2x of %v", c.name, c.got, c.exact)
		}
		if c.got > s.Max {
			t.Errorf("%s = %v exceeds max %v", c.name, c.got, s.Max)
		}
		if want := time.Duration(snap.Quantile(c.q)); c.got != want {
			t.Errorf("%s = %v, Quantile(%v) says %v", c.name, c.got, c.q, want)
		}
	}
	if s.P90 < s.P50 || s.P95 < s.P90 || s.P99 < s.P95 || s.Max < s.P99 {
		t.Fatal("percentiles must be monotone")
	}

	h.Reset()
	if s := h.Snapshot().Latency(); s.Count != 0 || s.Max != 0 {
		t.Fatalf("post-reset snapshot = %+v", s)
	}
}

// Memory is constant no matter the sample count (log-bucketed histogram,
// no reservoir) and the count stays exact.
func TestLatencyStatsUnboundedSamples(t *testing.T) {
	var h Histogram
	const n = 1 << 19
	for i := 0; i < n; i++ {
		h.Observe(int64(time.Microsecond))
	}
	s := h.Snapshot().Latency()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d (exact at any volume)", s.Count, n)
	}
	if s.P99 > 2*time.Microsecond || s.P99 == 0 {
		t.Fatalf("P99 = %v, want ~1µs", s.P99)
	}
}
