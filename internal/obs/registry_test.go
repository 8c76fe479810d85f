package obs

import (
	"sync"
	"testing"
	"time"
)

// histSnapshot is the per-bucket (not cumulative) view of a histogram these
// tests assert on; production reads Cumulative.
type histSnapshot struct {
	Count, SumNS, Overflow int64
	Buckets                []HistogramBucket
}

func (h *Histogram) Snapshot() histSnapshot {
	s := histSnapshot{Count: h.count.Load(), SumNS: h.sum.Load(), Overflow: h.over.Load()}
	for i, b := range h.bounds {
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: time.Duration(b), Count: h.counts[i].Load()})
	}
	return s
}

// TestZeroValuesAreReady: every primitive and the registry itself must work
// from their zero value, since producers never register before use.
func TestZeroValuesAreReady(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("zero-value Counter = %d, want 5", c.Load())
	}
	c.Store(2)
	if c.Load() != 2 {
		t.Errorf("Counter after Store = %d, want 2", c.Load())
	}

	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Errorf("zero-value Gauge = %d, want 4", g.Load())
	}

	// The zero-value histogram has no buckets: it records count and sum only,
	// and must not count overflow either.
	var h Histogram
	h.Observe(time.Second)
	h.Observe(2 * time.Second)
	if h.Count() != 2 || h.Sum() != 3*time.Second {
		t.Errorf("zero-value Histogram count=%d sum=%v, want 2, 3s", h.Count(), h.Sum())
	}
	s := h.Snapshot()
	if len(s.Buckets) != 0 || s.Overflow != 0 {
		t.Errorf("zero-value Histogram snapshot = %+v, want no buckets, no overflow", s)
	}

	var r Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(9)
	r.Histogram("c").Observe(time.Millisecond)
	if got := r.Counter("a").Load(); got != 1 {
		t.Errorf("zero-value Registry counter = %d, want 1", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-le semantics: a value
// exactly on a bound lands in that bucket, one nanosecond above spills to
// the next, and values beyond every bound count as overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{10, 100, 1000}
	h := NewHistogram(bounds)
	h.Observe(10)   // == bound 0: bucket 0
	h.Observe(11)   // just above: bucket 1
	h.Observe(100)  // == bound 1: bucket 1
	h.Observe(1000) // == bound 2: bucket 2
	h.Observe(1001) // above all: overflow
	h.Observe(0)    // below all: bucket 0

	s := h.Snapshot()
	wantCounts := []int64{2, 2, 1}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket le=%v count = %d, want %d", s.Buckets[i].UpperBound, s.Buckets[i].Count, want)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if s.Count != 6 || s.SumNS != 10+11+100+1000+1001 {
		t.Errorf("count=%d sum=%d, want 6, %d", s.Count, s.SumNS, 10+11+100+1000+1001)
	}
}

// TestNewHistogramSortsBounds: unsorted bounds are accepted and sorted, so
// bucketing stays correct regardless of declaration order.
func TestNewHistogramSortsBounds(t *testing.T) {
	h := NewHistogram([]time.Duration{1000, 10, 100})
	h.Observe(50)
	s := h.Snapshot()
	if s.Buckets[0].UpperBound != 10 || s.Buckets[1].Count != 1 {
		t.Errorf("unsorted bounds mishandled: %+v", s.Buckets)
	}
}

// TestRegistryGetOrCreate: repeated lookups return the same handle, and
// HistogramWith only applies bounds on first creation.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter lookups returned different handles")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Error("Gauge lookups returned different handles")
	}
	h1 := r.HistogramWith("h", []time.Duration{5})
	h2 := r.HistogramWith("h", []time.Duration{1, 2, 3})
	if h1 != h2 {
		t.Error("Histogram lookups returned different handles")
	}
	if got := len(h1.Snapshot().Buckets); got != 1 {
		t.Errorf("later bounds overrode the histogram: %d buckets, want 1", got)
	}

	names := r.Names()
	want := []string{"h", "x", "y"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — the
// interesting assertions are the data-race checks under `go test -race`.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter(CMessages).Inc()
				r.Gauge(GMaxPartitions).Set(int64(i))
				r.Histogram(HSuperstepBarrierNS).Observe(time.Duration(i))
				if i%101 == 0 {
					r.Export()
					r.Names()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(CMessages).Load(); got != goroutines*iters {
		t.Errorf("concurrent counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram(HSuperstepBarrierNS).Count(); got != goroutines*iters {
		t.Errorf("concurrent histogram count = %d, want %d", got, goroutines*iters)
	}
}
