// Package obs is the observability layer of the stack: a dependency-free
// metrics registry (counters, gauges, fixed-bucket duration histograms), a
// Tracer contract receiving typed per-superstep events from the BSP engine
// and the ICM runtime, sinks for both (a JSONL trace writer, a Prometheus
// /metrics + pprof debug endpoint), and the shared slog setup the CLIs use.
//
// The paper's entire evaluation (Sec. VII) is built from per-superstep
// instrumentation — compute+/messaging/barrier splits, compute-call and
// message counts, encoded byte sizes — so the same quantities are what the
// registry names and the trace events carry. Both come from one record: the
// barrier's superstep_end (SuperstepEnd), whose fields a JSONL trace carries
// and EngineSeries.Publish adds to the registry. engine.Metrics is the
// barrier's ledger, never the registry; a trace is its per-superstep
// decomposition, and the two reconcile exactly on a fault-free run.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical registry names. The engine and the ICM runtime publish under
// these; sinks and tests address them by name.
const (
	// Engine totals: the superstep records' sums (EngineSeries).
	CSupersteps    = "engine.supersteps"
	CComputeCalls  = "engine.compute_calls"
	CScatterCalls  = "engine.scatter_calls"
	CMessages      = "engine.messages"
	CMessageBytes  = "engine.message_bytes"
	CDelivered     = "engine.delivered" // messages that reached an inbox, after the sender's fold
	CComputePlusNS = "engine.compute_plus_ns"
	CMessagingNS   = "engine.messaging_ns"
	CBarrierNS     = "engine.barrier_ns"
	CMakespanNS    = "engine.makespan_ns"

	// Per-superstep duration distributions.
	HSuperstepComputeNS   = "engine.superstep.compute_ns"
	HSuperstepMessagingNS = "engine.superstep.messaging_ns"
	HSuperstepBarrierNS   = "engine.superstep.barrier_ns"

	// Interval-encoding bytes by codec class (Sec. VI "Interval Messages").
	CIntervalBytesUnit      = "codec.interval_bytes.unit"
	CIntervalBytesUnbounded = "codec.interval_bytes.unbounded"
	CIntervalBytesGeneral   = "codec.interval_bytes.general"
	CIntervalBytesEmpty     = "codec.interval_bytes.empty"

	// Pooled hot-path buffers (the engine's message arena, drawn once per run
	// for each executing worker's outboxes and inbox, + codec batch slabs):
	// cumulative pool hits/misses and the capacity in bytes served by hits
	// instead of fresh allocations. Gauges, refreshed at every barrier.
	GPoolHits    = "engine.pool_hits"
	GPoolMisses  = "engine.pool_misses"
	GBytesReused = "engine.bytes_reused"

	// Compute phase: the dense-frontier size after the latest delivery
	// barrier.
	GActiveVertices = "engine.active_vertices"

	// ICM runtime totals.
	CWarpCalls       = "icm.warp_calls"
	CWarpSuppressed  = "icm.warp_suppressed"
	CStateUpdates    = "icm.state_updates"
	CActiveIntervals = "icm.active_intervals"
	GMaxPartitions   = "icm.max_partitions"

	// Cluster runtime (coordinator-side): live worker count, current epoch
	// (bumped on every recovery), distributed recoveries completed, and the
	// supersteps re-executed because of rollbacks.
	GClusterWorkers            = "cluster.workers"
	GClusterEpoch              = "cluster.epoch"
	CClusterRecoveries         = "cluster.recoveries"
	CClusterReplayedSupersteps = "cluster.replayed_supersteps"

	// Heartbeat-lease health (coordinator-side): the tightest remaining
	// lease across live workers in milliseconds (impending worker-loss shows
	// up here before the WorkerLost event fires) and how many heartbeat
	// intervals of silence the quietest worker has accumulated.
	GClusterLeaseRemainingMS = "cluster.lease_remaining_ms"
	GClusterMissedHeartbeats = "cluster.missed_heartbeats"

	// Per-superstep straggler attribution (coordinator-side): the slowest
	// shard's compute and barrier-wait time distributions, the shard that was
	// slowest last superstep, and the cumulative bytes and time the
	// coordinator spent relaying data batches between workers.
	HClusterComputeNS = "cluster.superstep.compute_ns"
	HClusterWaitNS    = "cluster.superstep.wait_ns"
	// GClusterSkewMilli is the one skew gauge, set by both drivers — the
	// coordinator and Engine.Run — from the latest ClusterStep's SkewMilli:
	// max/mean compute across shards in thousandths. A cluster shard's
	// Barrier leaves it alone.
	GClusterSkewMilli  = "cluster.step_skew_milli"
	GClusterSlowest    = "cluster.slowest_shard"
	CClusterRelayBytes = "cluster.relay_bytes"
	CClusterRelayNS    = "cluster.relay_ns"
	// The mesh: cumulative batch bytes shipped worker-to-worker (bypassing
	// the coordinator entirely) and the cumulative worker time spent writing
	// them. On a healthy mesh the relay counters sit at 0 and these carry the
	// data volume; the relay pair counts the batches of links that are down.
	CClusterDirectBytes = "cluster.data_direct_bytes"
	CClusterDirectNS    = "cluster.data_direct_ns"
	// GClusterShardComputeNS is a labeled family (one series per shard via
	// WithLabels(..., "shard", n)): the last superstep's compute time per
	// shard, the straggler profile a dashboard plots directly.
	GClusterShardComputeNS = "cluster.shard_compute_ns"
)

// EngineSeries is one registry's engine series, bound once so a barrier
// never takes the registry lock: the engine.* counters, phase histograms and
// gauges and the codec.interval_bytes.* counters. Publish is the only writer
// of all of them but the pool gauges, which SetPools sets.
type EngineSeries struct {
	supersteps, computeCalls, scatterCalls, messages, messageBytes, delivered *Counter
	computeNS, messagingNS, barrierNS, makespanNS                             *Counter
	unit, unbounded, general, empty                                           *Counter
	active, poolHits, poolMisses, bytesReused                                 *Gauge
	hCompute, hMessaging, hBarrier                                            *Histogram
}

// NewEngineSeries binds the ledger's series in reg.
func NewEngineSeries(reg *Registry) *EngineSeries {
	return &EngineSeries{
		supersteps: reg.Counter(CSupersteps), computeCalls: reg.Counter(CComputeCalls),
		scatterCalls: reg.Counter(CScatterCalls), messages: reg.Counter(CMessages),
		messageBytes: reg.Counter(CMessageBytes), delivered: reg.Counter(CDelivered),
		computeNS: reg.Counter(CComputePlusNS), messagingNS: reg.Counter(CMessagingNS),
		barrierNS: reg.Counter(CBarrierNS), makespanNS: reg.Counter(CMakespanNS),
		unit: reg.Counter(CIntervalBytesUnit), unbounded: reg.Counter(CIntervalBytesUnbounded),
		general: reg.Counter(CIntervalBytesGeneral), empty: reg.Counter(CIntervalBytesEmpty),
		active: reg.Gauge(GActiveVertices), poolHits: reg.Gauge(GPoolHits),
		poolMisses: reg.Gauge(GPoolMisses), bytesReused: reg.Gauge(GBytesReused),
		hCompute: reg.Histogram(HSuperstepComputeNS), hMessaging: reg.Histogram(HSuperstepMessagingNS),
		hBarrier: reg.Histogram(HSuperstepBarrierNS),
	}
}

// SetPools sets the pool gauges to the shared buffer pools' cumulative
// statistics, which a driver reads at its barrier.
func (s *EngineSeries) SetPools(hits, misses, bytesReused int64) {
	s.poolHits.Set(hits)
	s.poolMisses.Set(misses)
	s.bytesReused.Set(bytesReused)
}

// Publish adds one record of the ledger to the series: a SuperstepEnd's
// counts, clocks, interval bytes and frontier, or a RunEnd's makespan; other
// events are not the registry's. Engine.Run publishes every superstep's
// record and its run_end, a cluster worker its own shard's record of every
// superstep it executes: the counters count the work executed, replays
// included.
func (s *EngineSeries) Publish(e Event) {
	switch ev := e.(type) {
	case SuperstepEnd:
		s.supersteps.Inc()
		s.computeCalls.Add(ev.ComputeCalls)
		s.scatterCalls.Add(ev.ScatterCalls)
		s.messages.Add(ev.Messages)
		s.messageBytes.Add(ev.MessageBytes)
		s.delivered.Add(ev.Delivered)
		s.computeNS.Add(ev.ComputeNS)
		s.messagingNS.Add(ev.MessagingNS)
		s.barrierNS.Add(ev.BarrierNS)
		s.hCompute.Observe(time.Duration(ev.ComputeNS))
		s.hMessaging.Observe(time.Duration(ev.MessagingNS))
		s.hBarrier.Observe(time.Duration(ev.BarrierNS))
		s.active.Set(int64(ev.Active))
		s.unit.Add(ev.Intervals.Unit)
		s.unbounded.Add(ev.Intervals.Unbounded)
		s.general.Add(ev.Intervals.General)
		s.empty.Add(ev.Intervals.Empty)
	case RunEnd:
		s.makespanNS.Store(ev.MakespanNS)
	}
}

// Counter is a monotonic (except Store) int64 metric, safe for concurrent
// use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store overwrites the counter with a value that is set, not summed: the
// latest run's makespan, the events a live graph replayed.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a point-in-time int64 metric, safe for concurrent use. The zero
// value is ready.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DefaultDurationBuckets are the histogram bucket upper bounds used when a
// histogram is created without explicit bounds: exponential from 10µs to
// ~40s, wide enough for a superstep phase at any of the bench scales.
var DefaultDurationBuckets = []time.Duration{
	10 * time.Microsecond, 40 * time.Microsecond, 160 * time.Microsecond,
	640 * time.Microsecond, 2560 * time.Microsecond, 10 * time.Millisecond,
	41 * time.Millisecond, 164 * time.Millisecond, 655 * time.Millisecond,
	2621 * time.Millisecond, 10486 * time.Millisecond, 41943 * time.Millisecond,
}

// Histogram is a fixed-bucket duration histogram, safe for concurrent use.
// An observation lands in the first bucket whose upper bound is >= the
// value (inclusive, Prometheus "le" semantics); values above every bound
// land in the implicit overflow bucket. The zero value is ready and records
// count and sum only.
type Histogram struct {
	bounds []int64 // upper bounds in nanoseconds, ascending
	counts []atomic.Int64
	over   atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (sorted ascending; nil means DefaultDurationBuckets).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultDurationBuckets
	}
	h := &Histogram{
		bounds: make([]int64, len(bounds)),
		counts: make([]atomic.Int64, len(bounds)),
	}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	sort.Slice(h.bounds, func(a, b int) bool { return h.bounds[a] < h.bounds[b] })
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	h.count.Add(1)
	h.sum.Add(n)
	for i, b := range h.bounds {
		if n <= b {
			h.counts[i].Add(1)
			return
		}
	}
	if h.bounds != nil {
		h.over.Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramBucket is one bucket of a histogram's Cumulative export.
type HistogramBucket struct {
	UpperBound time.Duration
	Count      int64
}

// BucketInf marks the implicit +Inf bucket of a Cumulative export.
const BucketInf = time.Duration(math.MaxInt64)

// Cumulative exports the histogram with Prometheus-style cumulative bucket
// counts: each bucket's Count is the number of observations <= UpperBound,
// and the final bucket is the implicit +Inf bucket (UpperBound == BucketInf)
// whose count equals Count(). Reading concurrently with Observe is safe; the
// result is monotone but may lag in-flight observations.
func (h *Histogram) Cumulative() []HistogramBucket {
	out := make([]HistogramBucket, 0, len(h.bounds)+1)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, HistogramBucket{UpperBound: time.Duration(b), Count: cum})
	}
	out = append(out, HistogramBucket{UpperBound: BucketInf, Count: cum + h.over.Load()})
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket that holds the target rank. Observations past the last
// bound report that bound (the histogram cannot resolve the overflow tail).
// An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum)+float64(n) >= rank && n > 0 {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return time.Duration(float64(lo) + frac*float64(b-lo))
		}
		cum += n
	}
	return time.Duration(h.bounds[len(h.bounds)-1])
}

// Registry is a named collection of counters, gauges and histograms.
// Lookups get-or-create, so producers and consumers need no registration
// order. The zero value is ready; methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default duration buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (nil means DefaultDurationBuckets). Bounds are
// fixed at creation; later callers get the existing histogram.
func (r *Registry) HistogramWith(name string, bounds []time.Duration) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Export is a kind-typed snapshot of a registry, for sinks (the Prometheus
// exposition) that must know whether a value is a counter, a gauge or a
// histogram.
type Export struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]*Histogram
}

// Export snapshots counter and gauge values and captures histogram handles
// by kind. The histogram pointers are live (their buckets keep moving);
// exposition reads them via Cumulative.
func (r *Registry) Export() Export {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ex := Export{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]*Histogram, len(r.hists)),
	}
	for n, c := range r.counters {
		ex.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		ex.Gauges[n] = g.Load()
	}
	for n, h := range r.hists {
		ex.Histograms[n] = h
	}
	return ex
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
