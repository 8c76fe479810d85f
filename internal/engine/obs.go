package engine

import (
	"graphite/internal/codec"
	"graphite/internal/obs"
)

// engCounters caches the registry handles the engine touches, so barriers
// never take the registry lock.
type engCounters struct {
	supersteps   *obs.Counter
	computeCalls *obs.Counter
	scatterCalls *obs.Counter
	messages     *obs.Counter
	messageBytes *obs.Counter
	delivered    *obs.Counter
	computeNS    *obs.Counter
	messagingNS  *obs.Counter
	barrierNS    *obs.Counter
	makespanNS   *obs.Counter

	// classBytes splits interval-encoding bytes by codec class, indexed by
	// codec.IntervalClass.
	classBytes [codec.NumIntervalClasses]*obs.Counter

	// Pool gauges: refreshed at every barrier from the shared buffer pools
	// so traces and /metrics show hot-path reuse as the run progresses.
	poolHits    *obs.Gauge
	poolMisses  *obs.Gauge
	bytesReused *obs.Gauge

	// Scheduler gauges: frontier size after the latest delivery barrier and
	// the latest superstep's compute skew across shards (max/mean ·1000).
	activeVertices *obs.Gauge
	skew           *obs.Gauge

	hCompute   *obs.Histogram
	hMessaging *obs.Histogram
	hBarrier   *obs.Histogram
}

// bindRegistry resolves every handle the engine publishes under once.
func (e *Engine) bindRegistry(reg *obs.Registry) {
	e.reg = reg
	e.ec = engCounters{
		supersteps:   reg.Counter(obs.CSupersteps),
		computeCalls: reg.Counter(obs.CComputeCalls),
		scatterCalls: reg.Counter(obs.CScatterCalls),
		messages:     reg.Counter(obs.CMessages),
		messageBytes: reg.Counter(obs.CMessageBytes),
		delivered:    reg.Counter(obs.CDelivered),
		computeNS:    reg.Counter(obs.CComputePlusNS),
		messagingNS:  reg.Counter(obs.CMessagingNS),
		barrierNS:    reg.Counter(obs.CBarrierNS),
		makespanNS:   reg.Counter(obs.CMakespanNS),
		classBytes: [codec.NumIntervalClasses]*obs.Counter{
			codec.ClassEmpty:     reg.Counter(obs.CIntervalBytesEmpty),
			codec.ClassUnit:      reg.Counter(obs.CIntervalBytesUnit),
			codec.ClassUnbounded: reg.Counter(obs.CIntervalBytesUnbounded),
			codec.ClassGeneral:   reg.Counter(obs.CIntervalBytesGeneral),
		},
		poolHits:       reg.Gauge(obs.GPoolHits),
		poolMisses:     reg.Gauge(obs.GPoolMisses),
		bytesReused:    reg.Gauge(obs.GBytesReused),
		activeVertices: reg.Gauge(obs.GActiveVertices),
		skew:           reg.Gauge(obs.GClusterSkewMilli),
		hCompute:       reg.Histogram(obs.HSuperstepComputeNS),
		hMessaging:     reg.Histogram(obs.HSuperstepMessagingNS),
		hBarrier:       reg.Histogram(obs.HSuperstepBarrierNS),
	}
}

// setPoolGauges publishes the shared pools' cumulative statistics. Called
// at barriers and at run end — never from worker goroutines.
func (e *Engine) setPoolGauges() {
	hits, misses, bytes := poolStats()
	e.ec.poolHits.Set(hits)
	e.ec.poolMisses.Set(misses)
	e.ec.bytesReused.Set(bytes)
}

// countActive counts activated vertices — O(shards) off the dense frontier
// lengths maintained at delivery time, never a slot-array rescan. The
// frontier dedups through the active bitmap, so the count equals the number
// of set flags.
func (e *Engine) countActive() int {
	n := 0
	for _, s := range e.workers {
		n += len(s.frontier)
	}
	return n
}

// report is the shard's contribution to the barrier closing the superstep
// it just delivered — Run's for each shard, Barrier's for one stepped from
// outside. Aggs aliases the partials until publish.
func (s *Shard) report() StepReport {
	r := s.rep
	r.Superstep, r.Active = s.eng.superstp, len(s.frontier)
	return r
}

// publish adds the shard's partials to the registry and starts them over.
// The registry counts the work executed; the run's totals are the
// barrier's.
func (s *Shard) publish() {
	ec := &s.eng.ec
	ec.computeCalls.Add(s.rep.ComputeCalls)
	ec.scatterCalls.Add(s.rep.ScatterCalls)
	ec.messages.Add(s.rep.SentMsgs)
	ec.messageBytes.Add(s.rep.SentBytes)
	ec.delivered.Add(s.rep.Delivered)
	for i, n := range s.classBytes {
		if n != 0 {
			ec.classBytes[i].Add(n)
		}
	}
	s.resetPartials()
}

// resetPartials starts a shard's per-superstep partials over: the counts at
// zero, the aggregator partials at their identities.
func (s *Shard) resetPartials() {
	s.rep = StepReport{Aggs: s.eng.barrier.identities(s.rep.Aggs)}
	s.classBytes = [codec.NumIntervalClasses]int64{}
}
