package engine

import (
	"graphite/internal/codec"
	"graphite/internal/obs"
)

// engCounters caches the registry handles the engine touches, so barriers
// and the send-retry path never take the registry lock.
type engCounters struct {
	supersteps   *obs.Counter
	computeCalls *obs.Counter
	scatterCalls *obs.Counter
	messages     *obs.Counter
	messageBytes *obs.Counter
	delivered    *obs.Counter
	checkpoints  *obs.Counter
	recoveries   *obs.Counter
	sendRetries  *obs.Counter
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
	// the latest superstep's worker compute-time imbalance (max/mean ·1000).
	activeVertices *obs.Gauge
	imbalance      *obs.Gauge

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
		checkpoints:  reg.Counter(obs.CCheckpoints),
		recoveries:   reg.Counter(obs.CRecoveries),
		sendRetries:  reg.Counter(obs.CSendRetries),
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
		imbalance:      reg.Gauge(obs.GComputeImbalanceMilli),
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

// countActive counts activated vertices — O(workers) off the dense frontier
// lengths maintained at delivery time, never a slot-array rescan. The
// frontier dedups through the active bitmap, so the count equals the number
// of set flags.
func (e *Engine) countActive() int {
	n := 0
	for _, w := range e.workers {
		n += len(w.frontier)
	}
	return n
}

// report is the worker's contribution to the barrier closing the superstep
// it just delivered — Run's for each worker, a Shard's for its one. Aggs
// aliases the partials until publish.
func (w *worker) report() StepReport {
	r := w.rep
	r.Superstep, r.Active = w.eng.superstp, len(w.frontier)
	return r
}

// publish adds the worker's partials to the registry and starts them over.
// The registry counts the work executed, replays included; the run's totals
// are the barrier's.
func (w *worker) publish() {
	ec := &w.eng.ec
	ec.computeCalls.Add(w.rep.ComputeCalls)
	ec.scatterCalls.Add(w.rep.ScatterCalls)
	ec.messages.Add(w.rep.SentMsgs)
	ec.messageBytes.Add(w.rep.SentBytes)
	ec.delivered.Add(w.rep.Delivered)
	for i, n := range w.classBytes {
		if n != 0 {
			ec.classBytes[i].Add(n)
		}
	}
	w.resetPartials()
}

// resetPartials starts a worker's per-superstep partials over: the counts at
// zero, the aggregator partials at their identities.
func (w *worker) resetPartials() {
	w.rep = StepReport{Aggs: w.eng.barrier.identities(w.rep.Aggs)}
	w.classBytes = [codec.NumIntervalClasses]int64{}
}

// emitWorkerPhases reports one phase of the finished superstep for every
// worker, in worker order, from the coordinating goroutine — trace output
// stays deterministic because workers never emit.
func (e *Engine) emitWorkerPhases(phase string) {
	for _, w := range e.workers {
		ev := obs.WorkerPhase{
			Superstep: e.superstp,
			Worker:    w.id,
			Phase:     phase,
		}
		switch phase {
		case "compute":
			ev.NS = w.computeNS
			ev.ComputeCalls = w.rep.ComputeCalls
			ev.ScatterCalls = w.rep.ScatterCalls
			ev.SentMsgs = w.rep.SentMsgs
			ev.SentBytes = w.rep.SentBytes
		case "ship":
			ev.NS = w.shipNS
		case "exchange":
			ev.NS = w.exchangeNS
			ev.Delivered = w.rep.Delivered
		}
		e.tracer.Emit(ev)
	}
}
