package engine

import (
	"time"

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

// rawView reads the absolute registry totals. With a shared Registry these
// span every run that published into it; per-run views subtract the Run-start
// baseline.
func (e *Engine) rawView() Metrics {
	return Metrics{
		Supersteps:      int(e.ec.supersteps.Load()),
		ComputeCalls:    e.ec.computeCalls.Load(),
		ScatterCalls:    e.ec.scatterCalls.Load(),
		Messages:        e.ec.messages.Load(),
		MessageBytes:    e.ec.messageBytes.Load(),
		Delivered:       e.ec.delivered.Load(),
		Spilled:         e.spilled,
		ComputePlusTime: time.Duration(e.ec.computeNS.Load()),
		MessagingTime:   time.Duration(e.ec.messagingNS.Load()),
		BarrierTime:     time.Duration(e.ec.barrierNS.Load()),
		Makespan:        time.Duration(e.ec.makespanNS.Load()),
	}
}

// metricsView assembles the per-run Metrics view over the registry: registry
// totals minus the Run-start baseline, fault counters from the engine's own
// per-run tallies, makespan as stored (it is overwritten, not accumulated).
func (e *Engine) metricsView() Metrics {
	m := e.rawView()
	b := e.base
	m.Supersteps -= b.Supersteps
	m.ComputeCalls -= b.ComputeCalls
	m.ScatterCalls -= b.ScatterCalls
	m.Messages -= b.Messages
	m.MessageBytes -= b.MessageBytes
	m.Delivered -= b.Delivered
	m.Spilled -= b.Spilled
	m.ComputePlusTime -= b.ComputePlusTime
	m.MessagingTime -= b.MessagingTime
	m.BarrierTime -= b.BarrierTime
	m.Checkpoints = e.checkpoints
	m.Recoveries = e.recoveries
	m.Runs = 1
	m.MaxMakespan = m.Makespan
	return m
}

// storeRaw rewinds the rewindable registry totals to checkpoint-captured
// absolute values. Fault counters (checkpoints, recoveries, send retries),
// the makespan and the phase histograms are never rewound: they observe what
// actually happened, replays included.
func (e *Engine) storeRaw(m Metrics, classBytes [codec.NumIntervalClasses]int64) {
	e.ec.supersteps.Store(int64(m.Supersteps))
	e.ec.computeCalls.Store(m.ComputeCalls)
	e.ec.scatterCalls.Store(m.ScatterCalls)
	e.ec.messages.Store(m.Messages)
	e.ec.messageBytes.Store(m.MessageBytes)
	e.ec.delivered.Store(m.Delivered)
	e.spilled = m.Spilled
	e.ec.computeNS.Store(int64(m.ComputePlusTime))
	e.ec.messagingNS.Store(int64(m.MessagingTime))
	e.ec.barrierNS.Store(int64(m.BarrierTime))
	for i, n := range classBytes {
		e.ec.classBytes[i].Store(n)
	}
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

// stepTotals are one superstep's counter deltas, folded from the per-worker
// partials at the barrier.
type stepTotals struct {
	computeCalls int64
	scatterCalls int64
	sentMsgs     int64
	sentBytes    int64
	delivered    int64
	classBytes   [codec.NumIntervalClasses]int64
}

// mergePartials folds every worker's partials into the registry and resets
// them, returning the superstep's deltas for trace emission.
func (e *Engine) mergePartials() stepTotals {
	var st stepTotals
	for _, w := range e.workers {
		st.computeCalls += w.computeCalls
		st.scatterCalls += w.scatterCalls
		st.sentMsgs += w.sentMsgs
		st.sentBytes += w.sentBytes
		st.delivered += w.delivered
		e.spilled += w.spilled
		for i, b := range w.classBytes {
			st.classBytes[i] += b
		}
		w.resetPartials()
	}
	e.ec.computeCalls.Add(st.computeCalls)
	e.ec.scatterCalls.Add(st.scatterCalls)
	e.ec.messages.Add(st.sentMsgs)
	e.ec.messageBytes.Add(st.sentBytes)
	e.ec.delivered.Add(st.delivered)
	for i, n := range st.classBytes {
		if n != 0 {
			e.ec.classBytes[i].Add(n)
		}
	}
	return st
}

// resetPartials starts a worker's per-superstep partials over: the metric
// counts at zero, the aggregator partials at their identities.
func (w *worker) resetPartials() {
	w.computeCalls, w.scatterCalls, w.sentMsgs, w.sentBytes = 0, 0, 0, 0
	w.spilled, w.delivered = 0, 0
	w.classBytes = [codec.NumIntervalClasses]int64{}
	w.aggs = w.eng.barrier.identities(w.aggs)
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
			ev.ComputeCalls = w.computeCalls
			ev.ScatterCalls = w.scatterCalls
			ev.SentMsgs = w.sentMsgs
			ev.SentBytes = w.sentBytes
		case "ship":
			ev.NS = w.shipNS
		case "exchange":
			ev.NS = w.exchangeNS
			ev.Delivered = w.delivered
		}
		e.tracer.Emit(ev)
	}
}
