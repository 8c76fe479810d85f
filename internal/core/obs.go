package core

import "graphite/internal/obs"

// warpTotals are the runtime's cumulative warp counters; the tracer diffs
// consecutive barrier snapshots to get per-superstep deltas.
type warpTotals struct {
	warpCalls  int64
	suppressed int64
	tuples     int64
	merged     int64
	msgsIn     int64
	unitMsgsIn int64
}

func (rt *runtime) warpTotals() warpTotals {
	return warpTotals{
		warpCalls:  rt.warpCalls.Load(),
		suppressed: rt.warpSuppressed.Load(),
		tuples:     rt.activeIntervals.Load(),
		merged:     rt.mergedGroups.Load(),
		msgsIn:     rt.msgsIn.Load(),
		unitMsgsIn: rt.unitMsgsIn.Load(),
	}
}

func (a warpTotals) sub(b warpTotals) warpTotals {
	return warpTotals{
		warpCalls:  a.warpCalls - b.warpCalls,
		suppressed: a.suppressed - b.suppressed,
		tuples:     a.tuples - b.tuples,
		merged:     a.merged - b.merged,
		msgsIn:     a.msgsIn - b.msgsIn,
		unitMsgsIn: a.unitMsgsIn - b.unitMsgsIn,
	}
}

// icmTracer interposes on the engine's event stream to add the ICM layer's
// per-superstep warp statistics: at each superstep_end it diffs the runtime
// counters against the previous barrier and emits a WarpStats event before
// forwarding. Every event comes from the coordinating goroutine, so `last`
// needs no lock.
type icmTracer struct {
	rt   *runtime
	next obs.Tracer
	last warpTotals
}

// Emit implements obs.Tracer.
func (t *icmTracer) Emit(e obs.Event) {
	if ev, ok := e.(obs.SuperstepEnd); ok {
		cur := t.rt.warpTotals()
		d := cur.sub(t.last)
		t.last = cur
		uf := 0.0
		if d.msgsIn > 0 {
			uf = float64(d.unitMsgsIn) / float64(d.msgsIn)
		}
		t.next.Emit(obs.WarpStats{
			Superstep:    ev.Superstep,
			WarpCalls:    d.warpCalls,
			Suppressed:   d.suppressed,
			Tuples:       d.tuples,
			MergedGroups: d.merged,
			MsgsIn:       d.msgsIn,
			UnitMsgsIn:   d.unitMsgsIn,
			UnitFraction: uf,
		})
	}
	t.next.Emit(e)
}

// publishStats folds a finished run's ICM stats into a shared registry, the
// same way the engine accumulates its counters across runs.
func publishStats(reg *obs.Registry, s Stats) {
	reg.Counter(obs.CWarpCalls).Add(s.WarpCalls)
	reg.Counter(obs.CWarpSuppressed).Add(s.WarpSuppressed)
	reg.Counter(obs.CStateUpdates).Add(s.StateUpdates)
	reg.Counter(obs.CActiveIntervals).Add(s.ActiveIntervals)
	reg.Gauge(obs.GMaxPartitions).Set(int64(s.MaxPartitions))
}
