package core

import "graphite/internal/obs"

// warpStats returns the runtime's warp counters, cumulative over the run.
func (rt *runtime) warpStats() obs.WarpStats {
	return obs.WarpStats{
		WarpCalls:    rt.warpCalls.Load(),
		Suppressed:   rt.warpSuppressed.Load(),
		Tuples:       rt.activeIntervals.Load(),
		MergedGroups: rt.mergedGroups.Load(),
		MsgsIn:       rt.msgsIn.Load(),
		UnitMsgsIn:   rt.unitMsgsIn.Load(),
	}
}

// icmTracer interposes on the engine's event stream to add the ICM layer's
// per-superstep warp statistics: at each superstep_end it diffs the runtime's
// cumulative counters against the previous barrier's and emits the
// difference as a WarpStats event before forwarding. Every event comes from
// the coordinating goroutine, so `last` needs no lock.
type icmTracer struct {
	rt   *runtime
	next obs.Tracer
	last obs.WarpStats
}

// Emit implements obs.Tracer.
func (t *icmTracer) Emit(e obs.Event) {
	if ev, ok := e.(obs.SuperstepEnd); ok {
		cur, last := t.rt.warpStats(), t.last
		t.last = cur
		d := obs.WarpStats{
			Superstep:    ev.Superstep,
			WarpCalls:    cur.WarpCalls - last.WarpCalls,
			Suppressed:   cur.Suppressed - last.Suppressed,
			Tuples:       cur.Tuples - last.Tuples,
			MergedGroups: cur.MergedGroups - last.MergedGroups,
			MsgsIn:       cur.MsgsIn - last.MsgsIn,
			UnitMsgsIn:   cur.UnitMsgsIn - last.UnitMsgsIn,
		}
		if d.MsgsIn > 0 {
			d.UnitFraction = float64(d.UnitMsgsIn) / float64(d.MsgsIn)
		}
		t.next.Emit(d)
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
