package engine

import (
	"graphite/internal/codec"
	"graphite/internal/obs"
)

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
// outside. Aggs aliases the partials until resetPartials.
func (s *Shard) report() StepReport {
	r := s.rep
	r.Superstep, r.Active = s.eng.superstp, len(s.frontier)
	return r
}

// resetPartials starts a shard's per-superstep partials over: the counts at
// zero, the aggregator partials at their identities.
func (s *Shard) resetPartials() {
	s.rep = StepReport{Aggs: s.eng.barrier.identities(s.rep.Aggs)}
}

// Record returns the report as its superstep's record: its counts, frontier
// and interval bytes, with no clocks. The barrier sums its shards' records; a
// cluster worker adds its own clocks (obs.ShardStep.Clocks) to its own.
func (r StepReport) Record() obs.SuperstepEnd {
	return obs.SuperstepEnd{
		Superstep: r.Superstep,
		Totals: obs.Totals{ComputeCalls: r.ComputeCalls, ScatterCalls: r.ScatterCalls,
			Messages: r.SentMsgs, MessageBytes: r.SentBytes, Delivered: r.Delivered, Spilled: r.Spilled},
		Active: r.Active,
		Intervals: obs.IntervalBytes{
			Unit:      r.IntervalBytes[codec.ClassUnit],
			Unbounded: r.IntervalBytes[codec.ClassUnbounded],
			General:   r.IntervalBytes[codec.ClassGeneral],
			Empty:     r.IntervalBytes[codec.ClassEmpty],
		},
	}
}
