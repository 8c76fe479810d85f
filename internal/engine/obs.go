package engine

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
