package engine

import (
	"fmt"
	"slices"

	"graphite/internal/codec"
)

// Aggregator folds the inline words vertices contribute during a superstep
// into one value the master reads before the next (Giraph-style
// aggregators). It holds no values: each worker folds its own contributions,
// in the order its vertices compute, and the barrier folds the workers'
// partials in ascending worker order, so reduce need only be associative,
// with identity its neutral element.
type Aggregator struct {
	identity codec.Word
	reduce   func(a, b codec.Word) codec.Word
}

// NewAggregator builds an aggregator from its identity and reduce function.
func NewAggregator(identity codec.Word, reduce func(a, b codec.Word) codec.Word) *Aggregator {
	return &Aggregator{identity: identity, reduce: reduce}
}

// SumInt64 returns an aggregator summing codec.IntWord contributions.
func SumInt64() *Aggregator {
	return NewAggregator(codec.IntWord(0), func(a, b codec.Word) codec.Word { return codec.IntWord(a.Int() + b.Int()) })
}

// BoolOr returns an aggregator OR-ing contributions of codec.IntWord(0)
// (false) and codec.IntWord(1) (true).
func BoolOr() *Aggregator {
	return NewAggregator(codec.IntWord(0), func(a, b codec.Word) codec.Word { return codec.IntWord(a.Int() | b.Int()) })
}

// Barrier closes supersteps. It owns the registered aggregators and their
// merged values, the phase and the master, and the rule that ends a run: the
// superstep bound, the master's halt, or quiescence. Engine.Run closes every
// superstep through its own; whoever steps Shards — the cluster coordinator,
// a test — builds one from the same Config and aggregators.
type Barrier struct {
	maxSteps    int
	activateAll bool
	master      Master
	names       []string      // registered aggregators, ascending
	aggs        []*Aggregator // by names index
	state       BarrierState
	halted      bool
}

// BarrierState is what a barrier carries from one superstep to the next: the
// phase and each aggregator's merged value, in name order. A checkpoint holds
// it beside the workers' captures — Run's in memory, the cluster
// coordinator's per committed generation.
type BarrierState struct {
	Phase int
	Aggs  []codec.Word
}

// NewBarrier builds the barrier for cfg's runs with the given aggregators. A
// configuration nothing would end — ActivateAll with neither MaxSupersteps
// nor a Master — is refused here, once, for Run, Shard and coordinator alike.
func NewBarrier(cfg Config, aggs map[string]*Aggregator) (*Barrier, error) {
	if cfg.ActivateAll && cfg.MaxSupersteps <= 0 && cfg.Master == nil {
		return nil, fmt.Errorf("%w: ActivateAll needs MaxSupersteps or a Master", ErrBadConfig)
	}
	b := &Barrier{maxSteps: cfg.MaxSupersteps, activateAll: cfg.ActivateAll, master: cfg.Master}
	for name, agg := range aggs {
		b.register(name, agg)
	}
	return b, nil
}

// register installs a named aggregator, its merged value at its identity.
func (b *Barrier) register(name string, agg *Aggregator) {
	i, found := slices.BinarySearch(b.names, name)
	if found {
		b.aggs[i], b.state.Aggs[i] = agg, agg.identity
		return
	}
	b.names = slices.Insert(b.names, i, name)
	b.aggs = slices.Insert(b.aggs, i, agg)
	b.state.Aggs = slices.Insert(b.state.Aggs, i, agg.identity)
}

// identities returns buf refilled with every aggregator's identity, in name
// order: a worker's partials at the start of a superstep.
func (b *Barrier) identities(buf []codec.Word) []codec.Word {
	buf = buf[:0]
	for _, a := range b.aggs {
		buf = append(buf, a.identity)
	}
	return buf
}

// fold contributes v to the partial of the aggregator named name in parts.
func (b *Barrier) fold(parts []codec.Word, name string, v codec.Word) {
	i, ok := slices.BinarySearch(b.names, name)
	if !ok {
		panic(fmt.Sprintf("engine: no aggregator %q", name))
	}
	parts[i] = b.aggs[i].reduce(parts[i], v)
}

// Open decides whether superstep s runs: not past MaxSupersteps, and then not
// halted by the master, which sees the values merged at the previous barrier
// and may change the phase. It reports false when the run ends before s.
func (b *Barrier) Open(s int) bool { return b.open(s, nil) }

func (b *Barrier) open(s int, e *Engine) bool {
	if b.maxSteps > 0 && s > b.maxSteps {
		return false
	}
	if b.master != nil {
		mc := MasterControl{b: b, superstep: s, eng: e}
		b.master.BeforeSuperstep(&mc)
		if mc.halt {
			b.halted = true
			return false
		}
	}
	return true
}

// Close closes a superstep from every shard's report — every worker's, in
// Run — in ascending order: their aggregator partials fold into the merged
// values in that order. It reports whether the run has quiesced: nothing
// delivered, nothing active, and no ActivateAll to keep vertices going.
func (b *Barrier) Close(reps []StepReport) (quiesced bool) {
	b.state.Aggs = b.identities(b.state.Aggs)
	var delivered int64
	active := 0
	for _, r := range reps {
		delivered += r.Delivered
		active += r.Active
		for i, p := range r.Aggs {
			b.state.Aggs[i] = b.aggs[i].reduce(b.state.Aggs[i], p)
		}
	}
	return delivered == 0 && active == 0 && !b.activateAll
}

// Phase returns the phase the master set for the superstep Open let run.
func (b *Barrier) Phase() int { return b.state.Phase }

// Halted reports whether the master ended the run.
func (b *Barrier) Halted() bool { return b.halted }

// State returns a copy of what the barrier carries to the next superstep.
func (b *Barrier) State() BarrierState {
	return BarrierState{Phase: b.state.Phase, Aggs: slices.Clone(b.state.Aggs)}
}

// SetState rewinds the barrier to a State it returned.
func (b *Barrier) SetState(s BarrierState) {
	b.state = BarrierState{Phase: s.Phase, Aggs: slices.Clone(s.Aggs)}
}

// MasterControl is the master-compute interface: it runs at a barrier, before
// the superstep it may halt, on the merged aggregator values.
type MasterControl struct {
	b         *Barrier
	superstep int
	halt      bool
	eng       *Engine // the engine whose Run opens the superstep; nil for stepped shards
}

// Superstep returns the superstep about to execute (1-based).
func (m *MasterControl) Superstep() int { return m.superstep }

// Halt stops the computation before the upcoming superstep.
func (m *MasterControl) Halt() { m.halt = true }

// Phase returns the current phase number.
func (m *MasterControl) Phase() int { return m.b.state.Phase }

// SetPhase changes the phase number visible to vertices via Context.Phase.
func (m *MasterControl) SetPhase(p int) { m.b.state.Phase = p }

// AggValue returns the value of a named aggregator merged at the previous
// barrier — its identity before the first — and the nil word for a name
// never registered.
func (m *MasterControl) AggValue(name string) codec.Word {
	if i, ok := slices.BinarySearch(m.b.names, name); ok {
		return m.b.state.Aggs[i]
	}
	return codec.Word{}
}
