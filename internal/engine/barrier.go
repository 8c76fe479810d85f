package engine

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"graphite/internal/codec"
	"graphite/internal/obs"
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
// superstep bound, the master's halt, or quiescence. It keeps the run's
// ledger — the totals its run_end record reports — and the cluster's
// recovery point and budget (Commit, Rewind). Engine.Run closes every
// superstep through its own; whoever steps Shards — the cluster coordinator,
// a test — builds one from the same Config.
type Barrier struct {
	maxSteps      int
	activateAll   bool
	maxRecoveries int // negative: unlimited
	master        Master
	names         []string      // registered aggregators, ascending
	aggs          []*Aggregator // by names index
	state         BarrierState
	halted        bool

	step obs.SuperstepEnd // the record of the superstep Close closed last, less its clocks

	// The recovery point Commit recorded: the state about to execute
	// superstep resumeAt (0 before the first Commit). What happened is never
	// rewound: checkpoints and recoveries taken, supersteps executed.
	committed   BarrierState
	resumeAt    int
	checkpoints int
	recoveries  int
	executed    int
}

// BarrierState is what a barrier carries from one superstep to the next: the
// phase, each aggregator's merged value in name order, the run's totals and
// the frontier entering the next superstep. No capture holds it: the barrier
// keeps it beside the cluster coordinator's committed generation (Commit),
// and restores it with that generation (Rewind).
type BarrierState struct {
	Phase  int
	Aggs   []codec.Word
	Totals RunTotals
	Active int // vertices active entering the next superstep
}

// RunTotals is a run's ledger: the supersteps that count toward its result
// and, summed over them, the paper's counts and phase times. A rollback
// rewinds it, so a replayed superstep counts once.
type RunTotals struct {
	Supersteps int
	obs.Totals
}

// NewBarrier builds the barrier for cfg's runs, with cfg's aggregators in
// ascending name order. A configuration nothing would end — ActivateAll with
// neither MaxSupersteps nor a Master — is refused here, once, for Run, Shard
// and coordinator alike.
func NewBarrier(cfg Config) (*Barrier, error) {
	if cfg.ActivateAll && cfg.MaxSupersteps <= 0 && cfg.Master == nil {
		return nil, fmt.Errorf("%w: ActivateAll needs MaxSupersteps or a Master", ErrBadConfig)
	}
	b := &Barrier{maxSteps: cfg.MaxSupersteps, activateAll: cfg.ActivateAll, master: cfg.Master,
		maxRecoveries: cfg.MaxRecoveries}
	if b.maxRecoveries == 0 {
		b.maxRecoveries = DefaultMaxRecoveries
	}
	b.names = slices.Sorted(maps.Keys(cfg.Aggregators))
	for _, name := range b.names {
		b.aggs = append(b.aggs, cfg.Aggregators[name])
	}
	b.state.Aggs = b.identities(nil)
	return b, nil
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
// values and their records into the superstep's and the run's totals, in that
// order. It reports whether the run has quiesced: nothing delivered, nothing
// active, and no ActivateAll to keep vertices going.
func (b *Barrier) Close(reps []StepReport) (quiesced bool) {
	b.state.Aggs = b.identities(b.state.Aggs)
	var st obs.SuperstepEnd
	for _, r := range reps {
		st.Add(r.Totals)
		st.Intervals.Add(r.Intervals)
		st.Active += r.Active
		for i, p := range r.Aggs {
			b.state.Aggs[i] = b.aggs[i].reduce(b.state.Aggs[i], p)
		}
	}
	b.state.Totals.Supersteps++
	b.state.Totals.Add(st.Totals)
	b.step, b.state.Active = st, st.Active
	b.executed++
	return st.Delivered == 0 && st.Active == 0 && !b.activateAll
}

// SuperstepEnd adds the phase clocks of superstep s, the one Close closed,
// to the totals — Run's wall-clock phases, or the coordinator's split of its
// shards' sum (obs.ShardStep.Clocks), counts zero — and returns the
// superstep's record.
func (b *Barrier) SuperstepEnd(s int, clocks obs.Totals) obs.SuperstepEnd {
	b.state.Totals.Add(clocks)
	rec := b.step
	rec.Superstep = s
	rec.Add(clocks)
	return rec
}

// End closes the run's ledger: the run_end record of the supersteps that
// count, the checkpoints and recoveries taken and the driver's makespan —
// what every driver returns and traces.
func (b *Barrier) End(makespan time.Duration) obs.RunEnd {
	t := b.state.Totals
	return obs.RunEnd{Supersteps: t.Supersteps, Totals: t.Totals,
		Checkpoints: b.checkpoints, Recoveries: b.recoveries,
		MakespanNS: int64(makespan), Halted: b.halted}
}

// Executed returns how many supersteps Close closed, replays included.
func (b *Barrier) Executed() int { return b.executed }

// Commit records the state about to execute superstep next — a generation
// every shard has on disk — as the point Rewind returns to, and returns the
// checkpoint's event.
func (b *Barrier) Commit(next int) obs.Checkpoint {
	b.committed, b.resumeAt = b.State(), next
	b.checkpoints++
	return obs.Checkpoint{Superstep: next, Index: b.checkpoints}
}

// Rewind recovers from a failure of superstep failed: within the
// MaxRecoveries budget — an error wrapping ErrRecoveryExhausted past it — it
// restores the state Commit recorded, totals included, counts the recovery
// and returns its event: where execution resumes, and how many completed
// supersteps the replay repeats. The driver rewinds the shards. Call only
// after a Commit.
func (b *Barrier) Rewind(failed int) (obs.Recovery, error) {
	if b.maxRecoveries >= 0 && b.recoveries >= b.maxRecoveries {
		return obs.Recovery{}, fmt.Errorf("%w: superstep %d still failing after %d recoveries",
			ErrRecoveryExhausted, failed, b.recoveries)
	}
	b.SetState(b.committed)
	b.recoveries++
	return obs.Recovery{Failed: failed, ResumeAt: b.resumeAt, Attempt: b.recoveries,
		Replayed: max(failed-b.resumeAt, 0)}, nil
}

// Phase returns the phase the master set for the superstep Open let run.
func (b *Barrier) Phase() int { return b.state.Phase }

// Active returns the frontier Close left: the vertices entering the next
// superstep.
func (b *Barrier) Active() int { return b.state.Active }

// State returns a copy of what the barrier carries to the next superstep.
func (b *Barrier) State() BarrierState {
	s := b.state
	s.Aggs = slices.Clone(s.Aggs)
	return s
}

// SetState rewinds the barrier to a State it returned.
func (b *Barrier) SetState(s BarrierState) {
	b.state = s
	b.state.Aggs = slices.Clone(s.Aggs)
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
