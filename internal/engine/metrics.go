package engine

import (
	"fmt"
	"time"
)

// Metrics records the behaviour of a run, matching the quantities the paper
// reports: the makespan is split into compute+ time (user logic interleaved
// with message emission), exclusive messaging time (delivery after compute)
// and barrier time; the counters capture the primitive-intrinsic costs
// (user compute calls, scatter calls, messages, encoded message bytes).
type Metrics struct {
	Supersteps   int
	ComputeCalls int64
	ScatterCalls int64
	Messages     int64
	MessageBytes int64
	// Delivered counts the messages that reached an inbox: those sent, less
	// the ones a worker folded into another under the Combiner before
	// handing its batches over. Without one it equals Messages, the paper's
	// count, taken as they are sent.
	Delivered int64
	// Spilled counts the messages whose payload was outside the word palette
	// and travelled in a slab's spill table: zero for a program that sends
	// int64, float64, codec.Int64Pair or nil.
	Spilled int64

	// Checkpoints and Recoveries count the cluster's fault-tolerance events:
	// generations its barrier committed and rollback-and-replay cycles it
	// took. Run leaves both zero.
	Checkpoints int
	Recoveries  int

	// Runs is how many engine runs are folded into these metrics: 1 for a
	// single run, accumulated by Add for the baselines that execute one run
	// per snapshot or per batch. Makespan is then the total across runs;
	// MeanMakespan and MaxMakespan summarize the per-run distribution.
	Runs        int
	MaxMakespan time.Duration

	ComputePlusTime time.Duration
	MessagingTime   time.Duration
	BarrierTime     time.Duration
	Makespan        time.Duration
}

// Add accumulates another run's metrics into m; used by baselines that
// execute one engine run per snapshot or per batch. Metrics built before the
// Runs counter existed (zero Runs) count as one run, so mean/max stay honest
// for hand-assembled values too.
func (m *Metrics) Add(o *Metrics) {
	// The receiver needs the same normalization as o: a hand-assembled
	// single run holds zero Runs and zero MaxMakespan, and without this its
	// own makespan would never enter the max and Runs would come up one
	// short. A zero-valued accumulator stays at zero runs.
	if m.Runs == 0 && *m != (Metrics{}) {
		m.Runs = 1
		if m.MaxMakespan == 0 {
			m.MaxMakespan = m.Makespan
		}
	}
	m.Supersteps += o.Supersteps
	m.ComputeCalls += o.ComputeCalls
	m.ScatterCalls += o.ScatterCalls
	m.Messages += o.Messages
	m.MessageBytes += o.MessageBytes
	m.Delivered += o.Delivered
	m.Spilled += o.Spilled
	m.Checkpoints += o.Checkpoints
	m.Recoveries += o.Recoveries
	oRuns, oMax := o.Runs, o.MaxMakespan
	if oRuns == 0 {
		oRuns = 1
	}
	if oMax == 0 {
		oMax = o.Makespan
	}
	m.Runs += oRuns
	if oMax > m.MaxMakespan {
		m.MaxMakespan = oMax
	}
	m.ComputePlusTime += o.ComputePlusTime
	m.MessagingTime += o.MessagingTime
	m.BarrierTime += o.BarrierTime
	m.Makespan += o.Makespan
}

// MeanMakespan returns the average makespan per folded run (the makespan
// itself when Runs is zero or one).
func (m *Metrics) MeanMakespan() time.Duration {
	if m.Runs <= 1 {
		return m.Makespan
	}
	return m.Makespan / time.Duration(m.Runs)
}

// String summarizes the metrics on one line; fault-tolerance counters only
// appear when non-zero.
func (m *Metrics) String() string {
	s := fmt.Sprintf("supersteps=%d compute_calls=%d messages=%d bytes=%d compute+=%v messaging=%v barrier=%v makespan=%v",
		m.Supersteps, m.ComputeCalls, m.Messages, m.MessageBytes,
		m.ComputePlusTime.Round(time.Microsecond), m.MessagingTime.Round(time.Microsecond),
		m.BarrierTime.Round(time.Microsecond), m.Makespan.Round(time.Microsecond))
	if m.Checkpoints > 0 || m.Recoveries > 0 {
		s += fmt.Sprintf(" checkpoints=%d recoveries=%d", m.Checkpoints, m.Recoveries)
	}
	if m.Runs > 1 {
		s += fmt.Sprintf(" runs=%d mean_makespan=%v max_makespan=%v",
			m.Runs, m.MeanMakespan().Round(time.Microsecond), m.MaxMakespan.Round(time.Microsecond))
	}
	return s
}
