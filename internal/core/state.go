// Package core implements the interval-centric computing model (ICM) of
// Sec. IV of the paper: the data-parallel unit is an interval vertex whose
// dynamic state is a temporal partition of its lifespan. User logic is a
// compute function, invoked once per time-warp tuple (an aligned interval,
// the prior state, and the grouped messages), and a scatter function,
// invoked once per overlapping (updated state × out-edge property)
// sub-interval. The time-warp operator (internal/warp) performs the temporal
// alignment and grouping, minimizing user-logic calls and messages.
package core

import (
	"errors"
	"fmt"

	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

// ErrStateOutOfRange is returned when compute updates state outside the
// interval it was invoked for.
var ErrStateOutOfRange = errors.New("core: state update outside the active interval")

// PartitionedState is the dynamic state of an interval vertex: a list of
// 〈interval, value〉 pairs that are sorted, non-overlapping, mutually
// adjacent, and exactly cover the vertex lifespan (Sec. IV-A1). Updating a
// sub-interval dynamically repartitions the state; adjacent partitions with
// equal values are re-fused, which is the valid replication-inverse the
// paper notes ({〈[ts,te),s〉} ≡ {〈[ts,t'),s〉,〈[t',te),s〉}).
//
// The list is also maximally fused — no two neighbours hold ValueEqual
// values — at all times: a state starts as one partition, Set is the only
// mutation and restores the property at the two seams it creates, and decoded
// checkpoints are checked with Invariant before use. Set relies on it.
type PartitionedState struct {
	lifespan ival.Interval
	parts    []warp.IntervalValue
}

// NewPartitionedState returns a state covering lifespan with a single
// initial partition.
func NewPartitionedState(lifespan ival.Interval, init any) *PartitionedState {
	return &PartitionedState{
		lifespan: lifespan,
		parts:    []warp.IntervalValue{{Interval: lifespan, Value: init}},
	}
}

// Lifespan returns the covered interval.
func (s *PartitionedState) Lifespan() ival.Interval { return s.lifespan }

// Parts returns the current partitions in time order. The slice is owned by
// the state and must not be modified; it is valid only until the next Set,
// which rewrites the backing array in place.
func (s *PartitionedState) Parts() []warp.IntervalValue { return s.parts }

// NumParts returns the number of partitions.
func (s *PartitionedState) NumParts() int { return len(s.parts) }

// find returns the index of the partition containing t, which must lie in
// the lifespan: the first partition ending after t.
func (s *PartitionedState) find(t ival.Time) int {
	lo, hi := 0, len(s.parts)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.parts[mid].Interval.End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the value at time-point t; ok is false outside the lifespan.
func (s *PartitionedState) Get(t ival.Time) (any, bool) {
	if !s.lifespan.Contains(t) {
		return nil, false
	}
	return s.parts[s.find(t)].Value, true
}

// Set updates the state for iv to value, splitting and re-fusing partitions
// as needed. iv must lie within the lifespan.
//
// The run of partitions iv overlaps is replaced in place by at most 〈left
// remainder, iv, right remainder〉, and only the two seams of the new
// partition are tested for fusion: every other neighbouring pair was already
// unequal before the call. A fused partition keeps its earlier half's value,
// like a left-to-right pass over the whole list would.
func (s *PartitionedState) Set(iv ival.Interval, value any) error {
	if iv.IsEmpty() {
		return fmt.Errorf("%w: empty interval", ErrStateOutOfRange)
	}
	if !s.lifespan.ContainsInterval(iv) {
		return fmt.Errorf("%w: %v outside lifespan %v", ErrStateOutOfRange, iv, s.lifespan)
	}
	parts := s.parts
	lo := s.find(iv.Start)
	hi := lo
	for parts[hi].Interval.End < iv.End {
		hi++
	}

	// What replaces parts[lo..hi]: repl[:n], built before anything is
	// overwritten. A neighbour the new partition fuses with is absorbed — a
	// remainder is then not emitted, a whole partition joins the run.
	var repl [3]warp.IntervalValue
	n := 0
	mid := warp.IntervalValue{Interval: iv, Value: value}
	first, last := parts[lo], parts[hi]
	switch {
	case first.Interval.Start < iv.Start:
		if warp.ValueEqual(first.Value, value) {
			mid.Interval.Start, mid.Value = first.Interval.Start, first.Value
		} else {
			repl[0] = warp.IntervalValue{Interval: ival.New(first.Interval.Start, iv.Start), Value: first.Value}
			n = 1
		}
	case lo > 0 && warp.ValueEqual(parts[lo-1].Value, value):
		lo--
		mid.Interval.Start, mid.Value = parts[lo].Interval.Start, parts[lo].Value
	}
	var right warp.IntervalValue
	switch {
	case iv.End < last.Interval.End:
		if warp.ValueEqual(mid.Value, last.Value) {
			mid.Interval.End = last.Interval.End
		} else {
			right = warp.IntervalValue{Interval: ival.New(iv.End, last.Interval.End), Value: last.Value}
		}
	case hi+1 < len(parts) && warp.ValueEqual(mid.Value, parts[hi+1].Value):
		hi++
		mid.Interval.End = parts[hi].Interval.End
	}
	repl[n] = mid
	n++
	if !right.Interval.IsEmpty() {
		repl[n] = right
		n++
	}

	// Splice: move the tail to its new place, then drop repl into the gap.
	old, tail := len(parts), hi+1
	size := old - (tail - lo) + n
	if size > old {
		parts = append(parts, repl[:size-old]...) // grows by at most two; the values are overwritten below
	}
	if size != old {
		copy(parts[lo+n:size], parts[tail:old])
	}
	for k := 0; k < n; k++ {
		parts[lo+k] = repl[k]
	}
	if size < old {
		clear(parts[size:old]) // let go of the values the shrink left behind
	}
	s.parts = parts[:size]
	return nil
}

// Invariant verifies the partitioned-state contract: sorted, adjacent,
// non-overlapping, non-empty partitions exactly covering the lifespan, no two
// neighbours holding equal values. It is used by tests, by the runtime's
// paranoid mode, and on every state decoded from a checkpoint.
func (s *PartitionedState) Invariant() error {
	if len(s.parts) == 0 {
		return errors.New("core: state has no partitions")
	}
	if s.parts[0].Interval.Start != s.lifespan.Start {
		return fmt.Errorf("core: first partition starts at %d, lifespan at %d",
			s.parts[0].Interval.Start, s.lifespan.Start)
	}
	if s.parts[len(s.parts)-1].Interval.End != s.lifespan.End {
		return fmt.Errorf("core: last partition ends at %d, lifespan at %d",
			s.parts[len(s.parts)-1].Interval.End, s.lifespan.End)
	}
	for i, p := range s.parts {
		if p.Interval.IsEmpty() {
			return fmt.Errorf("core: empty partition %d", i)
		}
		if i == 0 {
			continue
		}
		if !s.parts[i-1].Interval.Meets(p.Interval) {
			return fmt.Errorf("core: partitions %d and %d not adjacent: %v, %v",
				i-1, i, s.parts[i-1].Interval, p.Interval)
		}
		if warp.ValueEqual(s.parts[i-1].Value, p.Value) {
			return fmt.Errorf("core: partitions %d and %d hold equal values and are not fused: %v, %v",
				i-1, i, s.parts[i-1].Interval, p.Interval)
		}
	}
	return nil
}
