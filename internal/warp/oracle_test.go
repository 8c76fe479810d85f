package warp

import (
	"cmp"
	"slices"
	"sort"

	ival "graphite/internal/interval"
)

// This file keeps the sweeps Scratch.Sweep replaced — one for Warp, one for
// PointGroups — as the reference the differential tests and FuzzWarpOracle
// compare it against, tuple for tuple. They are the replaced bodies verbatim
// but for the sort noted in oracleScratch.warp.

// innerRef is an inner tuple with its original index, used for identity-based
// group comparison.
type innerRef struct {
	idx int
	iv  ival.Interval
	val Value
}

// oracleScratch is the old Scratch: refs, a per-partition active set and
// boundary list, and the group arena — of values, as messages were before
// they were words.
type oracleScratch struct {
	refs       []innerRef
	active     []innerRef
	boundaries []ival.Time
	vals       []Value
}

// oracleSameGroup is sameGroup as it compared values: equal states, and the
// groups equal as multisets under valueEqual.
func oracleSameGroup(prev anyTuple, state Value, msgs []Value) bool {
	if len(prev.Msgs) != len(msgs) || !valueEqual(prev.State, state) {
		return false
	}
	used := make([]bool, len(msgs))
outer:
	for _, p := range prev.Msgs {
		for j, m := range msgs {
			if !used[j] && valueEqual(p, m) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// warp is the body Warp and WarpCombined ran before the single sweep: every
// earlier message re-clipped per state partition, a sorted boundary list per
// partition, and the active set re-scanned once per elementary segment.
func (s *oracleScratch) warp(out []anyTuple, outer, inner []IntervalValue, combine anyCombine) []anyTuple {
	if len(outer) == 0 || len(inner) == 0 {
		return out
	}
	s.refs = s.refs[:0]
	s.vals = s.vals[:0]
	for i, m := range inner {
		if !m.Interval.IsEmpty() {
			s.refs = append(s.refs, innerRef{idx: i, iv: m.Interval, val: m.Value})
		}
	}
	if len(s.refs) == 0 {
		return out
	}
	// The one line that differs from the replaced body, which sorted by Start
	// alone with the unstable slices.SortFunc: equal starts kept arrival order
	// only up to pdqsort's 12-element insertion-sort cutoff. The contract the
	// sweep is held to is (start, arrival index) at every size.
	slices.SortStableFunc(s.refs, func(a, b innerRef) int { return cmp.Compare(a.iv.Start, b.iv.Start) })

	base := len(out) // maximality never merges into tuples the caller passed in
	for _, st := range outer {
		if st.Interval.IsEmpty() {
			continue
		}
		// Inner tuples overlapping this outer partition: starts strictly
		// before the partition end; ends after the partition start.
		hi := sort.Search(len(s.refs), func(k int) bool { return s.refs[k].iv.Start >= st.Interval.End })
		s.boundaries = s.boundaries[:0]
		s.active = s.active[:0]
		for _, r := range s.refs[:hi] {
			x := r.iv.Intersect(st.Interval)
			if x.IsEmpty() {
				continue
			}
			s.active = append(s.active, innerRef{idx: r.idx, iv: x, val: r.val})
			s.boundaries = append(s.boundaries, x.Start, x.End)
		}
		if len(s.active) == 0 {
			continue
		}
		if combine == nil {
			// Restore inner-set order so groups preserve message order;
			// irrelevant under a commutative combiner.
			slices.SortFunc(s.active, func(a, b innerRef) int { return cmp.Compare(a.idx, b.idx) })
		}
		slices.Sort(s.boundaries)
		s.boundaries = oracleDedupTimes(s.boundaries)

		// Sweep elementary segments between adjacent boundaries. Each
		// segment's group is carved from the arena; a merged segment rewinds
		// its carving (every earlier group ends at or before start, so the
		// rewound region is unreferenced).
		for bi := 0; bi+1 < len(s.boundaries); bi++ {
			seg := ival.New(s.boundaries[bi], s.boundaries[bi+1])
			start := len(s.vals)
			if combine != nil {
				folded, n := oracleFold(s.active, seg, combine)
				if n == 0 {
					continue
				}
				s.vals = append(s.vals, folded)
			} else {
				for _, r := range s.active {
					if r.iv.ContainsInterval(seg) {
						s.vals = append(s.vals, r.val)
					}
				}
				if len(s.vals) == start {
					continue
				}
			}
			msgs := s.vals[start:len(s.vals):len(s.vals)]
			// Maximality: merge with the previous triple when it meets
			// this segment, has an equal outer value, and an identical
			// inner group.
			if n := len(out); n > base && out[n-1].Interval.Meets(seg) &&
				oracleSameGroup(out[n-1], st.Value, msgs) {
				out[n-1].Interval.End = seg.End
				s.vals = s.vals[:start]
				continue
			}
			out = append(out, anyTuple{Interval: seg, State: st.Value, Msgs: msgs})
		}
	}
	return out
}

// oracleFold combines the values of active refs covering seg without building the
// group (the inline warp combiner's single pass).
func oracleFold(active []innerRef, seg ival.Interval, combine anyCombine) (Value, int) {
	var folded Value
	n := 0
	for _, r := range active {
		if r.iv.ContainsInterval(seg) {
			if n == 0 {
				folded = r.val
			} else {
				folded = combine(folded, r.val)
			}
			n++
		}
	}
	return folded, n
}

func oracleDedupTimes(ts []ival.Time) []ival.Time {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// pointGroups is the body PointGroups and PointGroupsCombined ran. It sweeps
// the clipped messages' boundaries per outer partition:
// each elementary segment has a constant group, shared (and, under a
// combiner, folded exactly once) by every point tuple it expands into. Total
// work stays O(points covered + m log m) — the same as the former per-point
// bucket map — without allocating buckets.
func (s *oracleScratch) pointGroups(out []anyTuple, outer, inner []IntervalValue, combine anyCombine) []anyTuple {
	if len(outer) == 0 || len(inner) == 0 {
		return out
	}
	s.vals = s.vals[:0]
	for _, st := range outer {
		if st.Interval.IsEmpty() {
			continue
		}
		// Clip the messages (preserving inner-set order, so groups do too)
		// and find the largest finite boundary; points at or beyond it behave
		// identically, so unbounded tails fold into one trailing tuple.
		s.active = s.active[:0]
		maxFinite := st.Interval.Start
		unbounded := false
		for i, m := range inner {
			x := m.Interval.Intersect(st.Interval)
			if x.IsEmpty() {
				continue
			}
			s.active = append(s.active, innerRef{idx: i, iv: x, val: m.Value})
			if x.Start > maxFinite {
				maxFinite = x.Start
			}
			if x.End == ival.Infinity {
				unbounded = true
			} else if x.End > maxFinite {
				maxFinite = x.End
			}
		}
		if len(s.active) == 0 {
			continue
		}
		s.boundaries = s.boundaries[:0]
		for _, r := range s.active {
			s.boundaries = append(s.boundaries, r.iv.Start)
			if e := r.iv.End; e < maxFinite {
				s.boundaries = append(s.boundaries, e)
			} else {
				s.boundaries = append(s.boundaries, maxFinite)
			}
		}
		slices.Sort(s.boundaries)
		s.boundaries = oracleDedupTimes(s.boundaries)
		for bi := 0; bi+1 < len(s.boundaries); bi++ {
			segStart, segEnd := s.boundaries[bi], s.boundaries[bi+1]
			start := len(s.vals)
			if combine != nil {
				folded, n := oracleFold(s.active, ival.New(segStart, segEnd), combine)
				if n == 0 {
					continue
				}
				s.vals = append(s.vals, folded)
			} else {
				for _, r := range s.active {
					if r.iv.Contains(segStart) {
						s.vals = append(s.vals, r.val)
					}
				}
				if len(s.vals) == start {
					continue
				}
			}
			msgs := s.vals[start:len(s.vals):len(s.vals)]
			for t := segStart; t < segEnd; t++ {
				out = append(out, anyTuple{Interval: ival.Point(t), State: st.Value, Msgs: msgs})
			}
		}
		if unbounded {
			start := len(s.vals)
			for _, r := range s.active {
				if r.iv.End != ival.Infinity {
					continue
				}
				if combine == nil || len(s.vals) == start {
					s.vals = append(s.vals, r.val)
				} else {
					s.vals[start] = combine(s.vals[start], r.val)
				}
			}
			out = append(out, anyTuple{Interval: ival.From(maxFinite), State: st.Value, Msgs: s.vals[start:len(s.vals):len(s.vals)]})
		}
	}
	return out
}
