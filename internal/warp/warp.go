// Package warp implements the time-join and time-warp operators of Sec. IV-B
// of the ICM paper.
//
// Time-warp takes an outer set of temporally partitioned interval/value pairs
// (a vertex's partitioned states) and an inner set of interval/value pairs
// (its incoming messages, or its out-edge sub-intervals), and returns the
// fewest temporally partitioned triples 〈interval, outer value, inner group〉
// such that:
//
//  1. Valid inclusion — every overlapping outer/inner value pair appears in
//     an output triple for every shared time-point.
//  2. No invalid inclusion — values appear only for time-points at which both
//     exist.
//  3. No duplication — an outer value appears in at most one triple per
//     time-point.
//  4. Maximal — adjacent or overlapping triples with the same outer value and
//     the same inner group are merged.
//
// The implementation is one merge sweep (Scratch.Sweep): the m inner tuples
// are sorted once by (start, arrival index), then walked together with the k
// outer partitions, admitting a tuple when the sweep reaches its start and
// retiring tuples only when it reaches the earliest end among the active
// ones. Warp and PointGroups differ only in how a segment of the sweep is
// emitted. Cost is O(m log m + k + output) plus, per retirement event, one
// pass over the survivors; output counts the group values copied, or, under
// a combiner, one value per segment: the fold is carried as a running prefix
// that a newcomer extends with one combine call and only a retirement (or a
// newcomer that is not last in fold order) recomputes.
//
// Order contract. Without a combiner a group lists its values in arrival
// (inner-set) order. WarpCombined folds left to right in (start, arrival)
// order, PointGroupsCombined in arrival order.
package warp

import (
	"cmp"
	"reflect"
	"slices"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// Value is an opaque user value carried by states, and by messages on their
// way in: inside the sweep a message is a codec.Word.
type Value = any

// IntervalValue pairs a time-interval with a value.
type IntervalValue struct {
	Interval ival.Interval
	Value    Value
}

// Tuple is one output triple of the warp operator: for every time-point in
// Interval, State is the (single) outer value and Msgs are all inner values
// alive at that time-point. Msgs preserves multiset semantics: one entry per
// inner tuple, in inner-set order. A message is a word: an inner value outside
// the word palette is held by the Scratch that made the tuple and read back
// with its Payload.
type Tuple struct {
	Interval ival.Interval
	State    Value
	Msgs     []codec.Word
}

// JoinTriple is one output of the time-join operator: a maximal common
// sub-interval of one outer and one inner tuple.
type JoinTriple struct {
	Interval ival.Interval
	Outer    Value
	Inner    Value
}

// TimeJoin computes the time-join ⋈̃ of the two sets: one triple per
// intersecting pair, carrying the intersection interval. Output is ordered by
// outer tuple, then inner tuple.
func TimeJoin(outer, inner []IntervalValue) []JoinTriple {
	var out []JoinTriple
	for _, o := range outer {
		for _, i := range inner {
			if x := o.Interval.Intersect(i.Interval); !x.IsEmpty() {
				out = append(out, JoinTriple{Interval: x, Outer: o.Value, Inner: i.Value})
			}
		}
	}
	return out
}

// CombineFunc folds two inner values into one; used by warp combiners
// (Sec. VI "Inline Warp Combiner"). It must be commutative and associative.
type CombineFunc func(a, b codec.Word) codec.Word

// Warp computes the time-warp of outer with inner. The outer set must be
// temporally partitioned (sorted, non-overlapping); inner may be arbitrary.
// The output is temporally partitioned and satisfies the four warp
// properties. Triples with empty inner groups are not produced. The free
// functions drop their Scratch: use its methods to align inner values outside
// the word palette and read them back.
func Warp(outer, inner []IntervalValue) []Tuple {
	var s Scratch
	return s.Warp(nil, outer, inner)
}

// WarpCombined is Warp with an inline combiner: each output triple's Msgs
// holds exactly one value, the fold of the group under combine. Folding
// happens during the sweep, saving the per-group pass that a subsequent
// compute would otherwise need.
func WarpCombined(outer, inner []IntervalValue, combine CombineFunc) []Tuple {
	var s Scratch
	return s.WarpCombined(nil, outer, inner, combine)
}

// ref is one message of the set as the sweep sees it: its interval and its
// arrival index, which finds its value, orders groups and breaks ties between
// equal starts. Pointer-free, so sorting and retiring move no values.
type ref struct {
	start, end ival.Time
	idx        int
}

// Scratch is a reusable workspace for the warp sweep: the message set, the
// active set, and the arena backing the output tuples' Msgs groups. A zero
// Scratch is ready. Buffers are grow-only, so a scratch reused across calls
// stops allocating once it has seen the largest input — the property the
// per-worker ICM workspaces rely on for allocation-free steady-state
// supersteps.
//
// A Scratch is not safe for concurrent use, and the tuples returned by its
// methods share its arena: they are valid only until the next call on the
// same Scratch.
type Scratch struct {
	msgs   []message    // the message set, in arrival order
	refs   []ref        // msgs sorted by (start, arrival)
	active []ref        // messages alive at the sweep position, in fold order
	vals   []codec.Word // arena carved into the output tuples' Msgs groups
	used   []bool       // sameGroup multiset-match scratch
	spill  []any        // what the set's KindSpill words index; emptied by Reset
}

// message is one inner tuple of the set: pointer-free, like the words the
// groups are carved from.
type message struct {
	iv ival.Interval
	w  codec.Word
}

// Warp is Warp appending into dst (usually a recycled buffer, sliced to
// length zero) and reusing the scratch's buffers. The appended tuples' Msgs
// point into the scratch arena; see the Scratch validity rule.
func (s *Scratch) Warp(dst []Tuple, outer, inner []IntervalValue) []Tuple {
	return s.load(inner).Sweep(dst, outer, nil, false)
}

// WarpCombined is WarpCombined appending into dst with the scratch's
// buffers; the same validity rule applies.
func (s *Scratch) WarpCombined(dst []Tuple, outer, inner []IntervalValue, combine CombineFunc) []Tuple {
	return s.load(inner).Sweep(dst, outer, combine, false)
}

// load makes inner the scratch's message set, converting each value to its
// word.
func (s *Scratch) load(inner []IntervalValue) *Scratch {
	s.Reset()
	for _, m := range inner {
		w, ok := codec.WordOf(m.Value)
		if !ok {
			w = s.Spill(m.Value)
		}
		s.Add(m.Interval, w)
	}
	return s
}

// Reset empties the scratch's message set and its spill table.
func (s *Scratch) Reset() {
	s.msgs = s.msgs[:0]
	clear(s.spill)
	s.spill = s.spill[:0]
}

// Add appends one inner tuple to the message set Sweep aligns — the way in
// for a caller that clips or filters its messages anyway and would otherwise
// build an []IntervalValue only to have it copied here. Arrival order is the
// order of the Add calls; empty intervals are dropped. A spilled word indexes
// this scratch's table: see Spill.
func (s *Scratch) Add(iv ival.Interval, w codec.Word) {
	if !iv.IsEmpty() {
		s.msgs = append(s.msgs, message{iv, w})
	}
}

// Spill takes a value outside the word palette into the scratch's spill
// table, until the next Reset, and returns the word that stands for it.
func (s *Scratch) Spill(v Value) codec.Word {
	s.spill = append(s.spill, v)
	return codec.Word{K: codec.KindSpill, A: uint64(len(s.spill) - 1)}
}

// Spilled returns the spill table, for moving a word on to another container.
func (s *Scratch) Spilled() []any { return s.spill }

// Payload returns the value a word of this scratch's tuples stands for.
func (s *Scratch) Payload(w codec.Word) Value { return w.Resolve(s.spill) }

// sortRefs rebuilds refs from msgs, ordered by (start, arrival index). msgs
// is in arrival order, so a stable sort by start suffices: insertion sort,
// without a comparator call, on the short inboxes that are the norm.
func (s *Scratch) sortRefs() []ref {
	refs := s.refs[:0]
	for i, m := range s.msgs {
		refs = append(refs, ref{m.iv.Start, m.iv.End, i})
	}
	s.refs = refs
	if len(refs) > 64 {
		slices.SortFunc(refs, func(a, b ref) int {
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		return refs
	}
	for i := 1; i < len(refs); i++ {
		r, j := refs[i], i
		for ; j > 0 && refs[j-1].start > r.start; j-- {
			refs[j] = refs[j-1]
		}
		refs[j] = r
	}
	return refs
}

// Sweep aligns the message set (everything Added since the last Reset) with
// outer: the body of Warp and WarpCombined, and with points set, of
// PointGroups and PointGroupsCombined; combine may be nil. It appends to out
// under the Scratch validity rule and leaves the message set in place.
//
// The sweep position moves from boundary to boundary — the next message
// start, the earliest end among the active messages, the partition end,
// whichever comes first — so each segment between two positions has one
// group: the active set.
func (s *Scratch) Sweep(out []Tuple, outer []IntervalValue, combine CombineFunc, points bool) []Tuple {
	s.vals = s.vals[:0]
	if len(outer) == 0 || len(s.msgs) == 0 {
		return out
	}
	var (
		msgs    = s.msgs
		refs    = s.sortRefs()
		active  = s.active[:0]
		arrival = combine == nil || points // fold order is arrival order, not admission order
		base    = len(out)                 // maximality never merges into tuples the caller passed in
		next    = 0                        // first message the sweep has not reached
		minEnd  = ival.Infinity            // earliest end among active; nothing retires before it
		folded  codec.Word                 // the fold of active, unless stale
		stale   bool
		pos     = outer[0].Interval.Start
	)
	for _, st := range outer {
		if st.Interval.IsEmpty() {
			continue
		}
		if st.Interval.Start < pos {
			// outer is not temporally partitioned: align this one from the top.
			next, active, minEnd = 0, active[:0], ival.Infinity
		}
		for pos = st.Interval.Start; pos < st.Interval.End; {
			if minEnd <= pos {
				k := 0
				minEnd = ival.Infinity
				for _, r := range active {
					if r.end > pos {
						active[k] = r
						k++
						minEnd = min(minEnd, r.end)
					}
				}
				active, stale = active[:k], true
			}
			for ; next < len(refs) && refs[next].start <= pos; next++ {
				r := refs[next]
				if r.end <= pos {
					continue // over before any partition reached it
				}
				k := len(active)
				active = append(active, r)
				for ; arrival && k > 0 && active[k-1].idx > r.idx; k-- {
					active[k] = active[k-1]
				}
				active[k] = r
				minEnd = min(minEnd, r.end)
				switch {
				case combine == nil:
				case len(active) == 1:
					folded, stale = msgs[r.idx].w, false
				case !stale && k == len(active)-1:
					folded = combine(folded, msgs[r.idx].w)
				default:
					stale = true
				}
			}
			end := min(st.Interval.End, minEnd)
			if next < len(refs) {
				end = min(end, refs[next].start)
			}
			if len(active) == 0 {
				pos = end
				continue
			}
			// The group is carved from the arena; a merged segment rewinds
			// its carving (every earlier group ends at or before start, so
			// the rewound region is unreferenced).
			start := len(s.vals)
			if combine == nil {
				for _, r := range active {
					s.vals = append(s.vals, msgs[r.idx].w)
				}
			} else {
				if stale {
					folded, stale = msgs[active[0].idx].w, false
					for _, r := range active[1:] {
						folded = combine(folded, msgs[r.idx].w)
					}
				}
				s.vals = append(s.vals, folded)
			}
			group := s.vals[start:len(s.vals):len(s.vals)]
			switch n := len(out); {
			case points && end != ival.Infinity:
				for t := pos; t < end; t++ {
					out = append(out, Tuple{Interval: ival.Point(t), State: st.Value, Msgs: group})
				}
			case !points && n > base && out[n-1].Interval.End == pos && s.sameGroup(out[n-1], st.Value, group):
				// Maximality: the previous triple meets this segment with
				// an equal outer value and an identical inner group.
				out[n-1].Interval.End = end
				s.vals = s.vals[:start]
			default: // a warp triple, or the [B, ∞) tail of the point path
				out = append(out, Tuple{Interval: ival.New(pos, end), State: st.Value, Msgs: group})
			}
			pos = end
		}
	}
	s.active = active
	return out
}

// sameGroup reports whether the previous output triple has the same state
// value and inner group as the candidate. Groups are compared as multisets
// of values — the formal Maximal property ranges over value sets, not
// positions. Spilled messages are compared by the values they stand for, with
// reflect.DeepEqual so that slice- and struct-valued messages work.
func (s *Scratch) sameGroup(prev Tuple, state Value, msgs []codec.Word) bool {
	if len(prev.Msgs) != len(msgs) {
		return false
	}
	if !valueEqual(prev.State, state) {
		return false
	}
	if len(msgs) == 1 {
		// The combined path and single-message groups never need the
		// multiset matcher.
		return s.sameWord(prev.Msgs[0], msgs[0])
	}
	if cap(s.used) < len(msgs) {
		s.used = make([]bool, len(msgs))
	} else {
		s.used = s.used[:len(msgs)]
		clear(s.used)
	}
	used := s.used
outer:
	for _, p := range prev.Msgs {
		for j, m := range msgs {
			if !used[j] && s.sameWord(p, m) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// sameWord compares two messages of the set as valueEqual would the values.
func (s *Scratch) sameWord(a, b codec.Word) bool {
	if a.K == codec.KindSpill && b.K == codec.KindSpill {
		return valueEqual(s.spill[a.A], s.spill[b.A])
	}
	return a.Equal(b)
}

// valueEqual compares two values, with fast paths for the common scalar
// payloads; reflect.DeepEqual is the fallback for composite values.
func valueEqual(a, b Value) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case int:
		y, ok := b.(int)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case nil:
		return b == nil
	}
	ta := reflect.TypeOf(a)
	if tb := reflect.TypeOf(b); ta != tb {
		return false
	}
	if ta.Comparable() {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// ValueEqual exposes the payload comparison for sibling packages that fuse
// adjacent equal-valued entries (partitioned states, Chlonos message runs).
func ValueEqual(a, b Value) bool { return valueEqual(a, b) }

// UnitFraction returns the fraction of inner tuples whose interval is
// unit-length; the warp-suppression heuristic of Sec. VI compares this
// against a threshold to bypass warp entirely.
func UnitFraction(inner []IntervalValue) float64 {
	if len(inner) == 0 {
		return 0
	}
	n := 0
	for _, m := range inner {
		if m.Interval.IsUnit() {
			n++
		}
	}
	return float64(n) / float64(len(inner))
}

// PointGroups degenerates warp to per-time-point grouping: for every
// time-point covered by at least one inner tuple and an outer partition, one
// unit-interval tuple is produced. This is the execution mode used when warp
// is suppressed (Sec. VI "Warp Suppression"); correctness is identical to
// Warp, only sharing is lost. Unbounded intervals are enumerated point-wise
// up to the largest finite boundary among the clipped inner intervals, after
// which a single [B, ∞) tail tuple groups the unbounded survivors, so the
// result stays finite and exact.
func PointGroups(outer, inner []IntervalValue) []Tuple {
	var s Scratch
	return s.PointGroups(nil, outer, inner)
}

// PointGroupsCombined is PointGroups with an inline combiner: each tuple's
// Msgs holds the single folded value, as in WarpCombined.
func PointGroupsCombined(outer, inner []IntervalValue, combine CombineFunc) []Tuple {
	var s Scratch
	return s.PointGroupsCombined(nil, outer, inner, combine)
}

// PointGroups is PointGroups appending into dst with the scratch's buffers;
// the returned tuples' Msgs point into the scratch arena and follow the
// Scratch validity rule.
func (s *Scratch) PointGroups(dst []Tuple, outer, inner []IntervalValue) []Tuple {
	return s.load(inner).Sweep(dst, outer, nil, true)
}

// PointGroupsCombined is PointGroupsCombined appending into dst with the
// scratch's buffers; the same validity rule applies.
func (s *Scratch) PointGroupsCombined(dst []Tuple, outer, inner []IntervalValue, combine CombineFunc) []Tuple {
	return s.load(inner).Sweep(dst, outer, combine, true)
}
