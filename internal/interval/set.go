package interval

import (
	"sort"
	"strings"
)

// Set is a canonical set of time-points represented as sorted, disjoint,
// non-adjacent intervals. The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a canonical set from arbitrary (possibly overlapping,
// unsorted, or empty) intervals.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Add inserts all time-points of iv into the set, coalescing adjacent and
// overlapping intervals.
func (s *Set) Add(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	// Find insertion window: all stored intervals that overlap or are
	// adjacent to iv get merged into it.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End >= iv.Start })
	j := i
	merged := iv
	for j < len(s.ivs) && s.ivs[j].Start <= iv.End {
		merged = merged.Union(s.ivs[j])
		j++
	}
	out := make([]Interval, 0, len(s.ivs)-(j-i)+1)
	out = append(out, s.ivs[:i]...)
	out = append(out, merged)
	out = append(out, s.ivs[j:]...)
	s.ivs = out
}

// Contains reports whether time-point t is in the set.
func (s Set) Contains(t Time) bool {
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// ContainsInterval reports whether every time-point of iv is in the set.
func (s Set) ContainsInterval(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > iv.Start })
	return i < len(s.ivs) && s.ivs[i].ContainsInterval(iv)
}

// Intersects reports whether the set shares any time-point with iv.
func (s Set) Intersects(iv Interval) bool {
	if iv.IsEmpty() {
		return false
	}
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > iv.Start })
	return i < len(s.ivs) && s.ivs[i].Intersects(iv)
}

// IsEmpty reports whether the set contains no time-points.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Intervals returns the canonical intervals of the set in ascending order.
// The returned slice must not be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// Len returns the number of canonical intervals.
func (s Set) Len() int { return len(s.ivs) }

// Duration returns the total number of time-points, or Infinity if unbounded.
func (s Set) Duration() Time {
	var d Time
	for _, iv := range s.ivs {
		if iv.End == Infinity {
			return Infinity
		}
		d += iv.Length()
	}
	return d
}

// Intersect returns the set of time-points present in both s and iv.
func (s Set) Intersect(iv Interval) Set {
	var out Set
	for _, v := range s.ivs {
		if x := v.Intersect(iv); !x.IsEmpty() {
			out.ivs = append(out.ivs, x)
		}
	}
	return out
}

// Subtract returns a copy of s with all time-points of iv removed.
func (s Set) Subtract(iv Interval) Set {
	var out Set
	for _, v := range s.ivs {
		x := v.Intersect(iv)
		if x.IsEmpty() {
			out.ivs = append(out.ivs, v)
			continue
		}
		if v.Start < x.Start {
			out.ivs = append(out.ivs, Interval{Start: v.Start, End: x.Start})
		}
		if x.End < v.End {
			out.ivs = append(out.ivs, Interval{Start: x.End, End: v.End})
		}
	}
	return out
}

// Equal reports whether two sets contain exactly the same time-points.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != other.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set as a list of intervals.
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
