// Package interval implements the discrete, linearly ordered time domain of
// the temporal graph model (Sec. III of the ICM paper): time-points, half-open
// time-intervals [start, end), Allen's interval relations, and interval sets.
//
// Time-points are non-negative int64 values; Infinity is represented by
// math.MaxInt64 and all arithmetic saturates at Infinity, so intervals such as
// [t, ∞) behave correctly under translation.
package interval

import (
	"math"
	"strconv"
)

// Time is a discrete time-point in the time domain Ω.
type Time = int64

// Infinity is the time-point used to represent an unbounded future. An
// interval [t, Infinity) contains every time-point >= t.
const Infinity Time = math.MaxInt64

// Interval is a half-open time-interval [Start, End). It contains the
// time-points {t | Start <= t < End}. An interval with Start >= End is empty.
type Interval struct {
	Start Time
	End   Time
}

// New returns the interval [start, end).
func New(start, end Time) Interval { return Interval{Start: start, End: end} }

// Point returns the unit-length interval [t, t+1) containing exactly t.
func Point(t Time) Interval { return Interval{Start: t, End: SatAdd(t, 1)} }

// From returns the unbounded interval [start, ∞).
func From(start Time) Interval { return Interval{Start: start, End: Infinity} }

// Empty is the canonical empty interval.
var Empty = Interval{Start: 0, End: 0}

// Universe is the interval covering the whole time domain, [0, ∞).
var Universe = Interval{Start: 0, End: Infinity}

// SatAdd returns a+b, saturating at Infinity. Either operand being Infinity
// yields Infinity. Operands must be non-negative except that a finite
// negative b is permitted when a is finite (plain addition applies).
func SatAdd(a, b Time) Time {
	if a == Infinity || b == Infinity {
		return Infinity
	}
	if b > 0 && a > Infinity-b {
		return Infinity
	}
	return a + b
}

// SatSub returns a-b, saturating: Infinity minus any finite value is
// Infinity, and results below 0 are clamped to 0.
func SatSub(a, b Time) Time {
	if a == Infinity {
		return Infinity
	}
	if b >= a {
		return 0
	}
	return a - b
}

// IsEmpty reports whether the interval contains no time-points.
func (iv Interval) IsEmpty() bool { return iv.Start >= iv.End }

// IsUnit reports whether the interval contains exactly one time-point.
func (iv Interval) IsUnit() bool { return !iv.IsEmpty() && iv.End != Infinity && iv.End-iv.Start == 1 }

// IsUnbounded reports whether the interval extends to Infinity.
func (iv Interval) IsUnbounded() bool { return !iv.IsEmpty() && iv.End == Infinity }

// Length returns the number of time-points in the interval, or Infinity for
// unbounded intervals.
func (iv Interval) Length() Time {
	if iv.IsEmpty() {
		return 0
	}
	if iv.End == Infinity {
		return Infinity
	}
	return iv.End - iv.Start
}

// Contains reports whether time-point t lies inside the interval.
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// ContainsInterval reports whether other is fully contained in iv
// (Allen's "during or equals", written ⊑ in the paper).
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	return other.Start >= iv.Start && other.End <= iv.End
}

// During reports Allen's strict "during" relation: iv is contained in other
// and does not equal it.
func (iv Interval) During(other Interval) bool {
	return other.ContainsInterval(iv) && iv != other && !iv.IsEmpty()
}

// Intersects reports whether the two intervals share at least one time-point
// (the ≬ relation in the paper).
func (iv Interval) Intersects(other Interval) bool {
	return !iv.Intersect(other).IsEmpty()
}

// Intersect returns the intersection iv ∩ other; the result may be empty.
func (iv Interval) Intersect(other Interval) Interval {
	s := iv.Start
	if other.Start > s {
		s = other.Start
	}
	e := iv.End
	if other.End < e {
		e = other.End
	}
	if s >= e {
		return Empty
	}
	return Interval{Start: s, End: e}
}

// Meets reports Allen's "meets" relation: iv ends exactly where other begins.
func (iv Interval) Meets(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() && iv.End == other.Start
}

// Precedes reports whether iv ends at or before other starts (no overlap,
// iv first).
func (iv Interval) Precedes(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() && iv.End <= other.Start
}

// Union returns the smallest interval covering both operands. It is only a
// set-union when the operands intersect or meet; Hull is the honest name, and
// callers needing exact unions should use Set.
func (iv Interval) Union(other Interval) Interval {
	if iv.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return iv
	}
	s := iv.Start
	if other.Start < s {
		s = other.Start
	}
	e := iv.End
	if other.End > e {
		e = other.End
	}
	return Interval{Start: s, End: e}
}

// Translate shifts both endpoints by delta, saturating at Infinity.
func (iv Interval) Translate(delta Time) Interval {
	if iv.IsEmpty() {
		return Empty
	}
	return Interval{Start: SatAdd(iv.Start, delta), End: SatAdd(iv.End, delta)}
}

// String renders the interval in the paper's [s, e) notation, using ∞ for
// unbounded ends: Append into a stack buffer, one allocation.
func (iv Interval) String() string {
	var buf [2*20 + len("[, )")]byte // two int64s at their widest
	return string(iv.Append(buf[:0]))
}

// Append appends the interval as String renders it. Result rendering calls
// it once per state partition, with no string in between.
func (iv Interval) Append(b []byte) []byte {
	if iv.IsEmpty() {
		return append(b, "[)"...)
	}
	b = strconv.AppendInt(append(b, '['), iv.Start, 10)
	b = append(b, ", "...)
	if iv.End == Infinity {
		b = append(b, "∞"...)
	} else {
		b = strconv.AppendInt(b, iv.End, 10)
	}
	return append(b, ')')
}

// Valid reports whether the interval is non-empty and has a non-negative
// start, i.e. lies within the time domain.
func (iv Interval) Valid() bool { return iv.Start >= 0 && iv.Start < iv.End }

// Overlaps reports Allen's "overlaps" relation: iv starts before other,
// they intersect, and iv ends inside other.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() &&
		iv.Start < other.Start && iv.End > other.Start && iv.End < other.End
}

// Starts reports Allen's "starts" relation: both begin together and iv ends
// first.
func (iv Interval) Starts(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() &&
		iv.Start == other.Start && iv.End < other.End
}

// Finishes reports Allen's "finishes" relation: both end together and iv
// starts later.
func (iv Interval) Finishes(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() &&
		iv.End == other.End && iv.Start > other.Start
}
