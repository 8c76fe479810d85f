package codec

import ival "graphite/internal/interval"

// IntervalClass names the encoding class an interval falls into — the same
// taxonomy the header flags encode. The observability layer splits message
// byte counts by class (obs.IntervalBytes), since the unit/unbounded
// single-point encodings are where the paper's 59–78% size reduction comes
// from.
type IntervalClass uint8

// Interval encoding classes, in header-flag order.
const (
	ClassEmpty IntervalClass = iota
	ClassUnit
	ClassUnbounded
	ClassGeneral
)

// ClassAndSize returns the encoding class AppendInterval would use for iv and
// the number of bytes it would append, from one pass over the interval's
// shape; per-message accounting wants both.
func ClassAndSize(iv ival.Interval) (IntervalClass, int) {
	switch {
	case iv.IsEmpty():
		return ClassEmpty, 1
	case iv.End == ival.Infinity:
		return ClassUnbounded, 1 + UvarintLen(uint64(iv.Start))
	case iv.End-iv.Start == 1:
		return ClassUnit, 1 + UvarintLen(uint64(iv.Start))
	default:
		return ClassGeneral, 1 + UvarintLen(uint64(iv.Start)) + UvarintLen(uint64(iv.End-iv.Start))
	}
}

// ClassOf returns the encoding class AppendInterval would use for iv.
func ClassOf(iv ival.Interval) IntervalClass {
	c, _ := ClassAndSize(iv)
	return c
}
