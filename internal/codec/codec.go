// Package codec implements the wire encoding GRAPHITE uses for interval
// messages (Sec. VI "Interval Messages"): time-points are variable
// byte-length numbers, unit-length intervals and intervals extending to ∞
// are flagged in a header byte so only the start point is transmitted.
// The paper reports 59–78% message-size reductions from this encoding; the
// MsgSize experiment reproduces that measurement. Reader is the one
// bounds-checked decoder every varint record read back from disk or a peer
// goes through.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	ival "graphite/internal/interval"
)

// Header flags for interval encoding.
const (
	flagUnit      = 0x01 // [t, t+1): only start encoded
	flagUnbounded = 0x02 // [t, ∞): only start encoded
	flagEmpty     = 0x04 // empty interval: nothing else encoded
)

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("codec: corrupt buffer")

// AppendInterval appends the variable-length encoding of iv to buf.
func AppendInterval(buf []byte, iv ival.Interval) []byte {
	switch {
	case iv.IsEmpty():
		return append(buf, flagEmpty)
	case iv.IsUnit():
		buf = append(buf, flagUnit)
		return binary.AppendUvarint(buf, uint64(iv.Start))
	case iv.IsUnbounded():
		buf = append(buf, flagUnbounded)
		return binary.AppendUvarint(buf, uint64(iv.Start))
	default:
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(iv.Start))
		// Length, not end: deltas are small for typical intervals.
		return binary.AppendUvarint(buf, uint64(iv.End-iv.Start))
	}
}

// Interval decodes an interval from buf, returning it and the bytes consumed.
func Interval(buf []byte) (ival.Interval, int, error) {
	if len(buf) == 0 {
		return ival.Empty, 0, ErrCorrupt
	}
	flags := buf[0]
	n := 1
	if flags&flagEmpty != 0 {
		return ival.Empty, n, nil
	}
	start, k := binary.Uvarint(buf[n:])
	if k <= 0 {
		return ival.Empty, 0, ErrCorrupt
	}
	n += k
	switch {
	case flags&flagUnit != 0:
		return ival.Point(int64(start)), n, nil
	case flags&flagUnbounded != 0:
		return ival.From(int64(start)), n, nil
	default:
		length, k := binary.Uvarint(buf[n:])
		if k <= 0 {
			return ival.Empty, 0, ErrCorrupt
		}
		n += k
		return ival.New(int64(start), int64(start)+int64(length)), n, nil
	}
}

// IntervalSize returns the encoded size of iv without allocating.
func IntervalSize(iv ival.Interval) int {
	_, n := ClassAndSize(iv)
	return n
}

// FixedIntervalSize is the size of the naive encoding the paper compares
// against: two 8-byte longs.
const FixedIntervalSize = 16

// UvarintLen returns the number of bytes binary.AppendUvarint gives v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Payload encodes and decodes a message payload. Algorithms register one
// per message type so the engine can serialize across the worker transport
// and account message bytes.
type Payload interface {
	// Append appends the encoding of v to buf.
	Append(buf []byte, v any) []byte
	// Decode reads one value from buf, returning it and the bytes consumed.
	Decode(buf []byte) (any, int, error)
}

// Int64 encodes int64 payloads as zig-zag varints.
type Int64 struct{}

// Append implements Payload.
func (Int64) Append(buf []byte, v any) []byte { return AppendWord(buf, IntWord(v.(int64))) }

// Decode implements Payload.
func (Int64) Decode(buf []byte) (any, int, error) { return decodeInline(buf, KindInt) }

// Int64Pair is a two-field payload, e.g. (arrival, parent) for TMST or
// (value, origin) for path algorithms.
type Int64Pair struct{ A, B int64 }

// PairCodec encodes Int64Pair payloads as two zig-zag varints.
type PairCodec struct{}

// Append implements Payload.
func (PairCodec) Append(buf []byte, v any) []byte {
	p := v.(Int64Pair)
	return AppendWord(buf, PairWord(p.A, p.B))
}

// Decode implements Payload.
func (PairCodec) Decode(buf []byte) (any, int, error) { return decodeInline(buf, KindPair) }

// decodeInline is the any form of DecodeWord: the three codecs above have
// one wire form, whether the engine moves their values as words or a caller
// as values.
func decodeInline(buf []byte, k Kind) (any, int, error) {
	w, n, err := DecodeWord(buf, k)
	if err != nil {
		return nil, 0, err
	}
	return w.Resolve(nil), n, nil
}

// Int64Slice encodes []int64 payloads (used by the clustering algorithms,
// whose messages carry neighbor lists).
type Int64Slice struct{}

// Append implements Payload.
func (Int64Slice) Append(buf []byte, v any) []byte {
	s := v.([]int64)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, x := range s {
		buf = binary.AppendVarint(buf, x)
	}
	return buf
}

// Decode implements Payload.
func (Int64Slice) Decode(buf []byte) (any, int, error) {
	n := 0
	l, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, 0, ErrCorrupt
	}
	n += k
	if l > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per element
		return nil, 0, fmt.Errorf("%w: slice length %d", ErrCorrupt, l)
	}
	s := make([]int64, l)
	for i := range s {
		v, k := binary.Varint(buf[n:])
		if k <= 0 {
			return nil, 0, ErrCorrupt
		}
		s[i] = v
		n += k
	}
	return s, n, nil
}

// Float64 encodes float64 payloads as fixed 8-byte IEEE-754 values.
type Float64 struct{}

// Append implements Payload.
func (Float64) Append(buf []byte, v any) []byte { return AppendWord(buf, FloatWord(v.(float64))) }

// Decode implements Payload.
func (Float64) Decode(buf []byte) (any, int, error) { return decodeInline(buf, KindFloat) }
