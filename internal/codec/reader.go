package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	ival "graphite/internal/interval"
)

// Reader pops the fields of one varint record — a snapshot section, a WAL
// batch, a checkpoint capture, a frame header — off its bytes, bounds-checked.
// The first malformed field sets Err to an error wrapping the record's kind
// and naming the byte offset it sits at; every read after that returns a zero
// value, so a decoder reads its whole record and checks once, at Done.
type Reader struct {
	b    []byte
	off  int
	kind error
	Err  error
}

// NewReader reads b, reporting a malformed field as an error wrapping kind.
func NewReader(b []byte, kind error) Reader { return Reader{b: b, kind: kind} }

// Fail records a malformed field at the current offset, unless one already
// has been.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%w: at byte %d: %s", r.kind, r.off, fmt.Sprintf(format, args...))
	}
}

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Uvarint pops a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated or oversized uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint pops a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated or oversized varint")
		return 0
	}
	r.off += n
	return v
}

// Max pops a uvarint no larger than max; what names it in the error.
func (r *Reader) Max(what string, max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.Fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	return v
}

// Int pops a uvarint no larger than math.MaxInt32, as an int.
func (r *Reader) Int(what string) int { return int(r.Max(what, math.MaxInt32)) }

// Count pops the element count of a list whose every element takes at least
// min bytes: a count the bytes left cannot hold fails, so the count bounds the
// allocation it sizes by the record's own length.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if left := r.Len(); v > uint64(left/min)+1 || v > math.MaxInt32 {
		r.Fail("count %d exceeds the %d bytes left", v, left)
		return 0
	}
	return int(v)
}

// Byte pops one byte.
func (r *Reader) Byte() byte {
	if r.Err == nil && r.Len() < 1 {
		r.Fail("truncated")
	}
	if r.Err != nil {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Bytes pops n bytes, aliasing the record.
func (r *Reader) Bytes(n int) []byte {
	if r.Err == nil && (n < 0 || n > r.Len()) {
		r.Fail("%d bytes overrun the %d left", n, r.Len())
	}
	if r.Err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// Field pops a uvarint length and that many bytes, aliasing the record.
func (r *Reader) Field(what string) []byte {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("%s of %d bytes overruns the %d left", what, n, r.Len())
		return nil
	}
	return r.Bytes(int(n))
}

// Interval pops an interval in the message encoding (AppendInterval).
func (r *Reader) Interval() ival.Interval {
	if r.Err != nil {
		return ival.Empty
	}
	iv, n, err := Interval(r.b[r.off:])
	if err != nil {
		r.Fail("bad interval")
		return ival.Empty
	}
	r.off += n
	return iv
}

// Value pops one payload value in pc's encoding; a malformed one's error
// wraps both the record's kind and pc's own error.
func (r *Reader) Value(pc Payload) any {
	if r.Err != nil {
		return nil
	}
	v, n, err := pc.Decode(r.b[r.off:])
	if err != nil {
		r.Err = fmt.Errorf("%w: at byte %d: %w", r.kind, r.off, err)
		return nil
	}
	r.off += n
	return v
}

// Rest pops every byte left, aliasing the record.
func (r *Reader) Rest() []byte { return r.Bytes(r.Len()) }

// Done ends the record: it returns Err, or an error for any byte left over.
func (r *Reader) Done() error {
	if r.Err == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	return r.Err
}
