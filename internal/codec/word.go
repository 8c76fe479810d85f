package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind tags what a Word holds.
type Kind uint8

// The palette is the built-in codecs' own value types; everything else
// spills.
const (
	KindNil   Kind = iota // no payload
	KindInt               // A is an int64
	KindFloat             // A is a float64's IEEE-754 bits
	KindPair              // A and B are an Int64Pair's fields
	KindSpill             // A indexes the spill table of whatever holds the word
)

// Word is a message payload in memory: a kind tag and two 64-bit words, no
// pointer, so a slab of messages is nothing the collector scans and copying
// one takes no write barrier. int64, float64, Int64Pair and nil are held
// inline; any other value lives in a []any spill table owned by the container
// the word sits in (an engine message slab, a warp scratch) and the word
// holds its index there — whoever moves the word between containers moves the
// entry with it, and reads it back through the container (engine.Context's
// and core.VertexCtx's Payload).
type Word struct {
	A, B uint64
	K    Kind
}

// IntWord, FloatWord and PairWord build palette words.
func IntWord(v int64) Word     { return Word{K: KindInt, A: uint64(v)} }
func FloatWord(f float64) Word { return Word{K: KindFloat, A: math.Float64bits(f)} }
func PairWord(a, b int64) Word { return Word{K: KindPair, A: uint64(a), B: uint64(b)} }

// Int, Float and Pair read a palette word back. Like the type assertion on an
// any they replace, they panic on a word of another kind.
func (w Word) Int() int64 {
	if w.K != KindInt {
		w.mismatch(KindInt)
	}
	return int64(w.A)
}

func (w Word) Float() float64 {
	if w.K != KindFloat {
		w.mismatch(KindFloat)
	}
	return math.Float64frombits(w.A)
}

func (w Word) Pair() Int64Pair {
	if w.K != KindPair {
		w.mismatch(KindPair)
	}
	return Int64Pair{A: int64(w.A), B: int64(w.B)}
}

// mismatch stays out of line so that the accessors inline.
//
//go:noinline
func (w Word) mismatch(want Kind) {
	panic(fmt.Sprintf("codec: word is %s, not %s", w.K, want))
}

// WordOf converts a value of the palette to its word; ok is false for any
// other value, which the caller spills.
func WordOf(v any) (w Word, ok bool) {
	switch x := v.(type) {
	case nil:
		return Word{}, true
	case int64:
		return IntWord(x), true
	case float64:
		return FloatWord(x), true
	case Int64Pair:
		return PairWord(x.A, x.B), true
	}
	return Word{}, false
}

// Resolve returns the value w stands for, reading a spilled one from the
// table of the container w sits in: the inverse of WordOf on the palette.
func (w Word) Resolve(spill []any) any {
	switch w.K {
	case KindInt:
		return int64(w.A)
	case KindFloat:
		return math.Float64frombits(w.A)
	case KindPair:
		return Int64Pair{A: int64(w.A), B: int64(w.B)}
	case KindSpill:
		return spill[w.A]
	}
	return nil
}

// Equal reports whether two inline words hold equal values, as == on the
// values would: +0 equals −0, NaN equals nothing, an int64 never equals a
// float64. Spilled words compare by slot; compare what they resolve to.
func (w Word) Equal(o Word) bool {
	if w.K != o.K {
		return false
	}
	if w.K == KindFloat {
		return math.Float64frombits(w.A) == math.Float64frombits(o.A)
	}
	return w.A == o.A && w.B == o.B
}

// String renders the value as fmt would render the any it replaces.
func (w Word) String() string {
	if w.K == KindSpill {
		return "spill#" + strconv.FormatUint(w.A, 10)
	}
	return fmt.Sprint(w.Resolve(nil))
}

func (k Kind) String() string {
	if names := [...]string{"nil", "int64", "float64", "Int64Pair", "spilled"}; int(k) < len(names) {
		return names[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// NoInline is the kind of no word: what InlineKind reports for a codec with
// only an any form (Int64Slice, one of a caller's own) and for no codec.
const NoInline = ^Kind(0)

// InlineKind returns the kind of word pc's payloads are, when pc is one of
// the codecs whose wire form AppendWord and DecodeWord also speak.
func InlineKind(pc Payload) Kind {
	switch pc.(type) {
	case Int64:
		return KindInt
	case Float64:
		return KindFloat
	case PairCodec:
		return KindPair
	}
	return NoInline
}

// AppendWord appends the wire form of an int64, float64 or pair word: the
// bytes Int64, Float64 and PairCodec give the value.
func AppendWord(buf []byte, w Word) []byte {
	switch w.K {
	case KindInt:
		return binary.AppendVarint(buf, int64(w.A))
	case KindFloat:
		return binary.BigEndian.AppendUint64(buf, w.A)
	case KindPair:
		buf = binary.AppendVarint(buf, int64(w.A))
		return binary.AppendVarint(buf, int64(w.B))
	}
	panic("codec: a " + w.K.String() + " word has no wire form of its own")
}

// WordSize returns the number of bytes AppendWord gives w, without encoding.
func WordSize(w Word) int {
	switch w.K {
	case KindInt:
		return VarintLen(int64(w.A))
	case KindFloat:
		return 8
	case KindPair:
		return VarintLen(int64(w.A)) + VarintLen(int64(w.B))
	}
	panic("codec: a " + w.K.String() + " word has no wire form of its own")
}

// DecodeWord reads one word of kind k, returning it and the bytes consumed.
func DecodeWord(buf []byte, k Kind) (Word, int, error) {
	switch k {
	case KindInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Word{}, 0, ErrCorrupt
		}
		return IntWord(v), n, nil
	case KindFloat:
		if len(buf) < 8 {
			return Word{}, 0, ErrCorrupt
		}
		return Word{K: KindFloat, A: binary.BigEndian.Uint64(buf)}, 8, nil
	case KindPair:
		a, n := binary.Varint(buf)
		if n <= 0 {
			return Word{}, 0, ErrCorrupt
		}
		b, k := binary.Varint(buf[n:])
		if k <= 0 {
			return Word{}, 0, ErrCorrupt
		}
		return PairWord(a, b), n + k, nil
	}
	panic("codec: a " + k.String() + " word has no wire form of its own")
}

// VarintLen returns the number of bytes binary.AppendVarint gives v.
func VarintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return UvarintLen(ux)
}
