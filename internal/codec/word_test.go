package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// The any-form encoders as they were before the built-in codecs were written
// through AppendWord: the reference the word forms are held to, byte for byte.
var anyForm = map[Kind]func(buf []byte, v any) []byte{
	KindInt: func(buf []byte, v any) []byte { return binary.AppendVarint(buf, v.(int64)) },
	KindFloat: func(buf []byte, v any) []byte {
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
	},
	KindPair: func(buf []byte, v any) []byte {
		p := v.(Int64Pair)
		return binary.AppendVarint(binary.AppendVarint(buf, p.A), p.B)
	},
}

var kindCodec = map[Kind]Payload{KindInt: Int64{}, KindFloat: Float64{}, KindPair: PairCodec{}}

// identical is equality down to the bit: NaN is itself, 0 is not −0.
func identical(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return reflect.DeepEqual(a, b)
}

// TestWordOfPalette: any → word → any is the identity on the palette, bit for
// bit, at its edges; every other value is refused, for the caller to spill.
func TestWordOfPalette(t *testing.T) {
	palette := []any{
		nil, int64(0), int64(-1), int64(255), int64(256), int64(math.MinInt64), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1.5,
		Int64Pair{}, Int64Pair{A: math.MinInt64, B: math.MaxInt64}, Int64Pair{A: -1, B: 1},
	}
	for _, v := range palette {
		w, ok := WordOf(v)
		if !ok || w.K == KindSpill {
			t.Errorf("WordOf(%#v) = %v, %v; want an inline word", v, w, ok)
			continue
		}
		if got := w.Resolve(nil); !identical(got, v) {
			t.Errorf("%#v came back from its word as %#v", v, got)
		}
		if w.K == KindNil {
			continue
		}
		if k := InlineKind(kindCodec[w.K]); k != w.K {
			t.Errorf("InlineKind of the %s codec = %v", w.K, k)
		}
		enc := AppendWord([]byte{0xAA}, w)
		if want := anyForm[w.K]([]byte{0xAA}, v); !bytes.Equal(enc, want) {
			t.Errorf("AppendWord(%#v) = %x, the value's own encoding is %x", v, enc, want)
		}
		if WordSize(w) != len(enc)-1 {
			t.Errorf("WordSize(%#v) = %d, encoded in %d", v, WordSize(w), len(enc)-1)
		}
		back, n, err := DecodeWord(enc[1:], w.K)
		if err != nil || n != len(enc)-1 || back != w {
			t.Errorf("DecodeWord(%x) = %v, %d, %v; want %v", enc[1:], back, n, err, w)
		}
	}
	for _, v := range []any{0, int32(1), uint64(1), float32(1), true, "s", []int64{1}, [2]int64{1, 2}, struct{}{}, &Int64Pair{}} {
		if w, ok := WordOf(v); ok {
			t.Errorf("WordOf(%#v) = %v: only int64, float64, Int64Pair and nil are held inline", v, w)
		}
	}
	if InlineKind(Int64Slice{}) != NoInline || InlineKind(nil) != NoInline {
		t.Error("Int64Slice, and no codec, have no word form")
	}
}

// TestWordAccessorsCheckTheKind: reading a word as another kind panics, as
// the type assertion it replaces did.
func TestWordAccessorsCheckTheKind(t *testing.T) {
	for name, read := range map[string]func(){
		"Int of a float":  func() { FloatWord(1).Int() },
		"Float of an int": func() { IntWord(1).Float() },
		"Pair of nil":     func() { Word{}.Pair() },
		"Int of a spill":  func() { Word{K: KindSpill}.Int() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			read()
		}()
	}
}

// FuzzWordRoundTrip: whatever bytes decode as a word of a codec's kind, the
// word re-encodes — and is sized — exactly as the value it stands for does
// under the codec's any form as it was, and the any form decodes the same
// bytes to that value.
func FuzzWordRoundTrip(f *testing.F) {
	f.Add([]byte{0x01}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(0))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0}, uint8(1)) // −0.0
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, uint8(1))
	f.Add([]byte{0x03, 0x80, 0x01}, uint8(2))
	kinds := []Kind{KindInt, KindFloat, KindPair}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		k := kinds[int(which)%len(kinds)]
		w, n, err := DecodeWord(data, k)
		v, vn, verr := kindCodec[k].Decode(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("DecodeWord error %v, the codec's %v", err, verr)
		}
		if err != nil {
			return
		}
		if n != vn || n <= 0 || n > len(data) || w.K != k || !identical(w.Resolve(nil), v) {
			t.Fatalf("DecodeWord = %v over %d bytes, the codec's Decode %#v over %d", w, n, v, vn)
		}
		enc := AppendWord(nil, w)
		if want := anyForm[k](nil, v); !bytes.Equal(enc, want) || WordSize(w) != len(want) {
			t.Fatalf("word %v encodes as %x (sized %d), its value as %x", w, enc, WordSize(w), want)
		}
		if again, _, err := DecodeWord(enc, k); err != nil || again != w {
			t.Fatalf("%x decodes back as %v, %v; want %v", enc, again, err, w)
		}
	})
}
