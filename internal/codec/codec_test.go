package codec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	ival "graphite/internal/interval"
)

func TestIntervalRoundTrip(t *testing.T) {
	cases := []ival.Interval{
		ival.Empty,
		ival.Point(0),
		ival.Point(5),
		ival.Point(1 << 40),
		ival.From(0),
		ival.From(123456),
		ival.New(3, 9),
		ival.New(0, 1000000),
		ival.Universe,
	}
	for _, iv := range cases {
		buf := AppendInterval(nil, iv)
		if len(buf) != IntervalSize(iv) {
			t.Errorf("%v: size %d != IntervalSize %d", iv, len(buf), IntervalSize(iv))
		}
		got, n, err := Interval(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%v: decode err=%v n=%d len=%d", iv, err, n, len(buf))
		}
		if iv.IsEmpty() {
			if !got.IsEmpty() {
				t.Errorf("empty interval decoded as %v", got)
			}
			continue
		}
		if got != iv {
			t.Errorf("round trip %v -> %v", iv, got)
		}
	}
}

func TestIntervalRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := r.Int63n(1 << 32)
		var iv ival.Interval
		switch r.Intn(3) {
		case 0:
			iv = ival.Point(s)
		case 1:
			iv = ival.From(s)
		default:
			iv = ival.New(s, s+r.Int63n(1000)+1)
		}
		// Encode with a non-empty prefix to check append semantics.
		prefix := []byte{0xAA, 0xBB}
		buf := AppendInterval(prefix, iv)
		got, n, err := Interval(buf[2:])
		return err == nil && n == len(buf)-2 && got == iv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalDecodeCorrupt(t *testing.T) {
	for _, buf := range [][]byte{nil, {}, {0x00}, {0x00, 0x80}, {0x01}, {0x02, 0xFF}} {
		if _, _, err := Interval(buf); err == nil {
			t.Errorf("buffer %v should fail to decode", buf)
		}
	}
}

func TestVarByteSavings(t *testing.T) {
	// The paper's claim: variable byte-length intervals cut message sizes by
	// 59-78%. For small time domains with many unit/unbounded intervals the
	// encoded interval must be far below the fixed 16-byte layout.
	ivs := []ival.Interval{ival.Point(7), ival.From(12), ival.New(3, 20)}
	var total int
	for _, iv := range ivs {
		total += IntervalSize(iv)
	}
	fixed := FixedIntervalSize * len(ivs)
	saving := 1 - float64(total)/float64(fixed)
	if saving < 0.59 {
		t.Errorf("saving = %.2f, want >= 0.59 for small time-points", saving)
	}
}

func TestInt64Codec(t *testing.T) {
	c := Int64{}
	for _, v := range []int64{0, 1, -1, 1 << 50, -(1 << 50)} {
		buf := c.Append(nil, v)
		got, n, err := c.Decode(buf)
		if err != nil || n != len(buf) || got.(int64) != v {
			t.Errorf("round trip %d failed: got=%v n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := c.Decode(nil); err == nil {
		t.Errorf("empty decode should fail")
	}
}

func TestPairCodec(t *testing.T) {
	c := PairCodec{}
	p := Int64Pair{A: -42, B: 1 << 33}
	buf := c.Append(nil, p)
	got, n, err := c.Decode(buf)
	if err != nil || n != len(buf) || got.(Int64Pair) != p {
		t.Fatalf("round trip failed: %v %d %v", got, n, err)
	}
	if _, _, err := c.Decode(buf[:1]); err == nil {
		t.Errorf("truncated decode should fail")
	}
}

func TestInt64SliceCodec(t *testing.T) {
	c := Int64Slice{}
	for _, s := range [][]int64{{}, {1}, {3, -7, 1 << 40, 0}} {
		buf := c.Append(nil, s)
		got, n, err := c.Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if !reflect.DeepEqual(got.([]int64), s) && len(s) > 0 {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	// Corrupt: declared length beyond buffer.
	if _, _, err := c.Decode([]byte{0xFF, 0xFF, 0x01}); err == nil {
		t.Errorf("oversized length should fail")
	}
}

// TestClassAndSize holds the combined accounting helper to what AppendInterval
// writes — header flag and length — and its two single-answer wrappers to it,
// on every class's edge: inverted and zero-width empties, the last finite
// unit interval, and [∞−1, ∞), which is unbounded, not unit.
func TestClassAndSize(t *testing.T) {
	flagOf := map[byte]IntervalClass{flagEmpty: ClassEmpty, flagUnit: ClassUnit, flagUnbounded: ClassUnbounded, 0: ClassGeneral}
	cases := []ival.Interval{
		ival.Empty, ival.New(7, 7), ival.New(9, 3), ival.New(ival.Infinity, ival.Infinity),
		ival.Point(0), ival.Point(127), ival.Point(128), ival.Point(ival.Infinity - 2),
		ival.From(0), ival.From(1 << 40), ival.From(ival.Infinity - 1), ival.Universe,
		ival.New(3, 5), ival.New(0, 1<<20), ival.New(1<<40, 1<<41), ival.New(0, ival.Infinity-1),
	}
	for _, iv := range cases {
		buf := AppendInterval(nil, iv)
		class, size := ClassAndSize(iv)
		if class != flagOf[buf[0]] || size != len(buf) {
			t.Errorf("%v: ClassAndSize = (%v, %d), AppendInterval wrote class %v in %d bytes",
				iv, class, size, flagOf[buf[0]], len(buf))
		}
		if ClassOf(iv) != class || IntervalSize(iv) != size {
			t.Errorf("%v: ClassOf/IntervalSize = (%v, %d), ClassAndSize = (%v, %d)",
				iv, ClassOf(iv), IntervalSize(iv), class, size)
		}
	}
}
