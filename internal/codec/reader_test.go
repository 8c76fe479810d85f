package codec

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	ival "graphite/internal/interval"
)

func TestReader(t *testing.T) {
	kind := errors.New("test record")
	valid := binary.AppendUvarint(nil, 300)
	valid = binary.AppendVarint(valid, -5)
	valid = append(valid, 7, 42, 2, 9, 'a', 'b', 3, 'x', 'y', 'z')
	valid = AppendInterval(valid, ival.New(3, 8))
	valid = Int64{}.Append(valid, int64(17))
	valid = append(valid, 0xee)

	for _, tc := range []struct {
		name string
		b    []byte
		read func(t *testing.T, r *Reader)
		want string  // in the error; "" for none
		is   []error // what the error wraps besides kind
	}{
		{name: "every field", b: valid, read: func(t *testing.T, r *Reader) {
			if v := r.Uvarint(); v != 300 {
				t.Errorf("Uvarint = %d", v)
			}
			if v := r.Varint(); v != -5 {
				t.Errorf("Varint = %d", v)
			}
			if v := r.Max("m", 7); v != 7 {
				t.Errorf("Max = %d", v)
			}
			if v := r.Int("i"); v != 42 {
				t.Errorf("Int = %d", v)
			}
			if v := r.Count(1); v != 2 {
				t.Errorf("Count = %d", v)
			}
			if v := r.Byte(); v != 9 {
				t.Errorf("Byte = %d", v)
			}
			if v := r.Bytes(2); string(v) != "ab" {
				t.Errorf("Bytes = %q", v)
			}
			if v := r.Field("f"); string(v) != "xyz" {
				t.Errorf("Field = %q", v)
			}
			if v := r.Interval(); v != ival.New(3, 8) {
				t.Errorf("Interval = %v", v)
			}
			if v := r.Value(Int64{}); v != int64(17) {
				t.Errorf("Value = %v", v)
			}
			if r.Len() != 1 {
				t.Errorf("Len = %d, want 1", r.Len())
			}
			if v := r.Rest(); len(v) != 1 || v[0] != 0xee || r.Len() != 0 {
				t.Errorf("Rest = %x, then Len = %d", v, r.Len())
			}
		}},
		{name: "the first error sticks", b: []byte{5, 0x80}, read: func(t *testing.T, r *Reader) {
			r.Byte()
			r.Uvarint()
			r.Fail("a later failure")
			if v := r.Max("m", 1<<40); v != 0 {
				t.Errorf("a read after the error returned %d", v)
			}
			if r.Len() != 1 {
				t.Errorf("a read after the error moved the offset: %d bytes left", r.Len())
			}
		}, want: "at byte 1: truncated or oversized uvarint"},
		{name: "max", b: []byte{8}, read: func(t *testing.T, r *Reader) { r.Max("slot", 7) }, want: "slot 8 exceeds 7"},
		{name: "int", b: binary.AppendUvarint(nil, 1<<31), read: func(t *testing.T, r *Reader) { r.Int("superstep") }, want: "superstep 2147483648 exceeds"},
		{name: "count beyond the bytes left", b: []byte{4, 1, 2, 3}, read: func(t *testing.T, r *Reader) {
			if n := r.Count(2); n != 0 {
				t.Errorf("Count = %d", n)
			}
		}, want: "count 4 exceeds the 3 bytes left"},
		{name: "count the bytes left can hold", b: []byte{4, 1, 2, 3}, read: func(t *testing.T, r *Reader) {
			if n := r.Count(1); n != 4 {
				t.Errorf("Count = %d", n)
			}
			r.Rest()
		}},
		{name: "field past the end", b: []byte{4, 'a', 'b'}, read: func(t *testing.T, r *Reader) {
			if f := r.Field("label"); f != nil {
				t.Errorf("Field = %q", f)
			}
		}, want: "label of 4 bytes overruns the 2 left"},
		{name: "bytes past the end", b: []byte{1, 2}, read: func(t *testing.T, r *Reader) { r.Byte(); r.Bytes(2) }, want: "at byte 1: 2 bytes overrun the 1 left"},
		{name: "byte past the end", b: nil, read: func(t *testing.T, r *Reader) { r.Byte() }, want: "at byte 0: truncated"},
		{name: "bad interval", b: []byte{0, 0x80}, read: func(t *testing.T, r *Reader) { r.Interval() }, want: "bad interval"},
		{name: "trailing bytes", b: []byte{1, 2, 3}, read: func(t *testing.T, r *Reader) { r.Byte() }, want: "at byte 1: 2 trailing bytes"},
		{name: "value keeps the codec's error", b: []byte{0x7f, 1}, read: func(t *testing.T, r *Reader) {
			if v := r.Value(Int64Slice{}); v != nil {
				t.Errorf("Value = %v", v)
			}
		}, want: "at byte 0: ", is: []error{ErrCorrupt}},
		{name: "explicit failure", b: []byte{1}, read: func(t *testing.T, r *Reader) { r.Byte(); r.Fail("op %d unknown", 1) }, want: "at byte 1: op 1 unknown"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.b, kind)
			tc.read(t, &r)
			err := r.Done()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Done = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Done = %v, want an error containing %q", err, tc.want)
			}
			for _, target := range append(tc.is, kind) {
				if !errors.Is(err, target) {
					t.Errorf("%v does not wrap %v", err, target)
				}
			}
			if r.Err != err {
				t.Errorf("Done returned %v, but Err is %v", err, r.Err)
			}
		})
	}
}
