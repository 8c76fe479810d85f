package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphite/internal/stream"
)

// fuzzBatches are the batches the WAL fuzz seeds are built from: every op,
// negative and wide values, an empty label, an empty batch.
var fuzzBatches = [][]stream.Event{
	chainBatch(0, 3, 0),
	{
		{Op: stream.SetVertexProp, T: 3, V: 2, Label: "π", Value: 1 << 40},
		{Op: stream.SetEdgeProp, T: 3, E: 7, Label: "", Value: -3},
		{Op: stream.RemoveEdge, T: 4, E: 7},
		{Op: stream.RemoveVertex, T: -5, V: 2},
	},
	{},
}

// FuzzWALDecodeBatch feeds the record decoder arbitrary payloads: it never
// panics, and whatever it accepts is a batch the encoder round-trips —
// decodeBatch ∘ encodeBatch is the identity on it, and encoding is stable.
func FuzzWALDecodeBatch(f *testing.F) {
	for _, b := range fuzzBatches {
		f.Add(encodeBatch(b))
	}
	f.Add([]byte{})                                                                     // no count at all: not an empty batch, which is the byte 0
	f.Add([]byte{1, byte(stream.SetEdgeProp), 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}) // a label longer than the payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})                                         // a count longer than the payload
	f.Add([]byte{1, 9, 0})                                                              // an unknown op
	f.Add(append(encodeBatch(fuzzBatches[0]), 0))                                       // a trailing byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		batch, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if len(payload) == 0 {
			t.Fatalf("no bytes decoded as the batch %+v", batch)
		}
		enc := encodeBatch(batch)
		again, err := decodeBatch(enc)
		if err != nil || !slices.Equal(again, batch) {
			t.Fatalf("%+v encoded as %x decodes to %+v (%v)", batch, enc, again, err)
		}
		if enc2 := encodeBatch(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("%+v encodes as %x, then as %x", batch, enc, enc2)
		}
	})
}

// walImage frames batches into a version-1 log image.
func walImage(batches ...[]stream.Event) []byte {
	img := append([]byte(nil), walMagic[:]...)
	for _, b := range batches {
		p := encodeBatch(b)
		img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
		img = append(img, p...)
		img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(p))
	}
	return img
}

// scanWAL is the reference reading of a log image, written from the format
// alone: the batches of the intact records before the first one that is not,
// where they end, and whether that first bad record is an append cut short
// (it runs past the end of the file, or has the zero length no append writes)
// or damage.
func scanWAL(img []byte) (batches [][]stream.Event, good int, torn, damaged bool) {
	if len(img) < len(walMagic) {
		return nil, 0, true, false
	}
	off := len(walMagic)
	switch {
	case bytes.Equal(img[:off], walMagic[:]):
	case bytes.Equal(img[:off], walMagicV2[:]):
		if len(img) < walV2HeaderLen || binary.LittleEndian.Uint64(img[off+8:]) > 1<<62 {
			return nil, 0, false, true
		}
		off = walV2HeaderLen
	default:
		return nil, 0, false, true
	}
	for off < len(img) {
		if len(img)-off < 4 {
			return batches, off, true, false
		}
		n := int(binary.LittleEndian.Uint32(img[off:]))
		if n == 0 || len(img)-off < 4+n+4 {
			return batches, off, true, false
		}
		payload := img[off+4 : off+4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(img[off+4+n:]) {
			return nil, 0, false, true
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return nil, 0, false, true
		}
		batches = append(batches, b)
		off += 4 + n + 4
	}
	return batches, off, false, false
}

// FuzzWALReplay replays arbitrary file bytes: replay never panics, damage
// before the tail is ErrWALCorrupt with no batch returned, and otherwise the
// batches are exactly those of the intact records before the first bad one —
// nothing from beyond it — with the good offset where they end.
func FuzzWALReplay(f *testing.F) {
	whole := walImage(fuzzBatches...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                          // a torn tail
	f.Add(append(append([]byte(nil), whole...), 0xff, 0xff, 0xff, 0x7f)) // a length that runs past the end
	flipped := append([]byte(nil), whole...)
	flipped[len(walMagic)+6] ^= 0x40 // damage in the first record, intact records after it
	f.Add(flipped)
	f.Add(append(append([]byte(nil), whole...), make([]byte, 16)...)) // a zero-filled tail
	v2 := append(append([]byte(nil), walMagicV2[:]...), make([]byte, 16)...)
	v2[len(walMagicV2)] = 4 // base epoch 4
	f.Add(append(v2, whole[len(walMagic):]...))
	f.Add(v2[:9])
	f.Add([]byte("GWAL\x07"))
	f.Add([]byte("GW"))
	f.Fuzz(func(t *testing.T, img []byte) {
		path := filepath.Join(t.TempDir(), "graph.wal")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		batches, _, good, truncated, err := replayWAL(file, int64(len(img)))
		want, wantGood, torn, damaged := scanWAL(img)
		if damaged {
			if !errors.Is(err, ErrWALCorrupt) || len(batches) != 0 {
				t.Fatalf("a damaged log replayed to %d batches, error %v; want ErrWALCorrupt and none", len(batches), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay of a log with %d intact records (torn tail: %v): %v", len(want), torn, err)
		}
		if truncated != torn || good != int64(wantGood) {
			t.Errorf("replay ends at %d (truncated %v), want %d (%v)", good, truncated, wantGood, torn)
		}
		if !slices.EqualFunc(batches, want, func(a, b []stream.Event) bool { return slices.Equal(a, b) }) {
			t.Errorf("replay returned %d batches %+v, want the %d before the first bad record %+v",
				len(batches), batches, len(want), want)
		}
	})
}
