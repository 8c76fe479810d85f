package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The durability battery: every way a checkpoint file can be damaged on
// disk — truncation, flipped payload bytes, flipped CRC, deleted file, torn
// (uncommitted) write — must surface as a typed error and fall back to the
// previous generation, never load silently.

func mustSave(t *testing.T, s *CheckpointStore, gen, step int, data []byte) CheckpointMeta {
	t.Helper()
	meta, err := s.Save(gen, step, data)
	if err != nil {
		t.Fatalf("Save gen %d: %v", gen, err)
	}
	return meta
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("superstep state: hello interval world")
	meta := mustSave(t, s, 0, 1, want)
	if meta.Bytes != int64(len(want)) {
		t.Errorf("meta bytes = %d, want %d", meta.Bytes, len(want))
	}
	got, m2, err := s.Load(0)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, want) || m2.Superstep != 1 {
		t.Errorf("round trip mismatch: %q step %d", got, m2.Superstep)
	}
	// The file is the frame byte for byte: magic, superstep, length,
	// payload, and the CRC over everything after the magic.
	frame := append([]byte("GCK2"), 1, byte(len(want)))
	frame = append(frame, want...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	if raw, err := os.ReadFile(s.genPath(0)); err != nil || !bytes.Equal(raw, frame) {
		t.Errorf("checkpoint file = %x (%v), want %x", raw, err, frame)
	}

	// Reopen from disk: the directory alone gives the same view, superstep
	// included.
	s2, err := OpenCheckpointStore(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, m3, err := s2.LatestValid()
	if err != nil || !bytes.Equal(got, want) || m3 != meta {
		t.Fatalf("reopened LatestValid = %q %+v, %v; want %+v", got, m3, err, meta)
	}
	if _, m4, err := s2.Load(0); err != nil || m4.Superstep != 1 {
		t.Fatalf("reopened Load = %+v, %v; want superstep 1", m4, err)
	}
}

func TestCheckpointStoreEmpty(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LatestValid(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty LatestValid err = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := s.Load(3); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Load of absent gen err = %v, want ErrNoCheckpoint", err)
	}
}

// corrupt applies fn to gen's file bytes and writes them back.
func corrupt(t *testing.T, s *CheckpointStore, gen int, fn func([]byte) []byte) {
	t.Helper()
	path := s.genPath(gen)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointStoreTruncated(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("older but intact generation zero"))
	mustSave(t, s, 1, 3, []byte("newest generation, about to be cut short"))
	corrupt(t, s, 1, func(raw []byte) []byte { return raw[:len(raw)/2] })

	if _, _, err := s.Load(1); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("truncated Load err = %v, want ErrCheckpointCorrupt", err)
	}
	data, meta, err := s.LatestValid()
	if err != nil {
		t.Fatalf("LatestValid after truncation: %v", err)
	}
	if meta.Gen != 0 || !bytes.Equal(data, []byte("older but intact generation zero")) {
		t.Fatalf("fallback landed on gen %d (%q), want intact gen 0", meta.Gen, data)
	}
}

func TestCheckpointStoreBitFlip(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("good"))
	mustSave(t, s, 1, 3, []byte("payload that will rot on disk"))
	// Flip one bit inside the payload (past the 6-byte header).
	corrupt(t, s, 1, func(raw []byte) []byte {
		raw[14] ^= 0x40
		return raw
	})
	if _, _, err := s.Load(1); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bit-flipped Load err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, meta, err := s.LatestValid(); err != nil || meta.Gen != 0 {
		t.Fatalf("fallback = gen %d, %v; want gen 0", meta.Gen, err)
	}
}

func TestCheckpointStoreCRCFieldFlip(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("trailer CRC gets damaged instead of payload"))
	corrupt(t, s, 0, func(raw []byte) []byte {
		raw[len(raw)-1] ^= 0xff
		return raw
	})
	if _, _, err := s.Load(0); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("flipped-CRC Load err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, _, err := s.LatestValid(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("sole corrupt gen LatestValid err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointStoreBadMagic(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("magic about to be stomped"))
	corrupt(t, s, 0, func(raw []byte) []byte {
		copy(raw, "JUNK")
		return raw
	})
	if _, _, err := s.Load(0); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bad-magic Load err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointStoreMissingFile(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("survivor"))
	mustSave(t, s, 1, 3, []byte("about to vanish"))
	if err := os.Remove(s.genPath(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing-file Load err = %v, want ErrNoCheckpoint", err)
	}
	if _, meta, err := s.LatestValid(); err != nil || meta.Gen != 0 {
		t.Fatalf("fallback = gen %d, %v; want gen 0", meta.Gen, err)
	}
}

// TestCheckpointStoreTornWrite simulates a crash between the temp-file
// write and the rename: the new generation must be invisible (no listing
// sees a temp file) and the previous generation still wins.
func TestCheckpointStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("committed before the crash"))

	crashed := errors.New("simulated kill at written stage")
	s.CommitHook = func(stage string) {
		if stage == "written" {
			panic(crashed)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != crashed {
				t.Fatalf("recover = %v, want simulated crash", r)
			}
		}()
		s.Save(1, 3, []byte("never committed"))
	}()

	// A fresh process opens the same directory.
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := s2.Generations()
	if len(gens) != 1 || gens[0].Gen != 0 {
		t.Fatalf("generations after torn write = %+v, want only gen 0", gens)
	}
	data, meta, err := s2.LatestValid()
	if err != nil || meta.Gen != 0 || !bytes.Equal(data, []byte("committed before the crash")) {
		t.Fatalf("LatestValid = gen %d %q, %v", meta.Gen, data, err)
	}
	// The orphan temp file may linger; it must never be loadable.
	if _, statErr := os.Stat(filepath.Join(dir, "ckpt-00000001.bin.tmp")); statErr != nil && !os.IsNotExist(statErr) {
		t.Fatal(statErr)
	}
}

func TestCheckpointStorePrune(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 6; g++ {
		mustSave(t, s, g, g*2+1, []byte{byte(g)})
	}
	if err := s.Prune(2); err != nil {
		t.Fatal(err)
	}
	gens := s.Generations()
	if len(gens) != 2 || gens[0].Gen != 4 || gens[1].Gen != 5 {
		t.Fatalf("after prune: %+v", gens)
	}
	if _, _, err := s.Load(3); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("pruned gen Load err = %v, want ErrNoCheckpoint", err)
	}
	if _, meta, err := s.LatestValid(); err != nil || meta.Gen != 5 {
		t.Fatalf("LatestValid after prune = gen %d, %v", meta.Gen, err)
	}
}

func TestCheckpointStoreSuperstepFlip(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 3, []byte("the superstep is under the CRC"))
	corrupt(t, s, 0, func(raw []byte) []byte {
		raw[len(ckptMagic)] ^= 0x01 // superstep 3 reads as 2
		return raw
	})
	if _, _, err := s.Load(0); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("superstep-flipped Load err = %v, want ErrCheckpointCorrupt", err)
	}
}

// gck1Frame is a generation as the manifest-indexed store wrote it: magic
// "GCK1", u64 length, payload, CRC of the payload.
func gck1Frame(data []byte) []byte {
	frame := binary.LittleEndian.AppendUint64([]byte("GCK1"), uint64(len(data)))
	return binary.LittleEndian.AppendUint32(append(frame, data...), crc32.ChecksumIEEE(data))
}

// TestCheckpointStoreIgnoresLeftovers: the directory is the index, so what
// else lies in it — a complete temp file whose rename never ran, a stale
// manifest, a generation in the old frame — never becomes the restore point.
func TestCheckpointStoreIgnoresLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 0, 1, []byte("oldest"))
	want := mustSave(t, s, 1, 3, []byte("newest valid generation"))
	mustSave(t, s, 2, 5, []byte("complete, but never renamed"))
	if err := os.Rename(s.genPath(2), s.genPath(2)+".tmp"); err != nil {
		t.Fatal(err)
	}
	leftovers := map[string][]byte{
		"MANIFEST.json":      []byte(`{"version":1,"generations":[{"gen":2,"superstep":5}]}`),
		"ckpt-00000003.bin":  gck1Frame([]byte("an old-format generation")),
		"ckpt-3.bin":         gck1Frame(nil),
		"ckpt-00000004.bin~": nil,
	}
	for name, b := range leftovers {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Load(3); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("GCK1 Load err = %v, want ErrCheckpointCorrupt", err)
	}
	data, meta, err := s2.LatestValid()
	if err != nil || meta != want || string(data) != "newest valid generation" {
		t.Fatalf("LatestValid = %q %+v, %v; want gen 1 %+v", data, meta, err, want)
	}
	gens := s2.Generations()
	if len(gens) != 3 || gens[1] != want || gens[2] != (CheckpointMeta{Gen: 3}) {
		t.Fatalf("Generations = %+v, want gens 0, 1 and the unverified 3", gens)
	}
}

// FuzzCheckpointFrame feeds the frame decoder arbitrary files: it never
// panics, and a frame it accepts is exactly the one Save writes for the
// superstep and payload it decoded.
func FuzzCheckpointFrame(f *testing.F) {
	frame := func(superstep int, data []byte) []byte {
		hdr := ckptHeader(superstep, len(data))
		b := append(hdr, data...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(ckptMagic):]))
	}
	valid := frame(300, []byte("a durable capture"))
	f.Add(valid)
	f.Add(frame(0, nil))
	f.Add(gck1Frame([]byte("a durable capture")))
	f.Add(valid[:len(valid)-5])                     // truncated
	f.Add(append(ckptHeader(1, 1<<40), 0, 0, 0, 0)) // a length past the end
	overlong := []byte("GCK2\x80\x00\x00")          // superstep 0 in two bytes, under a valid CRC
	f.Add(binary.LittleEndian.AppendUint32(overlong, crc32.ChecksumIEEE(overlong[len(ckptMagic):])))
	f.Fuzz(func(t *testing.T, b []byte) {
		superstep, data, err := decodeCkptFrame(b)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCheckpointCorrupt", err)
			}
			return
		}
		if again := frame(superstep, data); !bytes.Equal(again, b) {
			t.Fatalf("%x decodes to superstep %d, %d bytes, which frame as %x", b, superstep, len(data), again)
		}
	})
}
