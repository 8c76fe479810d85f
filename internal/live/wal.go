package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// The write-ahead log is an append-only file:
//
//	"GWAL" 0x01 | record | record | ...
//	record = u32 length | payload | u32 crc32(payload)
//
// (lengths and CRCs little-endian). One record holds one ingest batch —
// uvarint event count followed by op-tagged varint-encoded events — so
// batch atomicity falls out of the framing: a crash mid-append leaves a
// torn tail that replay truncates, never a half-applied batch. Each append
// is a single write followed by fsync, so an acknowledged batch is on disk
// before the epoch that contains it becomes visible.

// walMagic identifies a live-graph WAL, version 1: records start right
// after the magic and the log describes the graph's entire history.
var walMagic = [5]byte{'G', 'W', 'A', 'L', 1}

// walMagicV2 identifies a compacted WAL, version 2: the magic is followed
// by a u64 base epoch and u64 base event count (little-endian) naming the
// point in history the log starts from; everything earlier lives in the
// companion snapshot. Version-2 files are only ever created whole
// (codec.WriteFile), so a header shorter than walV2HeaderLen is
// corruption, not a torn creation.
var walMagicV2 = [5]byte{'G', 'W', 'A', 'L', 2}

const walV2HeaderLen = len("GWAL") + 1 + 8 + 8

// walBase is the compaction point a version-2 WAL starts from.
type walBase struct {
	epoch  uint64
	events int
}

// maxWALRecord bounds a record's declared length so a corrupted length
// prefix cannot make replay allocate unbounded memory.
const maxWALRecord = 1 << 30

// Errors surfaced by the WAL.
var (
	// ErrWALCorrupt reports structural damage before the final record — a
	// bad magic, length or CRC that fsync ordering cannot explain. Unlike a
	// torn tail this is not silently recoverable: acknowledged batches may
	// be missing.
	ErrWALCorrupt = errors.New("live: WAL corrupt")

	// errWALDiverged reports a failed append the log could not take back:
	// the file may hold a record the graph never applied, so the graph
	// wedges rather than append after it.
	errWALDiverged = errors.New("live: WAL holds a record the graph did not apply")
)

// wal is the durable append half; replay is a package function so recovery
// never needs a live handle.
type wal struct {
	f      *os.File
	path   string
	size   int64
	noSync bool
	base   walBase
}

// openWAL opens (creating if absent) the log at path, replays every intact
// batch, truncates a torn tail, and leaves the file positioned for
// appending. The returned batches are in log order; w.base names the
// compaction point they continue from (zero for a version-1 log).
func openWAL(path string, noSync bool) (w *wal, batches [][]stream.Event, truncated bool, err error) {
	w = &wal{path: path, noSync: noSync}
	var good int64
	switch f, err := os.Open(path); {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, nil, false, fmt.Errorf("live: open WAL: %w", err)
	default:
		st, err := f.Stat()
		if err == nil {
			batches, w.base, good, truncated, err = replayWAL(f, st.Size())
		}
		f.Close()
		if err != nil {
			return nil, nil, false, err
		}
	}
	if good == 0 {
		// No log yet, or one shorter than its magic (a creation an older
		// build tore): create it whole.
		if err := codec.WriteFile(path, walMagic[:]); err != nil {
			return nil, nil, false, fmt.Errorf("live: create WAL: %w", err)
		}
		good = int64(len(walMagic))
	}
	if err := w.reopen(good, w.base); err != nil {
		return nil, nil, false, err
	}
	if truncated {
		if err := w.truncate(); err != nil {
			w.close()
			return nil, nil, false, fmt.Errorf("live: truncate torn WAL tail: %w", err)
		}
	}
	return w, batches, truncated, nil
}

// replayWAL scans the log, returning every intact batch and the offset of
// the first byte past the last intact record. A partial record at EOF is a
// torn tail (crash mid-append) and reports truncated; damage anywhere else
// is ErrWALCorrupt.
func replayWAL(f *os.File, size int64) (batches [][]stream.Event, base walBase, good int64, truncated bool, err error) {
	fail := func(err error) ([][]stream.Event, walBase, int64, bool, error) {
		return nil, walBase{}, 0, false, err
	}
	var magic [len(walMagic)]byte
	if size < int64(len(magic)) {
		// Shorter than the magic: a crash during file creation. Nothing was
		// ever acknowledged, so treat the whole file as a torn tail.
		return nil, walBase{}, 0, true, nil
	}
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return fail(fmt.Errorf("live: read WAL magic: %w", err))
	}
	off := int64(len(magic))
	switch magic {
	case walMagic:
	case walMagicV2:
		var hdr [16]byte
		if size < int64(walV2HeaderLen) {
			// Rotation writes version-2 headers whole before renaming, so a
			// short one cannot be a torn creation.
			return fail(fmt.Errorf("%w: version-2 header truncated at %d bytes", ErrWALCorrupt, size))
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return fail(fmt.Errorf("live: read WAL base: %w", err))
		}
		base.epoch = binary.LittleEndian.Uint64(hdr[:8])
		events := binary.LittleEndian.Uint64(hdr[8:])
		if events > uint64(1)<<62 {
			return fail(fmt.Errorf("%w: implausible base event count %d", ErrWALCorrupt, events))
		}
		base.events = int(events)
		off = int64(walV2HeaderLen)
	default:
		if string(magic[:4]) == "GWAL" {
			return fail(fmt.Errorf("%w: unsupported WAL version %d", ErrWALCorrupt, magic[4]))
		}
		return fail(fmt.Errorf("%w: bad magic %q", ErrWALCorrupt, magic[:]))
	}
	for off < size {
		var hdr [4]byte
		if size-off < 4 {
			return batches, base, off, true, nil
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return fail(fmt.Errorf("live: read WAL record: %w", err))
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n == 0 || size-off < 4+n+4 {
			// The declared record runs past EOF — whether the length bytes
			// are a truncated frame or scribble, this is indistinguishable
			// from an append cut short, so treat it as the torn tail. So is
			// a zero length: append never writes one (an empty batch is the
			// byte 0x00), and zeros are what a tail the filesystem extended
			// before the crash reads as.
			return batches, base, off, true, nil
		}
		if n > maxWALRecord {
			return fail(fmt.Errorf("%w: record length %d at offset %d", ErrWALCorrupt, n, off))
		}
		body := make([]byte, n+4)
		if _, err := f.ReadAt(body, off+4); err != nil {
			return fail(fmt.Errorf("live: read WAL record: %w", err))
		}
		want := binary.LittleEndian.Uint32(body[n:])
		if got := crc32.ChecksumIEEE(body[:n]); got != want {
			return fail(fmt.Errorf("%w: CRC mismatch at offset %d", ErrWALCorrupt, off))
		}
		batch, err := decodeBatch(body[:n])
		if err != nil {
			return fail(fmt.Errorf("%w: offset %d: %v", ErrWALCorrupt, off, err))
		}
		batches = append(batches, batch)
		off += 4 + n + 4
	}
	return batches, base, off, false, nil
}

// rotate replaces the log with an empty version-2 file based at (epoch,
// events), written whole through codec.WriteFile. The caller must have
// durably written the snapshot covering everything up to the base first —
// after the rename the compacted history exists only there.
func (w *wal) rotate(epoch uint64, events int) error {
	hdr := make([]byte, 0, walV2HeaderLen)
	hdr = append(hdr, walMagicV2[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(events))
	if err := codec.WriteFile(w.path, hdr); err != nil {
		return fmt.Errorf("live: rotate WAL: %w", err)
	}
	return w.reopen(int64(len(hdr)), walBase{epoch: epoch, events: events})
}

// reopen points w at the file now at w.path, positioned for appending at
// size, and closes the handle it replaces.
func (w *wal) reopen(size int64, base walBase) error {
	f, err := os.OpenFile(w.path, os.O_RDWR, 0)
	if err == nil {
		_, err = f.Seek(size, io.SeekStart)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("live: open WAL: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.size, w.base = f, size, base
	return nil
}

// append frames, writes and (by default) fsyncs one batch. The frame goes
// out in a single Write so a crash leaves at worst a torn prefix of it. A
// failed write or fsync is taken back: the file is cut to its size before
// the append, so neither a torn record mid-log nor a record the caller was
// told failed can replay. If that fails too, the error wraps
// errWALDiverged.
func (w *wal) append(batch []stream.Event) error {
	payload := encodeBatch(batch)
	buf := make([]byte, 0, 4+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	_, err := w.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("live: append WAL: %w", err)
	} else {
		err = w.sync()
	}
	if err != nil {
		if uerr := w.truncate(); uerr != nil {
			return fmt.Errorf("%w: %v; taking it back: %v", errWALDiverged, err, uerr)
		}
		return err
	}
	w.size += int64(len(buf))
	return nil
}

// truncate cuts the file back to w.size, durably, and positions it there
// (Truncate does not move the offset).
func (w *wal) truncate() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	if err := w.sync(); err != nil {
		return err
	}
	_, err := w.f.Seek(w.size, io.SeekStart)
	return err
}

// atPath reports whether the file at w.path is still the one w appends to.
func (w *wal) atPath() bool {
	have, err := w.f.Stat()
	if err != nil {
		return false
	}
	at, err := os.Stat(w.path)
	return err == nil && os.SameFile(have, at)
}

func (w *wal) sync() error {
	if w.noSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("live: fsync WAL: %w", err)
	}
	return nil
}

func (w *wal) close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("live: close WAL: %w", err)
	}
	return nil
}

// encodeBatch renders a batch as the record payload: uvarint count, then
// per event an op byte and the op's varint fields (labels length-prefixed).
func encodeBatch(batch []stream.Event) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(batch)))
	for _, ev := range batch {
		buf = append(buf, byte(ev.Op))
		buf = binary.AppendVarint(buf, int64(ev.T))
		switch ev.Op {
		case stream.AddVertex, stream.RemoveVertex:
			buf = binary.AppendVarint(buf, int64(ev.V))
		case stream.AddEdge:
			buf = binary.AppendVarint(buf, int64(ev.E))
			buf = binary.AppendVarint(buf, int64(ev.Src))
			buf = binary.AppendVarint(buf, int64(ev.Dst))
		case stream.RemoveEdge:
			buf = binary.AppendVarint(buf, int64(ev.E))
		case stream.SetVertexProp:
			buf = binary.AppendVarint(buf, int64(ev.V))
			buf = appendString(buf, ev.Label)
			buf = binary.AppendVarint(buf, ev.Value)
		case stream.SetEdgeProp:
			buf = binary.AppendVarint(buf, int64(ev.E))
			buf = appendString(buf, ev.Label)
			buf = binary.AppendVarint(buf, ev.Value)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// errBatch is what a malformed field of a batch record wraps; replayWAL wraps
// it in turn as ErrWALCorrupt.
var errBatch = errors.New("batch")

// decodeBatch is the inverse of encodeBatch.
func decodeBatch(payload []byte) ([]stream.Event, error) {
	d := codec.NewReader(payload, errBatch)
	// Each event takes at least its op byte and a time-point.
	n := d.Count(2)
	batch := make([]stream.Event, 0, n)
	for ; n > 0 && d.Err == nil; n-- {
		ev := stream.Event{Op: stream.Op(d.Byte()), T: ival.Time(d.Varint())}
		switch ev.Op {
		case stream.AddVertex, stream.RemoveVertex:
			ev.V = tgraph.VertexID(d.Varint())
		case stream.AddEdge:
			ev.E = tgraph.EdgeID(d.Varint())
			ev.Src = tgraph.VertexID(d.Varint())
			ev.Dst = tgraph.VertexID(d.Varint())
		case stream.RemoveEdge:
			ev.E = tgraph.EdgeID(d.Varint())
		case stream.SetVertexProp:
			ev.V = tgraph.VertexID(d.Varint())
			ev.Label = string(d.Field("label"))
			ev.Value = d.Varint()
		case stream.SetEdgeProp:
			ev.E = tgraph.EdgeID(d.Varint())
			ev.Label = string(d.Field("label"))
			ev.Value = d.Varint()
		default:
			d.Fail("unknown op %d", ev.Op)
		}
		batch = append(batch, ev)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return batch, nil
}
