package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// WAL compaction bounds replay cost: the log otherwise grows — and replay
// slows — without limit as history accumulates. Compact writes the
// current epoch as a mapped tgraph snapshot whose extra section carries
// the live-graph header (liveHeader), then rotates the WAL to an empty
// version-2 file based at that snapshot. The epoch is the accumulator's
// state, so recovery is a millisecond mmap open, stream.Resume over the
// mapped graph, and replay of only the post-snapshot tail.
//
// Crash safety is two durable renames (codec.WriteFile), snapshot first:
//
//	crash before the snapshot rename  -> old snapshot (if any) + full log
//	crash between rename and rotation -> new snapshot + full log; Open
//	                                     skips the already-covered prefix
//	crash after the rotation          -> new snapshot + empty log
//
// Either way exactly one consistent (snapshot, log) pair survives.

// liveExtraVersion versions the snapshot's extra section, the live graph's
// header (liveHeader): little-endian 64-bit words,
//
//	version | epoch | now | events | n | m | n retired vertex ids | m edge ids
//
// Version 1 carried a marshaled accumulator instead, which the graph states.
const liveExtraVersion = 2

const liveHeaderWords = 6 // before the ids

// ErrSnapshotLost reports a compacted WAL (non-zero base: the prefix of
// history lives only in the snapshot) whose companion snapshot is missing
// or unusable. Recovery is impossible without restoring the snapshot file.
var ErrSnapshotLost = errors.New("live: compacted WAL without a usable snapshot")

// SnapshotPath returns the companion snapshot path for a WAL path.
func SnapshotPath(walPath string) string { return walPath + ".gsn" }

// LastRecovery reports how Open reconstructed this graph: from a snapshot
// plus a replayed tail, or from a full log replay — the wal_replay event
// Open traced.
func (g *Graph) LastRecovery() obs.WALReplay {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recovery
}

// liveHeader is what a compaction snapshot holds beside its graph: which
// epoch it is, and what stream.Resume needs that the graph cannot say.
type liveHeader struct {
	epoch   uint64
	now     ival.Time
	events  int
	retired stream.Retired
}

func encodeLiveExtra(h liveHeader) []byte {
	words := []uint64{liveExtraVersion, h.epoch, uint64(h.now), uint64(h.events),
		uint64(len(h.retired.Vertices)), uint64(len(h.retired.Edges))}
	for _, id := range h.retired.Vertices {
		words = append(words, uint64(id))
	}
	for _, id := range h.retired.Edges {
		words = append(words, uint64(id))
	}
	buf := make([]byte, 0, 8*len(words))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// errLiveExtra is what a malformed live-graph snapshot header wraps.
var errLiveExtra = errors.New("live: snapshot header")

// decodeLiveExtra reads what encodeLiveExtra wrote. Every field is a word
// and checked, so a header it accepts encodes back to its own bytes.
func decodeLiveExtra(b []byte) (liveHeader, error) {
	if len(b) < 8*liveHeaderWords || len(b)%8 != 0 {
		return liveHeader{}, fmt.Errorf("%w: %d bytes", errLiveExtra, len(b))
	}
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	ids, nv, ne := w[liveHeaderWords:], w[4], w[5]
	switch {
	case w[0] != liveExtraVersion:
		return liveHeader{}, fmt.Errorf("%w: version %d, want %d", errLiveExtra, w[0], liveExtraVersion)
	case int64(w[2]) < 0 || ival.Time(w[2]) == ival.Infinity || int64(w[3]) < 0:
		return liveHeader{}, fmt.Errorf("%w: last event time %d, %d events", errLiveExtra, int64(w[2]), int64(w[3]))
	case nv > uint64(len(ids)) || ne != uint64(len(ids))-nv:
		return liveHeader{}, fmt.Errorf("%w: %d ids for %d retired vertices and %d edges", errLiveExtra, len(ids), nv, ne)
	}
	h := liveHeader{epoch: w[1], now: ival.Time(w[2]), events: int(w[3]),
		retired: stream.Retired{Vertices: asIDs[tgraph.VertexID](ids[:nv]), Edges: asIDs[tgraph.EdgeID](ids[nv:])}}
	if !slices.IsSorted(h.retired.Vertices) || !slices.IsSorted(h.retired.Edges) {
		return liveHeader{}, fmt.Errorf("%w: retired ids out of order", errLiveExtra)
	}
	return h, nil
}

func asIDs[K ~int64](ws []uint64) []K {
	ids := make([]K, len(ws))
	for i, w := range ws {
		ids[i] = K(w)
	}
	return ids
}

// liveSnapshot is a decoded companion snapshot: the mapped graph and the
// header from its extra section.
type liveSnapshot struct {
	m    *tgraph.Mapped
	head liveHeader
}

func openLiveSnapshot(path string) (*liveSnapshot, error) {
	m, err := tgraph.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	if m.Extra == nil {
		m.Close()
		return nil, fmt.Errorf("live: %s is a graph snapshot but carries no live-graph state", path)
	}
	head, err := decodeLiveExtra(m.Extra)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &liveSnapshot{m: m, head: head}, nil
}

// Compact checkpoints the current epoch into the companion snapshot and
// rotates the WAL, so the next Open replays only batches applied after
// this call, and returns the wal_compact event it traces. Readers are
// unaffected: published epochs stay valid, and the files are replaced
// atomically. On error the graph remains usable unless the rotation failed
// after replacing the log (see compactLocked); at worst the snapshot is
// newer than the log base, which Open handles.
func (g *Graph) Compact() (obs.WALCompact, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed != nil {
		return obs.WALCompact{}, g.closed
	}
	return g.compactLocked()
}

// compactLocked compacts under g.mu. A rotation that fails after its rename
// (the directory fsync, or reopening the new file) leaves the new, empty log
// at the path and the handle on the old, unlinked one: a batch appended
// there would be acknowledged and lost at the next Open, so the graph
// wedges instead.
func (g *Graph) compactLocked() (obs.WALCompact, error) {
	start := time.Now()
	img := tgraph.EncodeSnapshot(g.cur.g, encodeLiveExtra(liveHeader{epoch: g.cur.id, now: g.acc.Now(),
		events: g.acc.Events(), retired: g.acc.Retired()}))
	if err := codec.WriteFile(g.snapPath, img); err != nil {
		return obs.WALCompact{}, fmt.Errorf("live: write snapshot: %w", err)
	}
	ev := obs.WALCompact{
		Graph:         g.name,
		Epoch:         g.cur.id,
		Events:        g.acc.Events(),
		SnapshotBytes: int64(len(img)),
		WALBefore:     g.w.size,
	}
	if err := g.w.rotate(ev.Epoch, ev.Events); err != nil {
		if !g.w.atPath() {
			return obs.WALCompact{}, g.wedge(fmt.Errorf("%w (graph wedged: the log was replaced)", err))
		}
		return obs.WALCompact{}, err
	}
	g.lastCompact = ev.Events
	ev.WALAfter = g.w.size
	g.publishGauges()
	if g.mCompacts != nil {
		g.mCompacts.Inc()
	}
	ev.WallNS = time.Since(start).Nanoseconds()
	if g.opts.Tracer != nil {
		g.opts.Tracer.Emit(ev)
	}
	return ev, nil
}
