package live

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// the live-graph recovery header and the marshaled ingest accumulator,
// then rotates the WAL to an empty version-2 file based at that snapshot.
// Recovery becomes a millisecond mmap open plus replay of only the
// post-snapshot tail.
//
// Crash safety is two durable renames (codec.WriteFile), snapshot first:
//
//	crash before the snapshot rename  -> old snapshot (if any) + full log
//	crash between rename and rotation -> new snapshot + full log; Open
//	                                     skips the already-covered prefix
//	crash after the rotation          -> new snapshot + empty log
//
// Either way exactly one consistent (snapshot, log) pair survives.

// liveExtraVersion versions the snapshot's extra-section payload:
// uvarint version | uvarint epoch | varint horizon | accumulator state.
const liveExtraVersion = 1

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

func encodeLiveExtra(epoch uint64, horizon ival.Time, acc *stream.Accumulator) []byte {
	buf := binary.AppendUvarint(nil, liveExtraVersion)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendVarint(buf, horizon)
	state, _ := acc.MarshalBinary() // never fails
	return append(buf, state...)
}

// errLiveExtra is what a malformed live-graph snapshot header wraps.
var errLiveExtra = errors.New("live: snapshot header")

func decodeLiveExtra(extra []byte) (epoch uint64, horizon ival.Time, acc *stream.Accumulator, err error) {
	r := codec.NewReader(extra, errLiveExtra)
	if v := r.Uvarint(); v != liveExtraVersion {
		r.Fail("version %d, want %d", v, liveExtraVersion)
	}
	epoch, horizon = r.Uvarint(), r.Varint()
	state := r.Rest()
	if r.Err != nil {
		return 0, 0, nil, r.Err
	}
	if acc, err = stream.UnmarshalAccumulator(state); err != nil {
		return 0, 0, nil, err
	}
	return epoch, horizon, acc, nil
}

// liveSnapshot is a decoded companion snapshot: the mapped graph plus the
// recovery header and accumulator from its extra section.
type liveSnapshot struct {
	m       *tgraph.Mapped
	epoch   uint64
	horizon ival.Time
	acc     *stream.Accumulator
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
	epoch, horizon, acc, err := decodeLiveExtra(m.Extra)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &liveSnapshot{m: m, epoch: epoch, horizon: horizon, acc: acc}, nil
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
	img := tgraph.EncodeSnapshot(g.cur.g, encodeLiveExtra(g.cur.id, g.opts.Horizon, g.acc))
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
