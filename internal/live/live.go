// Package live is the mutable half of the temporal graph store: a graph
// that consumes stream.Event mutations through a durable write-ahead log
// and publishes immutable epoch snapshots.
//
// Because events only ever extend the time axis (the accumulator enforces
// globally non-decreasing event times), two monotonicity dividends fall
// out:
//
//   - MVCC for free: every ingest batch publishes a fresh immutable
//     tgraph.Graph as a new epoch; in-flight queries keep reading the epoch
//     they acquired while appends continue. Epochs are refcounted and
//     reclaimed when the last reader releases them. An epoch is a patch of
//     the one before (stream.Accumulator.Patch), and the accumulator's state
//     is the current epoch plus what the batches since touched.
//   - Cheap cache validity: a batch whose first event is at time t cannot
//     change any window ending at or before t, so a cached result for
//     window w stays valid until a batch with first-event time < w.End
//     lands. EffectiveEpoch is that rule as a binary search.
//
// A batch Preflight accepts must materialize, or the graph (and every later
// Open of its log) wedges: hence a vertex cannot leave while an edge of its
// is open. Epochs are never clipped: a query wanting a horizon h asks for
// the window [0, h).
//
// Durability: CRC-framed records, single-write appends, fsync before
// acknowledgment; whole files go through codec.WriteFile. A SIGKILL at
// any point loses at most the unacknowledged tail batch; Open replays the
// log back to the exact acknowledged graph.
package live

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// Errors surfaced by the live graph.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("live: graph closed")
	// ErrEmptyBatch rejects Apply with no events (an epoch must be
	// distinguishable from its predecessor by at least one event).
	ErrEmptyBatch = errors.New("live: empty batch")
)

// Options configures a live graph.
type Options struct {
	// Name labels traces and log lines; it does not affect storage.
	Name string
	// NoSync skips the per-append fsync (and the one after Open truncates a
	// torn tail). Only for benchmarks measuring the fsync tax; a SIGKILL
	// under NoSync can lose acknowledged batches. Whole files — a new log, a
	// rotated one, a compaction snapshot — are always written durably.
	NoSync bool
	// CompactEvery auto-compacts after this many events have accumulated
	// since the last compaction (or since the snapshot recovery was based
	// on). Zero disables auto-compaction; Compact can still be called
	// explicitly.
	CompactEvery int
	// Registry receives ingest counters and epoch gauges (nil: none).
	Registry *obs.Registry
	// Tracer receives EpochPublish and WALReplay events (nil: none).
	Tracer obs.Tracer
}

// Info describes the published state of a live graph at some epoch.
type Info struct {
	Epoch    uint64    `json:"epoch"`
	Events   int       `json:"events"` // cumulative since the log began
	LastTime ival.Time `json:"last_time"`
	Vertices int       `json:"vertices"`
	Edges    int       `json:"edges"`
}

// Epoch is one immutable published snapshot. Readers acquire the current
// epoch, run against its graph, and release it; the snapshot stays valid —
// and its memory accounted as live — until the last reader is done.
type Epoch struct {
	id     uint64
	g      *tgraph.Graph
	events int
	lastT  ival.Time
	refs   atomic.Int64
	owner  *Graph
	drop   func() // releases backing storage (an mmap) when refs hit zero
}

// ID returns the epoch number (0 for an empty just-created log; replay and
// every Apply each advance it by one).
func (e *Epoch) ID() uint64 { return e.id }

// Graph returns the immutable snapshot. It may have zero vertices if no
// events have arrived yet.
func (e *Epoch) Graph() *tgraph.Graph { return e.g }

// Events returns the cumulative event count materialized into the epoch.
func (e *Epoch) Events() int { return e.events }

// LastTime returns the time of the epoch's latest event.
func (e *Epoch) LastTime() ival.Time { return e.lastT }

// Info summarizes the epoch.
func (e *Epoch) Info() Info {
	return Info{Epoch: e.id, Events: e.events, LastTime: e.lastT,
		Vertices: e.g.NumVertices(), Edges: e.g.NumEdges()}
}

// Release drops the reader's reference. The epoch is reclaimed when the
// current pointer and every reader have let go.
func (e *Epoch) Release() {
	if e.refs.Add(-1) == 0 {
		if e.drop != nil {
			e.drop()
		}
		e.owner.reclaim()
	}
}

// mark records one ingest batch for EffectiveEpoch: the epoch it published
// and the batch's first (minimum) event time. Because event time is
// globally non-decreasing, minT is non-decreasing across marks.
type mark struct {
	epoch uint64
	minT  ival.Time
}

// Graph is a WAL-backed mutable temporal graph publishing epoch snapshots.
// Apply is serialized; Acquire/EffectiveEpoch are safe for concurrent use
// with Apply and with each other.
type Graph struct {
	opts Options
	name string

	mu       sync.Mutex
	acc      *stream.Accumulator
	w        *wal
	cur      *Epoch
	marks    []mark
	snapPath string
	// closed is nil while the graph takes batches: ErrClosed after Close,
	// or ErrClosed wrapping the cause after a wedge.
	closed   error
	recovery obs.WALReplay
	// lastCompact is the cumulative event count at the last compaction (or
	// at the snapshot the last Open recovered from); CompactEvery measures
	// from here.
	lastCompact int

	epochsLive atomic.Int64

	mEvents, mBatches    *obs.Counter
	mCompacts, mCompErrs *obs.Counter
	gEpoch, gLive        *obs.Gauge
	gWALBytes, gLastT    *obs.Gauge
	hIngest              *obs.Histogram
}

// Open opens (creating if absent) the WAL at path and rebuilds the initial
// epoch. If a companion snapshot (path + ".gsn", written by Compact) exists
// it is mapped and only the WAL batches past its coverage replay; otherwise
// the whole log replays. A torn tail — an append cut short by a crash — is
// truncated silently; it was never acknowledged. Corruption before the tail
// is ErrWALCorrupt, and a compacted log whose snapshot is missing or
// unreadable is ErrSnapshotLost.
func Open(path string, opts Options) (*Graph, error) {
	start := time.Now()
	snapPath := SnapshotPath(path)
	var snap *liveSnapshot
	snapErr := error(nil)
	if _, err := os.Stat(snapPath); err == nil {
		snap, snapErr = openLiveSnapshot(snapPath)
	} else if !errors.Is(err, os.ErrNotExist) {
		snapErr = err
	}
	w, batches, truncated, err := openWAL(path, opts.NoSync)
	if err != nil {
		if snap != nil {
			snap.m.Close()
		}
		return nil, err
	}
	abort := func() {
		w.close()
		if snap != nil {
			snap.m.Close()
		}
	}
	if snap == nil && (w.base.epoch != 0 || w.base.events != 0) {
		// The log was rotated by a compaction, so its prefix lives only in
		// the snapshot — which we cannot use.
		w.close()
		if snapErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotLost, snapErr)
		}
		return nil, fmt.Errorf("%w: %s missing", ErrSnapshotLost, snapPath)
	}
	if snap != nil && snap.head.events < w.base.events {
		// Compaction renames the snapshot before rotating the log, so the
		// snapshot may cover MORE events than the log base — never fewer.
		abort()
		return nil, fmt.Errorf("%w: snapshot covers %d events but the log starts after %d",
			ErrWALCorrupt, snap.head.events, w.base.events)
	}
	name := opts.Name
	if name == "" {
		name = path
	}
	g := &Graph{opts: opts, name: name, acc: stream.NewAccumulator(), w: w, snapPath: snapPath}
	if r := opts.Registry; r != nil {
		g.mEvents = r.Counter("live.events_total")
		g.mBatches = r.Counter("live.batches_total")
		g.mCompacts = r.Counter("live.compactions_total")
		g.mCompErrs = r.Counter("live.compaction_errors_total")
		g.gEpoch = r.Gauge("live.epoch")
		g.gLive = r.Gauge("live.epochs_live")
		g.gWALBytes = r.Gauge("live.wal_bytes")
		g.gLastT = r.Gauge("live.last_event_time")
		g.hIngest = r.Histogram("live.ingest_latency_ns")
	}
	rec := obs.WALReplay{Graph: name, Truncated: truncated}
	tail := batches
	var baseEpoch uint64
	if snap != nil {
		h := snap.head
		g.acc = stream.Resume(snap.m.Graph, h.now, h.events, h.retired)
		baseEpoch = h.epoch
		rec.FromSnapshot = true
		rec.SnapshotEpoch = h.epoch
		rec.SnapshotEvents = h.events
		// Skip the log prefix the snapshot already covers. Batches are
		// atomic, so the covered count must align on a batch boundary.
		skip := rec.SnapshotEvents - w.base.events
		for skip > 0 {
			if len(tail) == 0 || len(tail[0]) > skip {
				abort()
				return nil, fmt.Errorf("%w: snapshot coverage (%d events past the log base) does not align with batch boundaries",
					ErrWALCorrupt, rec.SnapshotEvents-w.base.events)
			}
			skip -= len(tail[0])
			tail = tail[1:]
		}
	}
	for i, batch := range tail {
		for _, ev := range batch {
			if err := g.acc.Apply(ev); err != nil {
				abort()
				return nil, fmt.Errorf("%w: replayed batch %d rejected: %v", ErrWALCorrupt, i, err)
			}
		}
	}
	rec.Batches = len(tail)
	rec.Events = g.acc.Events() - rec.SnapshotEvents
	curID := baseEpoch + uint64(len(tail))
	var cur *tgraph.Graph
	var drop func()
	if snap != nil && len(tail) == 0 {
		// Nothing landed since the snapshot: serve queries straight off the
		// mapping, no materialization at all. The pages unmap when the
		// epoch's last reader lets go; the next batch patches onto it while
		// the current pointer holds it, and the patch aliases nothing of the
		// mapping (only its int32 arrays are aliased, and tgraph.Patch builds
		// those anew).
		cur = snap.m.Graph
		m := snap.m
		drop = func() { m.Close() }
	} else {
		cur, err = g.acc.Patch()
		if err != nil {
			abort()
			return nil, fmt.Errorf("live: materialize replayed graph: %w", err)
		}
		if snap != nil {
			snap.m.Close()
		}
	}
	g.cur = &Epoch{id: curID, g: cur, events: g.acc.Events(), lastT: g.acc.Now(), owner: g, drop: drop}
	g.cur.refs.Store(1) // the current pointer's reference
	g.epochsLive.Store(1)
	g.lastCompact = rec.SnapshotEvents
	// One conservative mark covers the whole recovered history: in-process
	// caches are empty at open, so nothing older needs distinguishing.
	g.marks = []mark{{epoch: g.cur.id, minT: 0}}
	g.publishGauges()
	if g.mEvents != nil {
		g.mEvents.Store(int64(g.acc.Events()))
		g.mBatches.Store(int64(len(tail)))
	}
	rec.Bytes = w.size
	rec.WallNS = time.Since(start).Nanoseconds()
	g.recovery = rec
	if opts.Tracer != nil {
		opts.Tracer.Emit(rec)
	}
	return g, nil
}

// Name returns the graph's label.
func (g *Graph) Name() string { return g.name }

// Apply validates, logs and applies one batch of events, then publishes the
// resulting snapshot as a new epoch. The batch is atomic: either every
// event is accepted (and durably logged before the epoch becomes visible),
// or the batch is rejected and the graph is unchanged.
func (g *Graph) Apply(batch []stream.Event) (Info, error) {
	start := time.Now()
	if len(batch) == 0 {
		return Info{}, ErrEmptyBatch
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed != nil {
		return Info{}, g.closed
	}
	if err := g.acc.Preflight(batch); err != nil {
		return Info{}, err
	}
	if err := g.w.append(batch); err != nil {
		if errors.Is(err, errWALDiverged) {
			g.wedge(err)
		}
		return Info{}, err
	}
	for _, ev := range batch {
		// Preflight mirrors Apply's checks exactly, so this cannot fail; if
		// it ever does the accumulator may be half-mutated and the only
		// safe report is corruption.
		if err := g.acc.Apply(ev); err != nil {
			return Info{}, g.wedge(fmt.Errorf("live: preflighted event rejected (graph wedged): %w", err))
		}
	}
	snap, err := g.acc.Patch()
	if err != nil {
		return Info{}, g.wedge(fmt.Errorf("live: materialize snapshot (graph wedged): %w", err))
	}
	ep := &Epoch{id: g.cur.id + 1, g: snap, events: g.acc.Events(), lastT: g.acc.Now(), owner: g}
	ep.refs.Store(1)
	g.epochsLive.Add(1)
	old := g.cur
	g.cur = ep
	g.marks = append(g.marks, mark{epoch: ep.id, minT: batch[0].T})
	old.Release() // drop the current pointer's reference to the predecessor
	g.publishGauges()
	elapsed := time.Since(start)
	if g.mEvents != nil {
		g.mEvents.Add(int64(len(batch)))
		g.mBatches.Inc()
		g.hIngest.Observe(elapsed)
	}
	if g.opts.Tracer != nil {
		g.opts.Tracer.Emit(obs.EpochPublish{Graph: g.name, Epoch: ep.id, Batch: len(batch),
			Events: ep.events, LastTime: int64(ep.lastT), Vertices: snap.NumVertices(),
			Edges: snap.NumEdges(), WallNS: elapsed.Nanoseconds()})
	}
	if n := g.opts.CompactEvery; n > 0 && g.acc.Events()-g.lastCompact >= n {
		// The batch is already durable. A failed compaction that left the
		// log in place costs nothing but a longer replay, and the next
		// Apply retries; one that replaced the log wedges the graph
		// (compactLocked), and this batch is still acknowledged: it is in
		// the snapshot the compaction wrote first.
		if _, err := g.compactLocked(); err != nil && g.mCompErrs != nil {
			g.mCompErrs.Inc()
		}
	}
	return ep.Info(), nil
}

// Acquire returns the current epoch with a reader reference; callers must
// Release it when their query finishes.
func (g *Graph) Acquire() *Epoch {
	g.mu.Lock()
	defer g.mu.Unlock()
	ep := g.cur
	ep.refs.Add(1)
	return ep
}

// Info summarizes the current epoch without taking a reference.
func (g *Graph) Info() Info {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.Info()
}

// EffectiveEpoch returns the oldest epoch whose graph, restricted to the
// window, equals the current epoch's: the epoch published by the last
// batch whose first event falls before the window's end. Fingerprinting
// cached results under this epoch keeps windows untouched by later events
// valid while affected windows invalidate.
func (g *Graph) EffectiveEpoch(w ival.Interval) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.effectiveLocked(w)
}

func (g *Graph) effectiveLocked(w ival.Interval) uint64 {
	// First mark with minT >= w.End; everything before it affects w.
	i := sort.Search(len(g.marks), func(i int) bool { return g.marks[i].minT >= w.End })
	if i == 0 {
		// Even the base mark starts at or past the window's end. The base
		// epoch itself is still the floor.
		return g.marks[0].epoch
	}
	return g.marks[i-1].epoch
}

// AcquireEffective atomically acquires the current epoch and computes the
// window's effective epoch against it. One lock for both is what makes
// epoch-fingerprinted caching sound: a batch landing between separate
// EffectiveEpoch and Acquire calls could pair a fresh cache key with a stale
// snapshot (or the reverse).
func (g *Graph) AcquireEffective(w ival.Interval) (*Epoch, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ep := g.cur
	ep.refs.Add(1)
	return ep, g.effectiveLocked(w)
}

// EpochsLive returns how many epochs are unreclaimed (current plus those
// pinned by readers).
func (g *Graph) EpochsLive() int64 { return g.epochsLive.Load() }

// Close closes the WAL. Outstanding epochs stay readable; further Applies
// fail with ErrClosed.
func (g *Graph) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed != nil {
		return nil
	}
	g.closed = ErrClosed
	return g.w.close()
}

// wedge stops the graph taking batches after cause left its log and its
// memory in possible disagreement: the WAL is closed, and further Applies
// and Compacts fail with ErrClosed wrapping cause, so a client sees why.
// Published epochs stay readable. It returns cause. Callers hold g.mu.
func (g *Graph) wedge(cause error) error {
	g.closed = fmt.Errorf("%w: wedged by %v", ErrClosed, cause)
	g.w.close()
	return cause
}

func (g *Graph) reclaim() {
	g.epochsLive.Add(-1)
	if g.gLive != nil {
		g.gLive.Set(g.epochsLive.Load())
	}
}

// publishGauges refreshes the epoch gauges; callers hold g.mu.
func (g *Graph) publishGauges() {
	if g.gEpoch == nil {
		return
	}
	g.gEpoch.Set(int64(g.cur.id))
	g.gLive.Set(g.epochsLive.Load())
	g.gWALBytes.Set(g.w.size)
	g.gLastT.Set(int64(g.cur.lastT))
}
