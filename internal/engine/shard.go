package engine

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"slices"

	"graphite/internal/codec"
)

// This file exposes one engine worker as an externally-driven shard, the
// building block of the multi-process cluster runtime (internal/cluster).
// Every worker process constructs the FULL engine over the whole graph with
// the same deterministic configuration — partitioner, worker count, codec —
// so the vertex→worker and vertex→slot maps are identical in every process,
// then executes only its own worker's slots. Remote vertices exist as
// routing entries only; their state lives in the processes that own them.
//
// The cluster coordinator drives the BSP loop from outside: Compute →
// Outbound (encoded batches for the wire) → Deliver (batches received from
// peers) → Barrier, one call set per superstep per shard. Delivery order
// matches the in-process transported exchange exactly — own outbox first,
// then peer batches in ascending shard order — so a cluster run is
// bit-identical to a single-process run over the same configuration, which
// is what the kill-recovery chaos tests assert.

// SnapshotCodec is the Program extension the durable checkpoint path
// requires on top of Snapshotter: the opaque snapshot must serialize, since
// a replacement process restores it from disk rather than from memory.
type SnapshotCodec interface {
	// AppendSnapshot appends a serialized form of a Snapshot() result to buf.
	AppendSnapshot(buf []byte, snap any) ([]byte, error)
	// DecodeSnapshot reconstructs a snapshot suitable for Restore from bytes
	// produced by AppendSnapshot.
	DecodeSnapshot(data []byte) (any, error)
}

// StepReport is one shard's contribution to a superstep barrier. The
// coordinator sums Delivered and Active across shards to detect global
// quiescence (the engine's halt condition, distributed).
type StepReport struct {
	Superstep    int   // the superstep just completed
	Delivered    int64 // messages delivered into this shard
	Active       int   // this shard's vertices active for the next superstep
	ComputeCalls int64
	ScatterCalls int64
	SentMsgs     int64
	SentBytes    int64
}

// Shard is one worker's slice of an engine, stepped from outside.
type Shard struct {
	eng       *Engine
	w         *worker
	id        int
	snap      SnapshotCodec
	delivered int64
}

// NewShard builds the full engine for numVertices vertices and returns the
// handle for executing worker shard of cfg.NumWorkers. The configuration
// must be identical across every process of the cluster (same partitioner,
// worker count, codec, program construction), which is why NumWorkers must
// be explicit — a GOMAXPROCS default would diverge between hosts. Single-
// process concerns are rejected: Transport (the cluster IS the transport),
// Master and CheckpointEvery (the coordinator owns control flow and durable
// checkpoints), Context (cancellation arrives as a connection close, not a
// ctx).
func NewShard(numVertices int, program Program, cfg Config, shard int) (*Shard, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("%w: shard execution requires an explicit NumWorkers", ErrBadConfig)
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("%w: shard execution replaces Transport", ErrBadConfig)
	}
	if cfg.Master != nil {
		return nil, fmt.Errorf("%w: master compute is centralized at the cluster coordinator", ErrBadConfig)
	}
	if cfg.CheckpointEvery > 0 {
		return nil, fmt.Errorf("%w: shards checkpoint durably via CaptureDurable, not CheckpointEvery", ErrBadConfig)
	}
	if cfg.Context != nil {
		return nil, fmt.Errorf("%w: shard execution is driven externally; Context is unsupported", ErrBadConfig)
	}
	if cfg.PayloadCodec == nil {
		return nil, fmt.Errorf("%w: shard execution requires PayloadCodec", ErrBadConfig)
	}
	if _, ok := program.(Snapshotter); !ok {
		return nil, fmt.Errorf("%w: shard execution requires a Program implementing Snapshotter", ErrBadConfig)
	}
	snap, ok := program.(SnapshotCodec)
	if !ok {
		return nil, fmt.Errorf("%w: shard execution requires a Program implementing SnapshotCodec", ErrBadConfig)
	}
	e, err := New(numVertices, program, cfg)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(e.workers) {
		return nil, fmt.Errorf("%w: shard %d out of range for %d workers", ErrBadConfig, shard, len(e.workers))
	}
	w := e.workers[shard]
	w.drawOutboxes()
	w.outBytes = make([]int64, len(e.workers))
	return &Shard{eng: e, w: w, id: shard, snap: snap}, nil
}

// Close returns the shard's pooled message buffers for the next run or
// shard in this process to reuse. The shard must not be stepped afterwards;
// a shard that is merely dropped is collected like any other garbage.
func (s *Shard) Close() { s.eng.releaseBuffers() }

// ID returns the shard index.
func (s *Shard) ID() int { return s.id }

// NumShards returns the cluster width the engine was built for.
func (s *Shard) NumShards() int { return len(s.eng.workers) }

// Superstep returns the 1-based superstep about to execute (or executing).
func (s *Shard) Superstep() int { return s.eng.superstp }

// Owned returns the dense vertex indices this shard owns, in slot order.
// The slice is the engine's own; callers must not mutate it.
func (s *Shard) Owned() []int32 { return s.w.local }

// Init runs Program.Init over this shard's vertices (superstep-1 setup),
// activating all of them, exactly as Run's init phase does for one worker.
func (s *Shard) Init() error {
	s.eng.superstp = 1
	s.w.init()
	return s.eng.takeErr()
}

// Compute runs this shard's compute phase over its active frontier,
// emitting into per-destination outboxes. A user-program panic surfaces as
// a *VertexPanicError, never kills the process.
func (s *Shard) Compute() error {
	e := s.eng
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.fail(&VertexPanicError{
					Vertex:    -1,
					Superstep: e.superstp,
					Value:     r,
					Stack:     debug.Stack(),
				})
			}
		}()
		s.w.compute()
	}()
	return e.takeErr()
}

// Outbound drains and encodes the cross-shard outboxes: one batch per
// destination shard (possibly empty — peers expect exactly one frame from
// every other shard per superstep), nil at this shard's own index. The
// self-addressed outbox is retained for Deliver. Batches are freshly
// allocated: they are handed to the wire asynchronously, so the pooled-slab
// discipline of the in-process hot path does not apply. Each is allocated
// once, at the size Context.Send summed up for it.
func (s *Shard) Outbound() ([][]byte, error) {
	e, w := s.eng, s.w
	if err := e.takeErr(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(e.workers))
	for dst := range e.workers {
		if dst == s.id {
			continue
		}
		size := codec.UvarintLen(uint64(len(w.outbox[dst].msgs))) + int(w.outBytes[dst])
		out[dst] = e.encodeBatch(make([]byte, 0, size), w.outbox[dst])
		w.outbox[dst].reset()
	}
	clear(w.outBytes)
	return out, nil
}

// Deliver runs this shard's receive phase: the self-addressed outbox first,
// then the peer batches in the order given — callers MUST pass them in
// ascending source-shard order, mirroring Transport.Recv, or cluster runs
// lose bit-identity with single-process runs. Returns the number of
// messages delivered into this shard.
func (s *Shard) Deliver(batches [][]byte) (int64, error) {
	n, err := s.w.receive(batches)
	if err != nil {
		return n, fmt.Errorf("engine: shard %d: %w", s.id, err)
	}
	s.delivered = n
	return n, nil
}

// Barrier closes the current superstep: partials fold into the registry and
// the report the coordinator aggregates is returned. Call after Deliver.
func (s *Shard) Barrier() StepReport {
	e := s.eng
	st := e.mergePartials()
	rep := StepReport{
		Superstep:    e.superstp,
		Delivered:    s.delivered,
		Active:       len(s.w.frontier),
		ComputeCalls: st.computeCalls,
		ScatterCalls: st.scatterCalls,
		SentMsgs:     st.sentMsgs,
		SentBytes:    st.sentBytes,
	}
	e.ec.supersteps.Inc()
	// No imbalance gauge: only this shard's worker computes in this engine.
	// The cluster's imbalance is the coordinator's GClusterSkewMilli.
	e.ec.activeVertices.Set(int64(e.countActive()))
	e.superstp++
	s.delivered = 0
	return rep
}

// shardCkptVersion tags the durable shard-checkpoint format.
const shardCkptVersion = 1

// CaptureDurable serializes everything a replacement process needs to
// resume this shard at the current superstep boundary: the superstep
// counter, the program's vertex state (via SnapshotCodec), the active slot
// set, and the undelivered inboxes. Call only at a barrier (after Barrier,
// before the next Compute). The bytes are canonical — active slots sorted,
// inboxes in slot order — so identical state yields identical bytes.
func (s *Shard) CaptureDurable() ([]byte, error) {
	e, w := s.eng, s.w
	if err := e.takeErr(); err != nil {
		return nil, err
	}
	snapBytes, err := s.snap.AppendSnapshot(nil, e.program.(Snapshotter).Snapshot())
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d snapshot: %w", s.id, err)
	}
	buf := []byte{shardCkptVersion}
	buf = binary.AppendUvarint(buf, uint64(e.superstp))
	buf = binary.AppendUvarint(buf, uint64(len(snapBytes)))
	buf = append(buf, snapBytes...)

	slots := append([]int32(nil), w.frontier...)
	slices.Sort(slots)
	buf = binary.AppendUvarint(buf, uint64(len(slots)))
	for _, sl := range slots {
		buf = binary.AppendUvarint(buf, uint64(sl))
	}

	nonEmpty := 0
	for _, sl := range w.inbox {
		if sl != nil && len(sl.msgs) > 0 {
			nonEmpty++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nonEmpty))
	for slot, sl := range w.inbox {
		if sl == nil || len(sl.msgs) == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(slot))
		// Each inbox batch is length-prefixed so the restore parser can walk
		// entry to entry without decoding ahead.
		batch := e.encodeBatch(nil, sl)
		buf = binary.AppendUvarint(buf, uint64(len(batch)))
		buf = append(buf, batch...)
	}
	return buf, nil
}

// readUvarint pops one uvarint off buf.
func readUvarint(buf []byte, what string) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: shard checkpoint: bad %s", ErrCheckpointCorrupt, what)
	}
	return v, buf[k:], nil
}

// RestoreDurable rewinds this shard to a CaptureDurable state: program
// state, active set, inboxes and superstep counter are replaced; outboxes,
// partials and any recorded failure are discarded. Works on a freshly
// Init()ed shard (the replacement-process path) and on a live one rolling
// back with the survivors.
func (s *Shard) RestoreDurable(data []byte) error {
	e, w := s.eng, s.w
	if len(data) < 1 || data[0] != shardCkptVersion {
		return fmt.Errorf("%w: shard checkpoint: unknown version", ErrCheckpointCorrupt)
	}
	buf := data[1:]
	superstep, buf, err := readUvarint(buf, "superstep")
	if err != nil {
		return err
	}
	snapLen, buf, err := readUvarint(buf, "snapshot length")
	if err != nil {
		return err
	}
	if uint64(len(buf)) < snapLen {
		return fmt.Errorf("%w: shard checkpoint: snapshot truncated", ErrCheckpointCorrupt)
	}
	snap, err := s.snap.DecodeSnapshot(buf[:snapLen])
	if err != nil {
		return fmt.Errorf("engine: shard %d snapshot decode: %w", s.id, err)
	}
	buf = buf[snapLen:]

	nActive, buf, err := readUvarint(buf, "active count")
	if err != nil {
		return err
	}
	if nActive > uint64(len(w.local)) {
		return fmt.Errorf("%w: shard checkpoint: %d active of %d slots", ErrCheckpointCorrupt, nActive, len(w.local))
	}
	activeSlots := make([]int, 0, nActive)
	for i := uint64(0); i < nActive; i++ {
		var slot uint64
		slot, buf, err = readUvarint(buf, "active slot")
		if err != nil {
			return err
		}
		if slot >= uint64(len(w.local)) {
			return fmt.Errorf("%w: shard checkpoint: active slot %d out of range", ErrCheckpointCorrupt, slot)
		}
		activeSlots = append(activeSlots, int(slot))
	}

	type inboxEntry struct {
		slot int
		msgs *msgSlab
	}
	nInbox, buf, err := readUvarint(buf, "inbox count")
	if err != nil {
		return err
	}
	entries := make([]inboxEntry, 0, nInbox)
	for i := uint64(0); i < nInbox; i++ {
		var slot, blen uint64
		slot, buf, err = readUvarint(buf, "inbox slot")
		if err != nil {
			return err
		}
		if slot >= uint64(len(w.local)) {
			return fmt.Errorf("%w: shard checkpoint: inbox slot %d out of range", ErrCheckpointCorrupt, slot)
		}
		blen, buf, err = readUvarint(buf, "inbox batch length")
		if err != nil {
			return err
		}
		if uint64(len(buf)) < blen {
			return fmt.Errorf("%w: shard checkpoint: inbox batch truncated", ErrCheckpointCorrupt)
		}
		msgs := &msgSlab{}
		if derr := e.decodeBatchInto(msgs, buf[:blen]); derr != nil {
			return fmt.Errorf("engine: shard %d inbox decode: %w", s.id, derr)
		}
		buf = buf[blen:]
		entries = append(entries, inboxEntry{slot: int(slot), msgs: msgs})
	}

	// All parsed and validated — now mutate. Recycle whatever the aborted
	// superstep delivered, then rebuild from the checkpoint.
	e.program.(Snapshotter).Restore(snap)
	for slot := range w.inbox {
		if sl := w.inbox[slot]; sl != nil {
			w.inbox[slot] = nil
			msgArena.put(sl)
		}
	}
	clear(w.active)
	w.frontier = w.frontier[:0]
	for _, slot := range activeSlots {
		w.activate(slot)
	}
	for _, ent := range entries {
		sl := msgArena.get()
		sl.addAll(ent.msgs)
		w.inbox[ent.slot] = sl
	}
	for _, ob := range w.outbox {
		ob.reset()
	}
	clear(w.outBytes)
	w.resetPartials()
	e.clearErr()
	e.superstp = int(superstep)
	s.delivered = 0
	return nil
}
