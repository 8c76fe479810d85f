package engine

import (
	"fmt"
	"slices"

	"graphite/internal/codec"
	"graphite/internal/obs"
)

// This file is the engine's worker, the Shard. Run steps every shard of its
// engine; NewShard hands one out to be stepped from outside, the building
// block of the multi-process cluster runtime (internal/cluster). Every worker
// process constructs the FULL engine over the whole graph with the same
// deterministic configuration — partitioner, worker count, codec — so the
// vertex→shard and vertex→slot maps are identical in every process, then
// executes only its own shard's slots. Remote vertices exist as routing
// entries only; their state lives in the processes that own them.
//
// The cluster coordinator drives the BSP loop from outside: Compute →
// Outbound (encoded batches for the wire) → Deliver (batches received from
// peers) → Barrier, one call set per superstep per shard, and closes each
// superstep through an engine Barrier of its own. Compute runs the phase Run
// runs, under the same guard; Outbound encodes what Run ships over a
// Transport; Deliver goes through the same receive routine as Run's exchange
// — own outbox first, then peer batches in ascending shard order — so a
// cluster run is bit-identical to a single-process run over the same
// configuration, which is what the kill-recovery chaos tests assert.

// StepReport is one shard's contribution to a superstep barrier: its share
// of the superstep's record — counts, frontier after delivery and interval
// bytes, no clocks — and its aggregator partials, in name order. Delivered
// counts the messages delivered into this shard, after each sender's fold;
// Active, its vertices active for the next superstep. Barrier.Close decides
// the superstep's end from the shares and folds them into the run's totals;
// the cluster's barrier report carries it under the record's JSON names.
type StepReport struct {
	obs.SuperstepEnd
	Aggs []codec.Word `json:"aggs,omitempty"`
}

// Shard is one worker of an engine: it owns the vertices the partitioner
// gives it and runs their phases of every superstep.
type Shard struct {
	id     int
	eng    *Engine
	local  []int32    // dense vertex indices owned by this shard
	active []bool     // per local slot; dedup bitmap behind the frontier
	outbox []*msgSlab // per destination shard, refilled every superstep; arena-pooled across runs
	inbox  *msgSlab   // delivered messages in slot order, slot s's at msgs[at[s]:end[s]]; arena-pooled
	at     []int32    // per local slot: where its inbox range starts
	end    []int32    // per local slot: where it ends

	// Dense frontier: slots activated since the last compute phase, appended
	// at delivery time (activation order), sorted at compute start. Grow-only.
	frontier []int32
	allSlots []int32 // lazily built 0..len(local)-1 schedule for ActivateAll

	// The superstep's partials, reported to the barrier after every
	// superstep (report): the shard's record and the aggregator partials,
	// in the barrier's name order.
	rep StepReport

	// step is the shard's record of the superstep in flight: each phase
	// writes its own clocks, and Run reads it at the barrier (shards are
	// quiescent then), so no synchronization.
	step obs.ShardStep

	scratch  []byte // spilled-payload sizing buffer, reused across sends
	ckptSize int    // the last durable capture's length, the next one's first allocation

	// cctx is the shard's persistent compute Context: &cctx escapes into
	// Program.Run through the interface call, and a per-phase local would
	// heap-allocate once per shard per superstep.
	cctx Context
}

// NewShard builds the full engine for numVertices vertices and returns its
// shard of cfg.NumWorkers, to be stepped from outside. The configuration
// must be identical across every process of the cluster (same partitioner,
// worker count, codec, program construction), which is why NumWorkers must
// be explicit — a GOMAXPROCS default would diverge between hosts. A Master
// runs in the coordinator's barrier, not in the shard. Single-process concerns
// are rejected: Transport (the cluster IS the transport) and Context
// (cancellation arrives as a connection close, not a ctx).
func NewShard(numVertices int, program Program, cfg Config, shard int) (*Shard, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("%w: shard execution requires an explicit NumWorkers", ErrBadConfig)
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("%w: shard execution replaces Transport", ErrBadConfig)
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
	e, err := New(numVertices, program, cfg)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(e.workers) {
		return nil, fmt.Errorf("%w: shard %d out of range for %d workers", ErrBadConfig, shard, len(e.workers))
	}
	s := e.workers[shard]
	s.drawBuffers()
	return s, nil
}

// Close returns the shard's pooled message buffers for the next run or
// shard in this process to reuse. The shard must not be stepped afterwards;
// a shard that is merely dropped is collected like any other garbage.
func (s *Shard) Close() { s.eng.releaseBuffers() }

// Superstep returns the 1-based superstep about to execute (or executing).
func (s *Shard) Superstep() int { return s.eng.superstp }

// SetPhase sets the phase vertices see in the next Compute: the one
// Barrier.Open left for the superstep.
func (s *Shard) SetPhase(p int) { s.eng.barrier.state.Phase = p }

// Init runs Program.Init over this shard's vertices (superstep-1 setup),
// activating all of them: Run's init phase for one shard.
func (s *Shard) Init() error {
	s.eng.superstp = 1
	s.resetPartials()
	step(s, (*Shard).init)
	return s.eng.takeErr()
}

// Compute runs this shard's compute phase over its active frontier,
// emitting into per-destination outboxes: Run's compute phase for one shard.
// A user-program panic surfaces as a *VertexPanicError, never kills the
// process, and a failure reported through Context.Fail ends the phase.
func (s *Shard) Compute() error {
	step(s, (*Shard).compute)
	return s.eng.takeErr()
}

// Outbound drains and encodes the cross-shard outboxes: one batch per
// destination shard (possibly empty — peers expect exactly one frame from
// every other shard per superstep), nil at this shard's own index. The
// self-addressed outbox is retained for Deliver.
func (s *Shard) Outbound() ([][]byte, error) {
	if err := s.eng.takeErr(); err != nil {
		return nil, err
	}
	return s.outbound(), nil
}

// outbound is Outbound's encoding, and what Run ships over a Transport.
// Batches are freshly allocated: they are handed to the wire, which may hold
// them, so the pooled-slab discipline of the in-process hot path does not
// apply. Each is encoded into a pooled slab and copied out once, at its final
// size.
func (s *Shard) outbound() [][]byte {
	e := s.eng
	out := make([][]byte, len(e.workers))
	slab := batchSlabs.Get()
	defer batchSlabs.Put(slab)
	for dst := range e.workers {
		if dst == s.id {
			continue
		}
		slab.Buf = e.encodeBatch(slab.Buf[:0], s.outbox[dst])
		out[dst] = append(make([]byte, 0, len(slab.Buf)), slab.Buf...)
		s.outbox[dst].reset()
	}
	return out
}

// Deliver runs this shard's receive phase: the self-addressed outbox first,
// then the peer batches in the order given — callers MUST pass them in
// ascending source-shard order, the order Run delivers in with or without a
// Transport, or cluster runs lose bit-identity with single-process runs.
// Returns the number of messages delivered into this shard.
func (s *Shard) Deliver(batches [][]byte) (int64, error) {
	n, err := s.receiveWire(batches)
	if err != nil {
		return n, fmt.Errorf("engine: shard %d: %w", s.id, err)
	}
	s.rep.Delivered = n
	return n, nil
}

// Barrier closes the current superstep on the shard's side: it returns the
// report for Barrier.Close, starts the partials over and refreshes the pool
// gauges, as Run does at its barrier. The report's record is the shard's
// share of the superstep, which its driver publishes. Call after Deliver.
func (s *Shard) Barrier() StepReport {
	rep := s.report()
	rep.Aggs = slices.Clone(rep.Aggs)
	s.resetPartials()
	s.eng.series.SetPools(poolStats())
	s.eng.superstp++
	return rep
}

// CaptureDurable serializes everything a replacement process needs to
// resume this shard at the current superstep boundary — the capture of its
// one worker (see Engine.capture). Call only at a barrier (after Barrier,
// before the next Compute).
func (s *Shard) CaptureDurable() ([]byte, error) {
	if err := s.eng.takeErr(); err != nil {
		return nil, err
	}
	data, err := s.eng.capture(make([]byte, 0, s.ckptSize), s.eng.workers[s.id:s.id+1])
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", s.id, err)
	}
	s.ckptSize = len(data)
	return data, nil
}

// RestoreDurable rewinds this shard to a CaptureDurable state. Works on a
// freshly Init()ed shard (the replacement-process path) and on a live one
// rolling back with the survivors; a malformed capture changes nothing.
func (s *Shard) RestoreDurable(data []byte) error {
	if err := s.eng.restore(data, s.eng.workers[s.id:s.id+1]); err != nil {
		return fmt.Errorf("engine: shard %d: %w", s.id, err)
	}
	return nil
}
