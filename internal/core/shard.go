package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"graphite/internal/codec"
	"graphite/internal/engine"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// This file is the ICM face of the multi-process cluster runtime: a
// core.Shard wraps one engine.Shard plus its runtime, and the snapshot
// codec that lets a shard's vertex states travel — to disk as a durable
// checkpoint, and to the coordinator as a partial result. Every process in
// a cluster builds its shard from the same graph, program and options, so
// the deterministic partitioner gives every process the identical
// vertex→shard map; only the owned slice of the state array is ever
// populated locally.

// ErrClusterUnsupported marks Options features that have no distributed
// equivalent yet: master compute and aggregators need a coordinator-side
// merge protocol, and a run with ActivateAll but no superstep bound would
// never halt without a master.
var ErrClusterUnsupported = errors.New("core: option unsupported in cluster execution")

// Shard is one worker process's slice of an ICM computation, stepped
// externally by the cluster runtime.
type Shard struct {
	rt *runtime
	sh *engine.Shard
	g  *tgraph.Graph
}

// NewShard prepares shard `shard` of `opts.NumWorkers` for a cluster run.
// The options must be identical in every process. Beyond the engine-level
// restrictions (explicit NumWorkers; no Transport, Master, CheckpointEvery
// or Context), aggregators are rejected (no distributed
// merge) and ActivateAll requires MaxSupersteps. State values must be
// encodable by opts.PayloadCodec — checkpoints and result collection
// serialize them with it.
func NewShard(g *tgraph.Graph, prog Program, opts Options, shard int) (*Shard, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("core: empty graph")
	}
	if opts.Master != nil {
		return nil, fmt.Errorf("%w: Master", ErrClusterUnsupported)
	}
	if len(opts.Aggregators) > 0 {
		return nil, fmt.Errorf("%w: Aggregators", ErrClusterUnsupported)
	}
	if opts.WrapProgram != nil {
		return nil, fmt.Errorf("%w: WrapProgram", ErrClusterUnsupported)
	}
	if opts.ActivateAll && opts.MaxSupersteps <= 0 {
		return nil, fmt.Errorf("%w: ActivateAll without MaxSupersteps never halts", ErrClusterUnsupported)
	}
	rt := newRuntime(g, prog, opts)
	if !g.ExistsIn(rt.window) {
		return nil, fmt.Errorf("core: window %v contains no vertices", rt.window)
	}
	cfg := engine.Config{
		NumWorkers:   opts.NumWorkers,
		ActivateAll:  opts.ActivateAll,
		Partitioner:  opts.Partitioner,
		PayloadCodec: opts.PayloadCodec,
		SendRetries:  opts.SendRetries,
		Registry:     opts.Registry,
		Span:         opts.Span,
	}
	if opts.ReceiverCombine && rt.combine != nil {
		cfg.Combiner = engine.Combiner(rt.combine)
	}
	sh, err := engine.NewShard(g.NumVertices(), rt, cfg, shard)
	if err != nil {
		return nil, err
	}
	return &Shard{rt: rt, sh: sh, g: g}, nil
}

// Close recycles the shard's message buffers once the run is over (after
// EncodeOwnedStates); the shard must not be stepped afterwards.
func (s *Shard) Close() { s.sh.Close() }

// ID returns the shard index; NumShards the cluster width.
func (s *Shard) ID() int        { return s.sh.ID() }
func (s *Shard) NumShards() int { return s.sh.NumShards() }

// Superstep returns the 1-based superstep about to execute.
func (s *Shard) Superstep() int { return s.sh.Superstep() }

// Init runs Program.Init over the owned vertices.
func (s *Shard) Init() error {
	if err := s.sh.Init(); err != nil {
		return err
	}
	return s.rt.err
}

// Compute runs one compute phase over the shard's active frontier.
func (s *Shard) Compute() error {
	if err := s.sh.Compute(); err != nil {
		return err
	}
	return s.rt.err
}

// Outbound drains the encoded cross-shard batches (nil at own index).
func (s *Shard) Outbound() ([][]byte, error) { return s.sh.Outbound() }

// Deliver runs the receive phase; peer batches must arrive in ascending
// source-shard order (see engine.Shard.Deliver).
func (s *Shard) Deliver(batches [][]byte) (int64, error) { return s.sh.Deliver(batches) }

// Barrier closes the superstep and returns this shard's report.
func (s *Shard) Barrier() engine.StepReport { return s.sh.Barrier() }

// CaptureDurable serializes the shard for a durable checkpoint; call at a
// barrier. RestoreDurable rewinds to such a capture (on a freshly Init()ed
// shard in a replacement process, or in place on a survivor).
func (s *Shard) CaptureDurable() ([]byte, error)  { return s.sh.CaptureDurable() }
func (s *Shard) RestoreDurable(data []byte) error { return s.sh.RestoreDurable(data) }

// EncodeOwnedStates serializes the shard's final vertex states and ICM
// stats for result collection — the same wire format the durable snapshot
// uses, so AssembleResult can merge either.
func (s *Shard) EncodeOwnedStates() ([]byte, error) {
	return s.rt.AppendSnapshot(nil, s.rt.Snapshot())
}

// AssembleResult merges per-shard state blobs (EncodeOwnedStates output)
// into a Result over g. Shards own disjoint vertex sets, so the state
// arrays interleave without conflict; ICM stats sum. The metrics are the
// caller's (the coordinator aggregates its own engine.Metrics from the
// superstep reports); nil is replaced by an empty Metrics.
func AssembleResult(g *tgraph.Graph, pc codec.Payload, blobs [][]byte, m *engine.Metrics) (*Result, error) {
	if m == nil {
		m = &engine.Metrics{}
	}
	states := make([]*PartitionedState, g.NumVertices())
	var stats Stats
	for i, blob := range blobs {
		snap, err := decodeRuntimeSnapshot(blob, g.NumVertices(), pc)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d result: %w", i, err)
		}
		for v, st := range snap.states {
			if st == nil {
				continue
			}
			if states[v] != nil {
				return nil, fmt.Errorf("core: vertex %d reported by two shards", v)
			}
			states[v] = st
		}
		stats.WarpCalls += snap.warpCalls
		stats.WarpSuppressed += snap.warpSuppressed
		stats.StateUpdates += snap.stateUpdates
		stats.ActiveIntervals += snap.activeIntervals
	}
	for _, st := range states {
		if st != nil && st.NumParts() > stats.MaxPartitions {
			stats.MaxPartitions = st.NumParts()
		}
	}
	return &Result{Graph: g, Metrics: m, Stats: stats, states: states}, nil
}

// ---- snapshot wire format ----
//
//	u8 version
//	uvarint nStates | per state: uvarint vertexIndex, interval lifespan,
//	    uvarint nParts | per part: interval, u8 present, [payload]
//	7 × uvarint counters
//
// Values are encoded with the run's PayloadCodec; a nil value (legal in a
// freshly initialized partition) is the absent byte.

const snapVersion = 1

// AppendSnapshot implements engine.SnapshotCodec for the ICM runtime.
func (rt *runtime) AppendSnapshot(buf []byte, snapshot any) (out []byte, err error) {
	s, ok := snapshot.(*runtimeSnapshot)
	if !ok {
		return nil, fmt.Errorf("core: unexpected snapshot type %T", snapshot)
	}
	pc := rt.opts.PayloadCodec
	if pc == nil {
		return nil, errors.New("core: snapshot serialization requires PayloadCodec")
	}
	// Codec implementations may panic on a value type they do not handle;
	// surface that as an error so a worker reports instead of dying.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("core: state value not encodable by payload codec: %v", r)
		}
	}()
	buf = append(buf, snapVersion)
	n := 0
	for _, st := range s.states {
		if st != nil {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for v, st := range s.states {
		if st == nil {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(v))
		buf = codec.AppendInterval(buf, st.lifespan)
		buf = binary.AppendUvarint(buf, uint64(len(st.parts)))
		for _, p := range st.parts {
			buf = codec.AppendInterval(buf, p.Interval)
			if p.Value == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			buf = pc.Append(buf, p.Value)
		}
	}
	for _, c := range []int64{s.warpCalls, s.warpSuppressed, s.stateUpdates,
		s.activeIntervals, s.mergedGroups, s.msgsIn, s.unitMsgsIn} {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf, nil
}

// DecodeSnapshot implements engine.SnapshotCodec.
func (rt *runtime) DecodeSnapshot(data []byte) (any, error) {
	snap, err := decodeRuntimeSnapshot(data, len(rt.states), rt.opts.PayloadCodec)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

func snapCorrupt(what string) error {
	return fmt.Errorf("%w: snapshot: bad %s", codec.ErrCorrupt, what)
}

func decodeRuntimeSnapshot(data []byte, numV int, pc codec.Payload) (*runtimeSnapshot, error) {
	if pc == nil {
		return nil, errors.New("core: snapshot decoding requires PayloadCodec")
	}
	if len(data) < 1 || data[0] != snapVersion {
		return nil, snapCorrupt("version")
	}
	buf := data[1:]
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return 0, snapCorrupt(what)
		}
		buf = buf[k:]
		return v, nil
	}
	n, err := next("state count")
	if err != nil {
		return nil, err
	}
	if n > uint64(numV) {
		return nil, snapCorrupt("state count")
	}
	snap := &runtimeSnapshot{states: make([]*PartitionedState, numV)}
	for i := uint64(0); i < n; i++ {
		v, err := next("vertex index")
		if err != nil {
			return nil, err
		}
		if v >= uint64(numV) || snap.states[v] != nil {
			return nil, snapCorrupt("vertex index")
		}
		life, k, err := codec.Interval(buf)
		if err != nil {
			return nil, err
		}
		buf = buf[k:]
		nParts, err := next("partition count")
		if err != nil {
			return nil, err
		}
		st := &PartitionedState{lifespan: life}
		for p := uint64(0); p < nParts; p++ {
			iv, k, err := codec.Interval(buf)
			if err != nil {
				return nil, err
			}
			buf = buf[k:]
			if len(buf) < 1 {
				return nil, snapCorrupt("value presence")
			}
			present := buf[0]
			buf = buf[1:]
			var val any
			if present == 1 {
				var k int
				val, k, err = pc.Decode(buf)
				if err != nil {
					return nil, err
				}
				buf = buf[k:]
			} else if present != 0 {
				return nil, snapCorrupt("value presence")
			}
			st.parts = append(st.parts, warp.IntervalValue{Interval: iv, Value: val})
		}
		// A CRC-valid checkpoint can still carry a partition list that was
		// never a state; Set would splice into it and corrupt it silently.
		if err := st.Invariant(); err != nil {
			return nil, snapCorrupt(fmt.Sprintf("state of vertex %d (%v)", v, err))
		}
		snap.states[v] = st
	}
	counters := [7]*int64{&snap.warpCalls, &snap.warpSuppressed, &snap.stateUpdates,
		&snap.activeIntervals, &snap.mergedGroups, &snap.msgsIn, &snap.unitMsgsIn}
	for i, dst := range counters {
		c, err := next(fmt.Sprintf("counter %d", i))
		if err != nil {
			return nil, err
		}
		*dst = int64(c)
	}
	return snap, nil
}
