package core

import (
	"encoding/binary"
	"fmt"

	"graphite/internal/codec"
	"graphite/internal/engine"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// This file is the ICM face of the multi-process cluster runtime: a
// core.Shard is one engine.Shard over its runtime, and the runtime's
// snapshot is what lets a shard's vertex states travel — to disk in a
// durable checkpoint, and to the coordinator as a partial result. Every process in
// a cluster builds its shard from the same graph, program and options, so
// the deterministic partitioner gives every process the identical
// vertex→shard map; only the owned slice of the state array is ever
// populated locally.

// Shard is one worker process's slice of an ICM computation, stepped
// externally by the cluster runtime: the engine.Shard over the ICM runtime,
// which reports its program errors through engine.Context.Fail.
type Shard struct {
	*engine.Shard
	rt *runtime
}

// NewShard prepares shard `shard` of `opts.NumWorkers` for a cluster run,
// whose supersteps close through NewBarrier(opts, …). The options must be
// identical in every process, with an explicit NumWorkers and no Transport
// or Context. States travel in StateCodecOf(prog, opts).
func NewShard(g *tgraph.Graph, prog Program, opts Options, shard int) (*Shard, error) {
	rt, eprog, cfg, err := prepare(g, prog, opts)
	if err != nil {
		return nil, err
	}
	sh, err := engine.NewShard(g.NumVertices(), eprog, cfg, shard)
	if err != nil {
		return nil, err
	}
	return &Shard{Shard: sh, rt: rt}, nil
}

// NewBarrier builds the barrier that closes the supersteps of shards built
// from opts, for whoever steps them: the cluster coordinator, or a test.
// maxRecoveries is its rewind budget (engine.Config.MaxRecoveries).
func NewBarrier(opts Options, maxRecoveries int) (*engine.Barrier, error) {
	cfg := engineConfig(opts)
	cfg.MaxRecoveries = maxRecoveries
	return engine.NewBarrier(cfg)
}

// EncodeOwnedStates serializes the shard's final vertex states and ICM
// stats for result collection — the program snapshot of its durable
// capture, so AssembleResult can merge either.
func (s *Shard) EncodeOwnedStates() ([]byte, error) { return s.rt.AppendSnapshot(nil) }

// AssembleResult merges per-shard state blobs (EncodeOwnedStates output)
// into a Result over g; pc is the program's StateCodecOf. Shards own
// disjoint vertex sets, so the state arrays interleave without conflict; ICM
// stats sum. The metrics are the caller's (the coordinator aggregates its
// own engine.Metrics from the superstep reports); nil is replaced by an
// empty Metrics.
func AssembleResult(g *tgraph.Graph, pc codec.Payload, blobs [][]byte, m *engine.Metrics) (*Result, error) {
	if m == nil {
		m = &engine.Metrics{}
	}
	states := make([]*PartitionedState, g.NumVertices())
	var sum [7]int64
	for i, blob := range blobs {
		shard, counters, err := decodeSnapshot(blob, g.NumVertices(), pc)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d result: %w", i, err)
		}
		for v, st := range shard {
			if st == nil {
				continue
			}
			if states[v] != nil {
				return nil, fmt.Errorf("core: vertex %d reported by two shards", v)
			}
			states[v] = st
		}
		for k, c := range counters {
			sum[k] += c
		}
	}
	return &Result{Graph: g, Metrics: m, Stats: statsOf(states, sum), states: states}, nil
}

// ---- snapshot wire format ----
//
//	u8 version
//	uvarint nStates | per state: uvarint vertexIndex, interval lifespan,
//	    uvarint nParts | per part: interval, u8 present, [value]
//	7 × uvarint counters (runtime.counters order)
//
// Values are encoded with the state codec; a nil value (legal in a freshly
// initialized partition) is the absent byte.

const snapVersion = 1

// AppendSnapshot implements engine.Snapshotter for the ICM runtime: the live
// states, encoded straight into buf, then the counters.
func (rt *runtime) AppendSnapshot(buf []byte) (out []byte, err error) {
	pc := rt.stateCodec
	// Codec implementations may panic on a value type they do not handle —
	// or be missing; surface that as an error so a worker reports instead of
	// dying.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("core: state value not encodable by its codec: %v", r)
		}
	}()
	buf = append(buf, snapVersion)
	n := 0
	for _, st := range rt.states {
		if st != nil {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for v, st := range rt.states {
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
	for _, c := range rt.counters() {
		buf = binary.AppendUvarint(buf, uint64(c.Load()))
	}
	return buf, nil
}

// RestoreSnapshot implements engine.Snapshotter: the snapshot is decoded and
// every state checked before any live one is replaced.
func (rt *runtime) RestoreSnapshot(data []byte) error {
	states, counters, err := decodeSnapshot(data, len(rt.states), rt.stateCodec)
	if err != nil {
		return err
	}
	copy(rt.states, states)
	for i, c := range rt.counters() {
		c.Store(counters[i])
	}
	return nil
}

// errSnapshot is what a malformed field of a runtime snapshot wraps.
var errSnapshot = fmt.Errorf("%w: snapshot", codec.ErrCorrupt)

// decodeSnapshot parses an AppendSnapshot over numV vertices into a state
// per vertex (nil where it holds none) and the counters. Every error wraps
// codec.ErrCorrupt; the first one stops the parse.
func decodeSnapshot(data []byte, numV int, pc codec.Payload) (states []*PartitionedState, counters [7]int64, err error) {
	r := codec.NewReader(data, errSnapshot)
	if v := r.Byte(); v != snapVersion {
		r.Fail("version %d", v)
	}
	states = make([]*PartitionedState, numV)
	for n := r.Max("state count", uint64(numV)); n > 0 && r.Err == nil; n-- {
		v := r.Max("vertex index", uint64(numV-1))
		if states[v] != nil {
			r.Fail("vertex %d twice", v)
		}
		st := &PartitionedState{lifespan: r.Interval()}
		// A partition takes at least its interval's flag byte and the
		// presence byte.
		for p := r.Count(2); p > 0 && r.Err == nil; p-- {
			iv := r.Interval()
			var val any
			switch present := r.Byte(); present {
			case 1:
				val = r.Value(pc)
			case 0:
			default:
				r.Fail("value presence %d", present)
			}
			st.parts = append(st.parts, warp.IntervalValue{Interval: iv, Value: val})
		}
		// A CRC-valid checkpoint can still carry a partition list that was
		// never a state; Set would splice into it and corrupt it silently.
		if ierr := st.Invariant(); ierr != nil {
			r.Fail("state of vertex %d (%v)", v, ierr)
		}
		states[v] = st
	}
	for i := range counters {
		counters[i] = int64(r.Uvarint())
	}
	if err := r.Done(); err != nil {
		return nil, counters, err
	}
	return states, counters, nil
}
