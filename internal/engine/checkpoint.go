package engine

import (
	"fmt"

	"graphite/internal/codec"
	"graphite/internal/obs"
)

// Snapshotter is the optional Program extension checkpointing requires
// (Config.CheckpointEvery). Snapshot returns an opaque deep-enough copy of
// all user vertex state; Restore replaces the live state with a previously
// returned snapshot. A snapshot may be restored more than once (a later
// superstep can fail again before the next checkpoint), so implementations
// must not hand out mutable internals that a replay would corrupt.
type Snapshotter interface {
	Snapshot() any
	Restore(snapshot any)
}

// Resettable is an optional Transport extension. Reset discards every
// in-flight frame so a rolled-back exchange can be replayed from a clean
// slate; without it the engine refuses to roll back past a transport
// failure, because frames from the aborted superstep would desynchronize the
// replay (the loopback TCP mesh is in this category — a broken socket needs
// a re-dial, which is out of scope, like master failure).
type Resettable interface {
	Reset() error
}

// checkpoint is one recovery point: everything Run mutates between
// supersteps, captured at a barrier (no frames in flight, outboxes empty).
type checkpoint struct {
	superstep  int
	phase      int
	halted     bool
	metrics    Metrics // absolute registry totals at capture time
	classBytes [codec.NumIntervalClasses]int64
	aggVals    map[string]any
	program    any         // Snapshotter-provided user state
	inbox      [][]msgSlab // [worker][slot]
	active     [][]bool    // [worker][slot]
}

// capture records a recovery point for the state "about to execute superstep
// e.superstp". It runs only at barriers, never concurrently with workers.
func (e *Engine) capture() {
	c := &checkpoint{
		superstep: e.superstp,
		phase:     e.phase,
		halted:    e.halted,
		metrics:   e.rawView(),
		aggVals:   make(map[string]any, len(e.aggVals)),
		program:   e.program.(Snapshotter).Snapshot(),
		inbox:     make([][]msgSlab, len(e.workers)),
		active:    make([][]bool, len(e.workers)),
	}
	for i, ctr := range e.ec.classBytes {
		c.classBytes[i] = ctr.Load()
	}
	for k, v := range e.aggVals {
		c.aggVals[k] = v
	}
	for i, w := range e.workers {
		c.inbox[i] = make([]msgSlab, len(w.inbox))
		for s, sl := range w.inbox {
			if sl != nil && len(sl.msgs) > 0 {
				// Checkpoints copy out of the pooled slab: a slab is recycled
				// long before a rollback might need the snapshot again.
				c.inbox[i][s].addAll(sl)
			}
		}
		c.active[i] = append([]bool(nil), w.active...)
	}
	e.ckpt = c
	e.checkpoints++
	e.ec.checkpoints.Inc()
	if e.traced {
		e.tracer.Emit(obs.Checkpoint{Superstep: e.superstp, Index: e.checkpoints})
	}
}

// restoreCheckpoint rewinds the engine to the latest checkpoint: superstep
// counter, phase, metrics, merged aggregates, user state, inboxes and active
// flags; outboxes, aggregator partials and per-worker metric partials from
// the aborted superstep are discarded.
func (e *Engine) restoreCheckpoint() {
	c := e.ckpt
	e.superstp = c.superstep
	e.phase = c.phase
	e.halted = c.halted
	e.storeRaw(c.metrics, c.classBytes)
	e.aggVals = make(map[string]any, len(c.aggVals))
	for k, v := range c.aggVals {
		e.aggVals[k] = v
	}
	e.program.(Snapshotter).Restore(c.program)
	for _, agg := range e.aggs {
		agg.drain()
	}
	for i, w := range e.workers {
		for s := range w.inbox {
			// Recycle whatever the failed superstep delivered — including
			// payloads decoded from corrupted frames; put scrubs the spill
			// table so nothing poisoned survives in the pool — then rebuild
			// the slot from a fresh copy of the snapshot (a snapshot can be
			// restored more than once, so it must never share a buffer with
			// live state).
			if sl := w.inbox[s]; sl != nil {
				w.inbox[s] = nil
				msgArena.put(sl)
			}
			if saved := &c.inbox[i][s]; len(saved.msgs) > 0 {
				sl := msgArena.get()
				sl.addAll(saved)
				w.inbox[s] = sl
			}
		}
		copy(w.active, c.active[i])
		// The dense frontier mirrors the active bitmap; rebuild it so the
		// replayed compute phase schedules exactly the restored activations.
		w.rebuildFrontier()
		for _, ob := range w.outbox {
			ob.reset()
		}
		w.resetPartials()
	}
}

// rollback attempts to recover a failed superstep by rewinding to the latest
// checkpoint and reports whether the run should resume. needsReset says the
// failure happened during the exchange phase, which may have left frames in
// flight; recovery then additionally requires a Resettable transport.
func (e *Engine) rollback(needsReset bool) bool {
	if e.ckpt == nil {
		return false
	}
	if needsReset && e.cfg.Transport != nil {
		r, ok := e.cfg.Transport.(Resettable)
		if !ok {
			return false
		}
		if err := r.Reset(); err != nil {
			return false
		}
	}
	max := e.cfg.MaxRecoveries
	if max <= 0 {
		max = DefaultMaxRecoveries
	}
	if e.recoveries >= max {
		e.errMu.Lock()
		e.runErr = fmt.Errorf("%w: superstep %d still failing after %d recoveries: %w",
			ErrRecoveryExhausted, e.superstp, e.recoveries, e.runErr)
		e.errMu.Unlock()
		return false
	}
	failed := e.superstp
	reason := ""
	if err := e.takeErr(); err != nil {
		reason = err.Error()
	}
	e.recoveries++
	e.ec.recoveries.Inc()
	e.restoreCheckpoint()
	e.clearErr()
	if e.traced {
		e.tracer.Emit(obs.Recovery{
			Failed:   failed,
			ResumeAt: e.superstp,
			Attempt:  e.recoveries,
			Reason:   reason,
			Reset:    needsReset && e.cfg.Transport != nil,
		})
	}
	return true
}
