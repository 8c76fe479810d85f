package core

import (
	"errors"
	"fmt"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// VertexCtx is the interval vertex handle passed to the user's Init, Compute
// and Scatter logic. It is only valid for the duration of the call.
type VertexCtx struct {
	rt  *runtime
	eng *engine.Context
	ws  *workspace // the executing worker's: its warp scratch holds spilled payloads
	idx int
	v   *tgraph.Vertex

	inInit    bool
	inCompute bool
	inScatter bool
	allowed   ival.Interval   // interval the current compute tuple covers
	piece     ival.Interval   // edge property piece of the current scatter call
	props     []int64         // its value per Options.PropLabels slot; nil outside Scatter
	propMask  uint8           // bit s: props[s] is a value the edge has, not a filler
	scatterX  ival.Interval   // scatter overlap: default message interval
	scatterTo int             // destination of the current scatter call
	updated   []ival.Interval // state intervals written during this superstep
}

// ID returns the vertex's identifier.
func (c *VertexCtx) ID() tgraph.VertexID { return c.v.ID }

// Index returns the vertex's dense index.
func (c *VertexCtx) Index() int { return c.idx }

// Vertex returns the static temporal vertex (lifespan and properties).
func (c *VertexCtx) Vertex() *tgraph.Vertex { return c.v }

// Graph returns the temporal graph under computation.
func (c *VertexCtx) Graph() *tgraph.Graph { return c.rt.g }

// Lifespan returns the vertex lifespan — inside Options.Window, when the run
// has one: the interval the vertex's state covers.
func (c *VertexCtx) Lifespan() ival.Interval { return c.State().Lifespan() }

// Superstep returns the 1-based superstep number.
func (c *VertexCtx) Superstep() int { return c.eng.Superstep() }

// Phase returns the master-set phase.
func (c *VertexCtx) Phase() int { return c.eng.Phase() }

// NumVertices returns |V| of the graph — under Options.Window, the number of
// vertices the window keeps, which is |V| of tgraph.Slice of it.
func (c *VertexCtx) NumVertices() int { return c.rt.nv }

// State returns the vertex's partitioned state for reading.
func (c *VertexCtx) State() *PartitionedState { return c.rt.states[c.idx] }

// StateAt returns the state value at time-point t.
func (c *VertexCtx) StateAt(t ival.Time) (any, bool) { return c.State().Get(t) }

// SetState updates the vertex state for iv. During Init any sub-interval of
// the lifespan may be written; during Compute writes are restricted to the
// active interval the call was made for — the contract S(τi) = {〈τj , sj〉 |
// τj ⊑ τi} of Sec. IV-A3. Out-of-range writes return an error and abort the
// run.
func (c *VertexCtx) SetState(iv ival.Interval, value any) error {
	if c.inScatter {
		// Scatter aligns the partitions being iterated; a Set would recycle
		// the backing array mid-iteration (see PartitionedState.Parts).
		err := fmt.Errorf("core: vertex %d called SetState during Scatter", c.v.ID)
		c.rt.fail(err)
		return err
	}
	bound := c.Lifespan()
	if c.inCompute {
		bound = c.allowed
	}
	if !bound.ContainsInterval(iv) || iv.IsEmpty() {
		err := fmt.Errorf("%w: vertex %d wrote %v, active interval %v",
			ErrStateOutOfRange, c.v.ID, iv, bound)
		c.rt.fail(err)
		return err
	}
	if err := c.rt.states[c.idx].Set(iv, value); err != nil {
		c.rt.fail(err)
		return err
	}
	c.rt.stateUpdates.Add(1)
	if !c.inInit {
		c.updated = append(c.updated, iv)
	}
	return nil
}

// Emit sends a message to the current scatter call's destination without
// allocating an OutMsg slice; a zero interval inherits the scatter overlap
// (τm = τ'k). It may only be called during Scatter; algorithms use it in
// place of returning a non-nil slice on hot paths.
func (c *VertexCtx) Emit(when ival.Interval, value codec.Word) {
	if !c.inScatter {
		c.rt.fail(fmt.Errorf("core: Emit called outside Scatter by vertex %d", c.v.ID))
		return
	}
	if when == (ival.Interval{}) {
		when = c.scatterX
	}
	if when.IsEmpty() {
		return
	}
	c.eng.SendWord(c.scatterTo, when, value, c.ws.scratch.Spilled())
}

// Spill turns a payload outside the word palette (a slice, a struct) into
// the word that stands for it in an Emit, a SendTo or an OutMsg made during
// the same call. Payload reads such a word back — one Compute was handed, or
// one Spill returned; an inline word it returns as the value it holds.
func (c *VertexCtx) Spill(value any) codec.Word { return c.ws.scratch.Spill(value) }

// Payload returns the value a message word stands for: see Spill.
func (c *VertexCtx) Payload(w codec.Word) any { return c.ws.scratch.Payload(w) }

// ScatterPiece returns, during a Scatter call, the full edge property piece
// being scattered over (the scatter interval t is its intersection with the
// updated state; reverse-traversal algorithms need the piece itself to
// compute departure windows). Under Options.Window it is what the window
// leaves of the piece.
func (c *VertexCtx) ScatterPiece() ival.Interval { return c.piece.Intersect(c.rt.window) }

// ErrPieceProp is the failure of a PieceProp call the scatter plan cannot
// answer: one made outside Scatter, or for a slot Options.PropLabels does not
// declare.
var ErrPieceProp = errors.New("core: no such piece property")

// PieceProp returns, during a Scatter call, the value of the edge property
// Options.PropLabels[slot] on the piece being scattered over, and whether the
// edge has one there. Pieces are cut where those labels change value, so this
// is Props.ValueAt(label, t) for every time-point t of the piece, read from
// the scatter plan instead of looked up by label. Any other call — outside
// Scatter, a slot outside PropLabels (or past its first 8 entries), a run
// that declares no PropLabels — fails the run with ErrPieceProp.
func (c *VertexCtx) PieceProp(slot int) (int64, bool) {
	if uint(slot) >= uint(len(c.props)) {
		c.failPieceProp(slot)
		return 0, false
	}
	return c.props[slot], c.propMask&(1<<slot) != 0
}

func (c *VertexCtx) failPieceProp(slot int) {
	where := "outside Scatter"
	if c.inScatter {
		where = fmt.Sprintf("with %d label slots declared", c.rt.plan.slots)
	}
	c.rt.fail(fmt.Errorf("%w: vertex %d asked for slot %d %s", ErrPieceProp, c.v.ID, slot, where))
}

// SendTo sends a message directly to the vertex at dense index dst, valid
// for the given interval, bypassing scatter. Pregel-style algorithms that
// message non-adjacent vertices (triangle closure replies, SCC backward
// sweeps) use this; messages still flow through the engine and are counted.
// A vertex Options.Window dropped is not there to be messaged: nothing is
// sent.
func (c *VertexCtx) SendTo(dst int, when ival.Interval, value codec.Word) {
	if c.rt.window != ival.Universe && !c.rt.g.VertexAt(dst).Lifespan.Intersects(c.rt.window) {
		return
	}
	c.eng.SendWord(dst, when, value, c.ws.scratch.Spilled())
}

// Aggregate contributes a word to a named aggregator (Options.Aggregators);
// the master reads the merged value at the next barrier.
func (c *VertexCtx) Aggregate(name string, v codec.Word) { c.eng.Aggregate(name, v) }
