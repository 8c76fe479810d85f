package engine

import (
	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// Context is handed to Program.Init and Program.Run; it identifies the
// vertex being executed and provides messaging, aggregation and metric
// facilities. A Context is only valid for the duration of the call.
type Context struct {
	eng    *Engine
	w      *worker // the executing worker: partials and scratch are its own
	vertex int32
	slot   int
	// lanes, when non-nil, are the per-destination outbox lanes of the chunk
	// being executed; Send appends there instead of the worker outboxes so
	// stolen chunks stay order-independent until the deterministic merge.
	lanes [][]Message
}

// Vertex returns the dense index of the vertex being executed.
func (c *Context) Vertex() int { return int(c.vertex) }

// Superstep returns the 1-based superstep number.
func (c *Context) Superstep() int { return c.eng.superstp }

// NumWorkers returns the number of BSP workers.
func (c *Context) NumWorkers() int { return len(c.eng.workers) }

// Worker returns the id of the worker executing this vertex — under work
// stealing, the thief, not the vertex's owner. Platform layers key
// per-worker scratch workspaces off it: a worker goroutine only ever
// executes one vertex at a time, so workspace access needs no
// synchronization even when the vertex belongs to another worker's
// partition.
func (c *Context) Worker() int { return c.w.id }

// Phase returns the master-set phase number (0 until changed).
func (c *Context) Phase() int { return c.eng.phase }

// Send queues a message to the vertex with dense index dst, valid for the
// given interval, delivered at the next barrier.
func (c *Context) Send(dst int, when ival.Interval, value any) {
	w := c.w
	dw := int(c.eng.part[dst])
	m := Message{Dst: int32(dst), When: when, Value: value}
	if c.lanes != nil {
		c.lanes[dw] = append(c.lanes[dw], m)
	} else {
		w.outbox[dw] = append(w.outbox[dw], m)
	}
	w.sentMsgs++
	class, n := codec.ClassAndSize(when)
	ivalBytes := int64(n)
	size := ivalBytes + c.payloadSize(value)
	w.sentBytes += size
	w.classBytes[class] += ivalBytes
	if w.outBytes != nil {
		w.outBytes[dw] += int64(codec.UvarintLen(uint64(dst))) + size
	}
}

// payloadSize estimates encoded payload bytes, preferring the configured
// codec; the worker's scratch buffer keeps the sizing allocation-free.
func (c *Context) payloadSize(v any) int64 {
	if pc := c.eng.cfg.PayloadCodec; pc != nil {
		c.w.scratch = pc.Append(c.w.scratch[:0], v)
		return int64(len(c.w.scratch))
	}
	switch x := v.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case []int64:
		return int64(8 * len(x))
	default:
		return 8
	}
}

// AddComputeCalls adds to the run's user-compute-call counter; the platform
// layers call this once per user logic invocation.
func (c *Context) AddComputeCalls(n int) { c.w.computeCalls += int64(n) }

// AddScatterCalls adds to the run's scatter-call counter.
func (c *Context) AddScatterCalls(n int) { c.w.scatterCalls += int64(n) }

// Aggregate contributes a value to a named aggregator; it becomes visible
// in the next superstep.
func (c *Context) Aggregate(name string, v any) {
	c.eng.aggs[name].accumulate(v)
}

// AggValue returns the merged value a named aggregator held at the end of
// the previous superstep (nil in superstep 1).
func (c *Context) AggValue(name string) any { return c.eng.aggVals[name] }

// MasterControl is the master-compute interface: it runs between supersteps
// on merged aggregator state.
type MasterControl struct {
	eng  *Engine
	halt bool
}

// Superstep returns the superstep about to execute (1-based).
func (m *MasterControl) Superstep() int { return m.eng.superstp }

// Halt stops the computation before the upcoming superstep.
func (m *MasterControl) Halt() { m.halt = true }

// Phase returns the current phase number.
func (m *MasterControl) Phase() int { return m.eng.phase }

// SetPhase changes the phase number visible to vertices via Context.Phase.
func (m *MasterControl) SetPhase(p int) { m.eng.phase = p }

// AggValue returns the merged value of a named aggregator from the previous
// superstep.
func (m *MasterControl) AggValue(name string) any { return m.eng.aggVals[name] }
