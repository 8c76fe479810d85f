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
	w      *Shard // the vertex's shard: outboxes, partials and scratch are its own
	vertex int32
	slot   int
	// spill is the spill table of the worker's inbox, which every message
	// Program.Run is handed indexes.
	spill []any
}

// Vertex returns the dense index of the vertex being executed.
func (c *Context) Vertex() int { return int(c.vertex) }

// Superstep returns the 1-based superstep number.
func (c *Context) Superstep() int { return c.eng.superstp }

// NumWorkers returns the number of BSP workers.
func (c *Context) NumWorkers() int { return len(c.eng.workers) }

// Worker returns the id of the worker that owns and executes this vertex.
// Platform layers key per-worker scratch workspaces off it: a worker
// goroutine only ever executes one vertex at a time, so workspace access
// needs no synchronization.
func (c *Context) Worker() int { return c.w.id }

// Phase returns the master-set phase number (0 until changed).
func (c *Context) Phase() int { return c.eng.barrier.state.Phase }

// Payload returns the value a message of the inbox Run was handed carries.
func (c *Context) Payload(m Message) any { return m.Word().Resolve(c.spill) }

// Send queues a message to the vertex with dense index dst, valid for the
// given interval, delivered at the next barrier. It is the any-valued front
// of SendWord: a value of the word palette (nil, int64, float64,
// codec.Int64Pair) travels inline, any other spills.
func (c *Context) Send(dst int, when ival.Interval, value any) {
	if w, ok := codec.WordOf(value); ok {
		c.SendWord(dst, when, w, nil)
		return
	}
	c.SendWord(dst, when, codec.Word{K: codec.KindSpill}, []any{value})
}

// SendWord is Send for a payload that already is a word; spill is the table
// a spilled one indexes, which the payload is moved out of. The message and
// its bytes are counted here, as sent; a Config.Combiner folds the outbox
// when the compute phase ends (fold.go).
func (c *Context) SendWord(dst int, when ival.Interval, pw codec.Word, spill []any) {
	w := c.w
	dw := int(c.eng.part[dst])
	w.outbox[dw].add(newMessage(int32(dst), when, pw), spill)
	w.rep.Messages++
	class, n := codec.ClassAndSize(when)
	ivalBytes := int64(n)
	size := ivalBytes
	if pw.K == c.eng.inline {
		size += int64(codec.WordSize(pw))
	} else {
		size += c.payloadSize(pw, spill)
	}
	w.rep.MessageBytes += size
	w.rep.Intervals.AddClass(class, ivalBytes)
}

// payloadSize sizes a payload that is not a word of the run's codec: one
// that spilled, by encoding it into the worker's scratch buffer, or any at
// all when there is no codec, by estimate.
func (c *Context) payloadSize(pw codec.Word, spill []any) int64 {
	if pw.K == codec.KindSpill {
		c.w.rep.Spilled++
	}
	pc := c.eng.cfg.PayloadCodec
	switch {
	case pc != nil:
		c.w.scratch = pc.Append(c.w.scratch[:0], pw.Resolve(spill))
		return int64(len(c.w.scratch))
	case pw.K == codec.KindNil:
		return 0
	case pw.K != codec.KindSpill:
		return 8
	}
	switch x := spill[pw.A].(type) {
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
func (c *Context) AddComputeCalls(n int) { c.w.rep.ComputeCalls += int64(n) }

// AddScatterCalls adds to the run's scatter-call counter.
func (c *Context) AddScatterCalls(n int) { c.w.rep.ScatterCalls += int64(n) }

// Aggregate contributes a word to a named aggregator: it folds into this
// worker's partial, and the master reads the merged value at the next barrier.
func (c *Context) Aggregate(name string, v codec.Word) { c.eng.barrier.fold(c.w.rep.Aggs, name, v) }

// Fail records err as the superstep's failure, as an escaping panic is: the
// superstep ends — every worker stops claiming vertices — and Run returns
// err, as a stepped Shard's phase does. The first failure of a superstep is the one reported.
func (c *Context) Fail(err error) { c.eng.fail(err) }
